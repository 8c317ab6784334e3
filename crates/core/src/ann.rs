//! The one IVF + scalar-i8 ANN tier: sublinear k-nearest-trajectory
//! search at the scale the paper targets (§IV-D; §VI future work 3).
//!
//! * [`ScalarQuantizer`] — per-dimension affine i8 compression of the
//!   stored vectors (`|v| + 4` scanned bytes per vector: the codes and
//!   their reconstruction norm). Candidate scoring is *asymmetric
//!   distance computation* (ADC) in dot-product form ([`AdcQuery`]):
//!   the query is folded through the scales and rounded to `i16` once,
//!   each candidate costs one exact integer dot product
//!   ([`t2vec_tensor::simd::dot_i16_i8_rows`]), and the top `rerank`
//!   candidates are re-scored with exact f32 distances.
//! * [`Ivf`] + [`IvfCells`] — the inverted file itself, split along the
//!   line a concurrent caller needs: [`Ivf`] is the learned, immutable
//!   half (coarse k-means centroids from [`crate::kmeans`], quantizer
//!   ranges, probe/re-rank budgets) and owns every algorithm — cell
//!   assignment, probe ordering, the ADC/f32 scan, the shortlist and
//!   the exact re-rank; [`IvfCells`] is the mutable half, one flat
//!   row-major posting list per cell keyed by caller-assigned `u64`
//!   ids, upsertable in O(1).
//!
//! Its one user is the serving store's `AnnTier` (`t2vec_serve::ann`):
//! the same [`Ivf`] with its [`IvfCells`] behind an `RwLock`, re-ranking
//! from the store's own rows.
//!
//! ## Determinism
//!
//! Everything here is a pure function of (stored contents, query,
//! construction seed):
//!
//! * cell membership is the nearest centroid under the bitwise-total
//!   (`total_cmp`, lowest-id tie-break) order over the SIMD layer's
//!   backend-invariant `sq_dist_f32`, so the candidate set of a query
//!   never depends on insert order, shard count or call site;
//! * quantizer codes are computed in plain scalar arithmetic — one
//!   rounding sequence, no reduction — so they are bitwise-identical
//!   across SIMD backends and thread counts by construction;
//! * ADC scores are an exact integer dot product (the same integer on
//!   every backend, in any lane order) plus scalar `f32` arithmetic
//!   once per candidate, so they are bitwise-identical across backends,
//!   and every scored list is cut with [`select_top_k`], the order the
//!   exact scans use;
//! * at `nprobe >= nlist` every stored vector is a candidate, and with
//!   `rerank = usize::MAX` every candidate is re-scored exactly, so the
//!   result is **byte-for-byte the exact scan's answer** (same scoring
//!   kernel and argument order, same total order, same `sqrt`).
//!
//! ## Quantizer input policy
//!
//! Training rejects non-finite inputs (panics — a model that emits NaN
//! embeddings is broken upstream). Encoding *clamps* deterministically:
//! NaN and `-inf` map to the lowest code, `+inf` to the highest, finite
//! out-of-range values saturate. The proptest battery in
//! `crates/core/tests/quantizer_proptest.rs` pins all of this down.

use crate::index::select_top_k;
use crate::kmeans;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use t2vec_obs as obs;
use t2vec_tensor::{parallel, simd};

/// Per-dimension affine scalar quantizer: dimension `j` of a vector is
/// stored as an `i8` code `c` decoding to `bias[j] + scale[j] · c`.
///
/// `scale[j]` spans the training range in 255 steps
/// (`(max - min) / 255`); `bias[j]` centres the code range so
/// `c = -128` decodes to the training minimum and `c = 127` to the
/// maximum. A constant dimension gets `scale = 0` and every value maps
/// to code 0.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarQuantizer {
    /// Training-range minimum per dimension (`decode(-128)`).
    lo: Vec<f32>,
    /// Step size per dimension (`(max - min) / 255`).
    scale: Vec<f32>,
    /// Decode intercept per dimension (`lo + 128 · scale`).
    bias: Vec<f32>,
}

impl ScalarQuantizer {
    /// Fits the per-dimension ranges over `training`.
    ///
    /// # Panics
    /// Panics if `training` is empty, dimensions are inconsistent, or
    /// any training value is non-finite (rejected — see module docs).
    pub fn train(training: &[Vec<f32>]) -> Self {
        assert!(!training.is_empty(), "cannot fit a quantizer to nothing");
        let dim = training[0].len();
        let mut lo = vec![f32::INFINITY; dim];
        let mut hi = vec![f32::NEG_INFINITY; dim];
        for v in training {
            assert_eq!(v.len(), dim, "inconsistent vector dimensions");
            for (j, &x) in v.iter().enumerate() {
                assert!(
                    x.is_finite(),
                    "quantizer training input must be finite (dim {j} is {x})"
                );
                lo[j] = lo[j].min(x);
                hi[j] = hi[j].max(x);
            }
        }
        let scale: Vec<f32> = lo.iter().zip(&hi).map(|(&l, &h)| (h - l) / 255.0).collect();
        // 128·scale is exact (power-of-two multiple); bias carries one
        // rounding, computed once here so encode/decode/ADC all share
        // the identical intercept.
        let bias: Vec<f32> = lo
            .iter()
            .zip(&scale)
            .map(|(&l, &s)| l + 128.0 * s)
            .collect();
        Self { lo, scale, bias }
    }

    /// Rebuilds a quantizer from its three persisted slabs (the binary
    /// snapshot's form); `None` when their lengths disagree or they hold
    /// values [`ScalarQuantizer::train`] cannot produce: a non-finite
    /// `lo` or `bias`, or a `scale` that is not finite and `≥ 0`.
    pub fn from_parts(lo: Vec<f32>, scale: Vec<f32>, bias: Vec<f32>) -> Option<Self> {
        let valid = lo.len() == scale.len()
            && scale.len() == bias.len()
            && lo.iter().chain(&bias).all(|x| x.is_finite())
            && scale.iter().all(|s| s.is_finite() && *s >= 0.0);
        valid.then_some(Self { lo, scale, bias })
    }

    /// Vector dimension this quantizer was fitted for.
    pub fn dim(&self) -> usize {
        self.scale.len()
    }

    /// Per-dimension training-range minima.
    pub fn lo(&self) -> &[f32] {
        &self.lo
    }

    /// Per-dimension step sizes (`decode` slope).
    pub fn scale(&self) -> &[f32] {
        &self.scale
    }

    /// Per-dimension decode intercepts.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Encodes one dimension deterministically (see module docs for the
    /// clamping policy on NaN / infinities / out-of-range values).
    #[inline]
    fn encode_dim(&self, j: usize, x: f32) -> i8 {
        if x.is_nan() {
            return -128;
        }
        if self.scale[j] == 0.0 {
            return 0;
        }
        let t = ((x - self.lo[j]) / self.scale[j]).clamp(0.0, 255.0);
        (round_small(t) - 128) as i8
    }

    /// Encodes `v` into `out` (one code per dimension) and returns the
    /// squared norm of its reconstruction, `‖decode(codes)‖²` — summed in
    /// `f32`, ascending dimension, in the same pass: the per-entry term
    /// of the ADC score (see [`AdcQuery`]).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<i8>) -> f32 {
        assert_eq!(v.len(), self.dim(), "vector dimension mismatch");
        let mut norm = 0.0f32;
        out.extend(v.iter().enumerate().map(|(j, &x)| {
            let c = self.encode_dim(j, x);
            let r = self.bias[j] + self.scale[j] * f32::from(c);
            norm += r * r;
            c
        }));
        norm
    }

    /// Encodes `v` into a fresh code vector.
    pub fn encode(&self, v: &[f32]) -> Vec<i8> {
        let mut out = Vec::with_capacity(v.len());
        self.encode_into(v, &mut out);
        out
    }

    /// Encodes a batch over the scoped thread pool. Codes are computed
    /// per element in plain scalar arithmetic, so the result is
    /// bitwise-identical at any thread count (the quantizer proptests
    /// assert this).
    pub fn encode_batch(&self, vectors: &[Vec<f32>]) -> Vec<Vec<i8>> {
        parallel::par_map(vectors, |_, v| self.encode(v))
    }

    /// Decodes a code vector back to its reconstruction.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn decode(&self, codes: &[i8]) -> Vec<f32> {
        assert_eq!(codes.len(), self.dim(), "code dimension mismatch");
        codes
            .iter()
            .enumerate()
            .map(|(j, &c)| self.bias[j] + self.scale[j] * f32::from(c))
            .collect()
    }

    /// Prepares a full-precision `query` for the ADC scan: folds it
    /// through the scales (`u[j] = query[j]·scale[j]`) and rounds that
    /// to `i16` in units of `α = max|u| / U`, where `U` is
    /// [`simd::dot_i16_i8_limit`] of the dimension. A query with no
    /// finite positive `α` (all zero, or infinite) gets `ũ = 0` and
    /// `α = 0`, so every score is the stored norm.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn adc_query(&self, query: &[f32]) -> AdcQuery {
        assert_eq!(query.len(), self.dim(), "query dimension mismatch");
        let u = |j: usize| query[j] * self.scale[j];
        let limit = i32::from(simd::dot_i16_i8_limit(self.dim()));
        // `f32::max` skips NaN, so a NaN entry rounds to 0 below.
        let max = (0..self.dim()).fold(0.0f32, |m, j| m.max(u(j).abs()));
        let alpha = max / limit as f32;
        if !(alpha.is_finite() && alpha > 0.0) {
            return AdcQuery {
                units: vec![0; self.dim()],
                alpha: 0.0,
            };
        }
        let units = (0..self.dim())
            .map(|j| round_small(u(j) / alpha).clamp(-limit, limit) as i16)
            .collect();
        AdcQuery { units, alpha }
    }
}

/// One query prepared for the ADC scan by [`ScalarQuantizer::adc_query`].
///
/// With `decode(c) = bias + scale·c`,
/// `‖q − decode(c)‖² = ‖q‖² − 2⟨q, bias⟩ − 2 Σⱼ q[j]·scale[j]·c[j] +
/// ‖decode(c)‖²`. The first two terms are the same for every candidate
/// of a query, so the scan ranks by the rest: `norm − 2α·Σⱼ ũ[j]·c[j]`,
/// with `norm` stored beside the codes at upsert and the sum an exact
/// integer ([`simd::dot_i16_i8_rows`]). Rounding the query costs at most
/// `α/2` per dimension, so a score is within `128·d·α` (plus `f32`
/// rounding) of `‖q − decode(c)‖² − ‖q‖² + 2⟨q, bias⟩`; the exact f32
/// re-rank removes it from every answer that reaches the caller.
#[derive(Debug, Clone)]
pub struct AdcQuery {
    /// `ũ`: the folded query in units of `alpha`.
    units: Vec<i16>,
    /// `α`, the value of one unit.
    alpha: f32,
}

impl AdcQuery {
    /// Scores every row of one posting list (`codes` row-major, one
    /// `norms` entry per row) on backend `be`, through `dots` as
    /// scratch: `norm − 2α·dot`. The integer dots are the same on every
    /// backend and the rest is scalar, so scores are bitwise-identical
    /// across backends.
    ///
    /// # Panics
    /// Panics if `codes` holds fewer rows than `norms`.
    pub fn scan_on<'a>(
        &'a self,
        be: simd::Backend,
        codes: &[i8],
        norms: &'a [f32],
        dots: &'a mut Vec<i32>,
    ) -> impl Iterator<Item = f32> + 'a {
        dots.clear();
        dots.resize(norms.len(), 0);
        simd::dot_i16_i8_rows_on(be, &self.units, codes, dots);
        let dots: &'a Vec<i32> = dots;
        let two_alpha = 2.0 * self.alpha;
        norms
            .iter()
            .zip(dots)
            .map(move |(&norm, &dot)| norm - two_alpha * dot as f32)
    }
}

/// `t.round() as i32` for `|t| < 2²³` (NaN gives 0 either way), without
/// the `roundf` call the x86-64 baseline compiles `round` to. In that
/// range the fraction `t − trunc(t)` is exact, so comparing it with ±½
/// rounds half away from zero, as `round` does. An exhaustive pass over
/// every `f32` with `|t| < 2²³` finds no difference; the unit tests pin
/// the half-way points.
#[inline]
fn round_small(t: f32) -> i32 {
    let whole = t as i32;
    let frac = t - whole as f32;
    whole + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

/// Construction parameters of an [`Ivf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfConfig {
    /// Coarse cells (k-means centroids). Clamped to the training-set
    /// size at [`Ivf::train`] time.
    pub nlist: usize,
    /// Cells scanned per query; `nprobe >= nlist` scans everything
    /// (the "`nprobe = ∞`" exact mode).
    pub nprobe: usize,
    /// Candidates re-scored with exact f32 distances after the ADC pass
    /// (only meaningful with `quantize`); `usize::MAX` re-ranks every
    /// candidate. Always at least `k` at query time.
    pub rerank: usize,
    /// Store i8 codes and scan with ADC (the compressed tier). Without
    /// this the cells hold plain f32 rows.
    pub quantize: bool,
    /// Lloyd iteration budget for the coarse k-means.
    pub kmeans_iters: usize,
}

impl IvfConfig {
    /// A sensible starting point: `nlist` cells, an eighth probed,
    /// 128-deep exact re-rank, quantization on.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            nprobe: (nlist / 8).max(1),
            rerank: 128,
            quantize: true,
            kmeans_iters: 25,
        }
    }

    /// Exact mode: probe every cell and re-rank every candidate — the
    /// configuration under which results are byte-for-byte the exact scan.
    pub fn exact(nlist: usize) -> Self {
        Self {
            nprobe: usize::MAX,
            rerank: usize::MAX,
            ..Self::new(nlist)
        }
    }
}

/// The learned half of the inverted file (see module docs): plain
/// data, and its own persisted form — the serving layer stores it
/// inside its snapshots (raw f32 slabs; the older JSON snapshots
/// round-trip floats bit-for-bit too, so restored centroids rank
/// identically either way).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ivf {
    /// Cells scanned per query (at least one is always probed).
    pub nprobe: usize,
    /// Exact re-rank budget.
    pub rerank: usize,
    /// Coarse centroids, one per cell.
    pub centroids: Vec<Vec<f32>>,
    /// Quantizer ranges when the compressed tier is enabled.
    pub quantizer: Option<ScalarQuantizer>,
}

/// One IVF cell: ids plus, flat and row-major, either i8 codes with
/// each entry's reconstruction norm (quantized tier) or f32 rows (exact
/// tier) for cache-friendly scans.
#[derive(Debug, Clone, Default)]
struct Cell {
    ids: Vec<u64>,
    codes: Vec<i8>,
    norms: Vec<f32>,
    rows: Vec<f32>,
}

/// The mutable half of the inverted file: the posting lists. Built by
/// [`Ivf::empty_cells`], filled by [`Ivf::upsert`].
#[derive(Debug, Clone)]
pub struct IvfCells {
    lists: Vec<Cell>,
    /// id → (cell, slot) for O(1) upsert maintenance.
    locate: HashMap<u64, (usize, usize)>,
}

impl IvfCells {
    /// Entries currently indexed.
    pub fn len(&self) -> usize {
        self.locate.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.locate.is_empty()
    }
}

/// What one [`Ivf::knn`] call touched — the deterministic counts the
/// serving layer's per-query explain record reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IvfStats {
    /// Cells probed.
    pub cells_probed: usize,
    /// Candidates scored in the first pass (ADC codes or f32 rows).
    pub candidates: usize,
    /// Candidates re-scored exactly (0 when the first pass was exact).
    pub rerank: usize,
}

/// Swap-removes row `slot` of a flat row-major array of `d`-wide rows.
fn swap_remove_row<T: Copy>(flat: &mut Vec<T>, slot: usize, d: usize) {
    let last = flat.len() - d;
    flat.copy_within(last.., slot * d);
    flat.truncate(last);
}

impl Ivf {
    /// Trains the coarse structure (centroids via k-means++/Lloyd, and
    /// the quantizer ranges when `config.quantize`) on `training`. The
    /// training sample does not need to be (and usually is not) the
    /// full corpus; stored vectors arrive through [`Ivf::upsert`].
    ///
    /// # Panics
    /// Panics if `training` is empty or has inconsistent dimensions,
    /// or if `config.nlist` is zero.
    pub fn train(training: &[Vec<f32>], config: IvfConfig, rng: &mut impl Rng) -> Self {
        assert!(config.nlist > 0, "need at least one IVF cell");
        assert!(!training.is_empty(), "cannot train an IVF on nothing");
        let nlist = config.nlist.min(training.len());
        let km = kmeans::kmeans(training, nlist, config.kmeans_iters.max(1), rng);
        Self {
            nprobe: config.nprobe.max(1),
            rerank: config.rerank,
            centroids: km.centroids,
            quantizer: config.quantize.then(|| ScalarQuantizer::train(training)),
        }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.centroids[0].len()
    }

    /// Number of coarse cells.
    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    /// Bytes scanned per stored vector during the candidate pass:
    /// `dim + 4` for the i8 tier (the codes and the `f32` reconstruction
    /// norm), `4·dim` for full precision.
    pub fn scan_bytes_per_vector(&self) -> usize {
        if self.quantizer.is_some() {
            self.dim() + 4
        } else {
            self.dim() * 4
        }
    }

    /// Empty posting lists, one per cell.
    pub fn empty_cells(&self) -> IvfCells {
        IvfCells {
            lists: vec![Cell::default(); self.centroids.len()],
            locate: HashMap::new(),
        }
    }

    /// The cell `v` belongs to: its nearest centroid under the shared
    /// total order. Needs no access to the cells, so a concurrent
    /// caller runs it *before* taking its write lock.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn assign(&self, v: &[f32]) -> usize {
        assert_eq!(v.len(), self.dim(), "vector dimension mismatch");
        kmeans::nearest(&self.centroids, v).0
    }

    /// Inserts `id` into `cell` (= [`Ivf::assign`] of `v`), first
    /// swap-removing it from wherever it was: the flat payload arrays
    /// and the locate map stay consistent, and the id that moved into
    /// the vacated slot is re-pointed.
    pub fn upsert(&self, cells: &mut IvfCells, id: u64, cell: usize, v: &[f32]) {
        if let Some(&(old, slot)) = cells.locate.get(&id) {
            let list = &mut cells.lists[old];
            list.ids.swap_remove(slot);
            if self.quantizer.is_some() {
                swap_remove_row(&mut list.codes, slot, self.dim());
                list.norms.swap_remove(slot);
            } else {
                swap_remove_row(&mut list.rows, slot, self.dim());
            }
            if let Some(&moved) = list.ids.get(slot) {
                cells.locate.insert(moved, (old, slot));
            }
        }
        let list = &mut cells.lists[cell];
        cells.locate.insert(id, (cell, list.ids.len()));
        list.ids.push(id);
        match &self.quantizer {
            Some(q) => list.norms.push(q.encode_into(v, &mut list.codes)),
            None => list.rows.extend_from_slice(v),
        }
    }

    /// Bulk [`Ivf::upsert`]: every entry's cell is computed up front, in
    /// parallel, and only then does `cells` hand over the posting lists
    /// — a write-lock guard is taken once, after the `n · nlist · dim`
    /// of assignment work, not once per entry. Lists are reserved to
    /// their final size and filled in slice order, so they are exactly
    /// what one `upsert` per entry would have built.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn upsert_all<G: DerefMut<Target = IvfCells>>(
        &self,
        cells: impl FnOnce() -> G,
        entries: &[(u64, &[f32])],
    ) {
        let assigned = parallel::par_map(entries, |_, &(_, v)| self.assign(v));
        let mut guard = cells();
        let cells = &mut *guard;
        let mut incoming = vec![0usize; self.nlist()];
        for &c in &assigned {
            incoming[c] += 1;
        }
        for (list, n) in cells.lists.iter_mut().zip(incoming) {
            list.ids.reserve(n);
            match self.quantizer {
                Some(_) => {
                    list.codes.reserve(n * self.dim());
                    list.norms.reserve(n);
                }
                None => list.rows.reserve(n * self.dim()),
            }
        }
        cells.locate.reserve(entries.len());
        for (&(id, v), cell) in entries.iter().zip(assigned) {
            self.upsert(cells, id, cell, v);
        }
    }

    /// The `nprobe` nearest cells to `query`, nearest first under the
    /// shared total order (cell index stands in for the id tie-break).
    fn probe(&self, query: &[f32]) -> Vec<usize> {
        let mut scored: Vec<(usize, f32)> = self
            .centroids
            .iter()
            .enumerate()
            .map(|(c, row)| (c, simd::sq_dist_f32(row, query)))
            .collect();
        select_top_k(&mut scored, self.nprobe.clamp(1, self.centroids.len()));
        scored.into_iter().map(|(c, _)| c).collect()
    }

    /// The `k` nearest indexed ids to `query`, closest first as
    /// `(id, distance)`, plus what the search touched.
    ///
    /// `cells` hands over the posting lists — a plain reference, or a
    /// lock guard that is taken only after the probe ranking and
    /// released before the re-rank. `with_row` applies the re-rank's
    /// scorer to an id's exact f32 row where that row lives, so no row
    /// is copied (quantized tier only); an id it cannot resolve is
    /// skipped.
    ///
    /// # Panics
    /// Panics on a query dimension mismatch.
    pub fn knn<G: Deref<Target = IvfCells>>(
        &self,
        cells: impl FnOnce() -> G,
        with_row: impl Fn(u64, &dyn Fn(&[f32]) -> f32) -> Option<f32>,
        query: &[f32],
        k: usize,
    ) -> (Vec<(u64, f32)>, IvfStats) {
        let d = self.dim();
        assert_eq!(query.len(), d, "query dimension mismatch");
        let mut stats = IvfStats::default();
        if k == 0 {
            return (Vec::new(), stats);
        }
        let t0 = std::time::Instant::now();
        let probed = self.probe(query);
        stats.cells_probed = probed.len();
        obs::counter!("index.ivf.probes").add(probed.len() as u64);
        simd::record_dispatch();
        let be = simd::backend();
        let adc = self.quantizer.as_ref().map(|q| q.adc_query(query));
        let mut dots = Vec::new();
        let mut scored: Vec<(u64, f32)> = Vec::new();
        {
            let cells = cells();
            scored.reserve_exact(probed.iter().map(|&c| cells.lists[c].ids.len()).sum());
            for &c in &probed {
                let cell = &cells.lists[c];
                match &adc {
                    Some(adc) => scored.extend(cell.ids.iter().copied().zip(adc.scan_on(
                        be,
                        &cell.codes,
                        &cell.norms,
                        &mut dots,
                    ))),
                    None => scored.extend(cell.ids.iter().enumerate().map(|(s, &id)| {
                        (id, simd::sq_dist_f32(&cell.rows[s * d..(s + 1) * d], query))
                    })),
                }
            }
        }
        stats.candidates = scored.len();
        obs::histogram!("index.ivf.candidates").record(scored.len() as u64);
        obs::counter!("index.scan.vectors").add(scored.len() as u64);
        if self.quantizer.is_some() {
            // ADC shortlist, then exact re-rank from the caller's
            // full-precision rows — same kernel and argument order as
            // the exact scan, so at full probe/re-rank budgets
            // the bytes match it exactly.
            select_top_k(&mut scored, self.rerank.max(k));
            stats.rerank = scored.len();
            obs::histogram!("index.ivf.rerank_depth").record(scored.len() as u64);
            let exact = |row: &[f32]| simd::sq_dist_f32(row, query);
            scored = scored
                .into_iter()
                .filter_map(|(id, _)| with_row(id, &exact).map(|d| (id, d)))
                .collect();
        }
        select_top_k(&mut scored, k);
        for e in &mut scored {
            e.1 = e.1.sqrt();
        }
        obs::histogram!("index.ivf.query_ns").record_duration(t0.elapsed());
        (scored, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use t2vec_tensor::rng::det_rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = det_rng(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn quantizer_roundtrip_error_within_half_step() {
        let vectors = random_vectors(200, 8, 1);
        let q = ScalarQuantizer::train(&vectors);
        for v in &vectors {
            let back = q.decode(&q.encode(v));
            for (j, (&x, &r)) in v.iter().zip(&back).enumerate() {
                let bound = 0.501 * q.scale()[j] + 1e-5;
                assert!((x - r).abs() <= bound, "dim {j}: |{x} - {r}| > {bound}");
            }
        }
    }

    #[test]
    fn round_small_is_round_at_every_half_way_point() {
        let mut points = vec![0.0f32, -0.0, f32::NAN, 0.49999997, f32::MIN_POSITIVE];
        for k in (0..=255).chain([1 << 14, 32766, (1 << 23) - 2]) {
            let whole = k as f32;
            let half = whole + 0.5;
            points.extend([
                whole,
                half,
                half.next_down(),
                half.next_up(),
                whole.next_up(),
            ]);
        }
        for t in points.iter().flat_map(|&t| [t, -t]) {
            assert_eq!(round_small(t), t.round() as i32, "t = {t}");
        }
    }

    #[test]
    fn quantizer_clamps_non_finite_deterministically() {
        let q = ScalarQuantizer::train(&[vec![0.0f32, -1.0], vec![1.0, 1.0]]);
        let codes = q.encode(&[f32::NAN, f32::NAN]);
        assert_eq!(codes, vec![-128, -128]);
        assert_eq!(q.encode(&[f32::INFINITY, 5.0]), vec![127, 127]);
        assert_eq!(q.encode(&[f32::NEG_INFINITY, -5.0]), vec![-128, -128]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn quantizer_rejects_non_finite_training() {
        let _ = ScalarQuantizer::train(&[vec![0.0f32, f32::NAN]]);
    }

    #[test]
    fn constant_dimension_encodes_to_zero() {
        let q = ScalarQuantizer::train(&[vec![2.5f32, 0.0], vec![2.5, 1.0]]);
        assert_eq!(q.encode(&[2.5, 0.5])[0], 0);
        assert_eq!(q.decode(&[0, 0])[0], 2.5);
    }

    /// Codes and norms of `vectors`, as a posting list holds them.
    fn encoded(q: &ScalarQuantizer, vectors: &[Vec<f32>]) -> (Vec<i8>, Vec<f32>) {
        let mut codes = Vec::new();
        let norms = vectors
            .iter()
            .map(|v| q.encode_into(v, &mut codes))
            .collect();
        (codes, norms)
    }

    fn scores(adc: &AdcQuery, be: simd::Backend, codes: &[i8], norms: &[f32]) -> Vec<u32> {
        let mut dots = Vec::new();
        adc.scan_on(be, codes, norms, &mut dots)
            .map(f32::to_bits)
            .collect()
    }

    #[test]
    fn adc_score_is_the_decoded_distance_within_the_rounding_bound() {
        // score + ‖q‖² − 2⟨q, bias⟩ estimates ‖q − decode(c)‖². Rounding
        // the folded query to units of α costs ≤ α/2 per dimension
        // against |c| ≤ 128, twice: 128·d·α. The f32 sums on both sides
        // (norm, score, exact distance; ≤ d + 2 terms each) add at most
        // (d + 2)·ε relative to the magnitudes they add up.
        let d = 33;
        let vectors = random_vectors(50, d, 2);
        let q = ScalarQuantizer::train(&vectors);
        let (codes, norms) = encoded(&q, &vectors);
        for query in random_vectors(8, d, 3) {
            let adc = q.adc_query(&query);
            let got = scores(&adc, simd::backend(), &codes, &norms);
            let offset: f64 = (0..d)
                .map(|j| {
                    let x = f64::from(query[j]);
                    x * x - 2.0 * x * f64::from(q.bias()[j])
                })
                .sum();
            for (i, bits) in got.into_iter().enumerate() {
                let decoded = q.decode(&codes[i * d..(i + 1) * d]);
                let exact = f64::from(simd::sq_dist_f32(&query, &decoded));
                let estimate = f64::from(f32::from_bits(bits)) + offset;
                let magnitude: f64 = (0..d)
                    .map(|j| {
                        let (x, r) = (f64::from(query[j]), f64::from(decoded[j]));
                        x * x + r * r + 2.0 * x.abs() * (f64::from(q.bias()[j]).abs() + r.abs())
                    })
                    .sum();
                let bound = 128.0 * d as f64 * f64::from(adc.alpha)
                    + 4.0 * (d + 2) as f64 * f64::from(f32::EPSILON) * magnitude;
                assert!(
                    (estimate - exact).abs() <= bound,
                    "row {i}: estimate {estimate} vs exact {exact}, bound {bound}"
                );
            }
        }
    }

    #[test]
    fn adc_scores_of_degenerate_queries_are_deterministic() {
        let d = 20;
        let vectors = random_vectors(30, d, 14);
        let q = ScalarQuantizer::train(&vectors);
        let (codes, norms) = encoded(&q, &vectors);
        let norm_bits: Vec<u32> = norms.iter().map(|n| n.to_bits()).collect();
        let mut one_nan = vectors[0].clone();
        one_nan[3] = f32::NAN;
        let mut one_inf = vectors[1].clone();
        one_inf[7] = f32::NEG_INFINITY;
        let ivf = Ivf::train(&vectors, IvfConfig::new(4), &mut det_rng(15));
        let cells = filled(&ivf, &vectors, 0..vectors.len());
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        // (query, whether it has no finite positive unit α)
        let queries = [
            (vec![0.0; d], true),
            (vec![f32::INFINITY; d], true),
            (one_inf, true),
            (vec![f32::NAN; d], true),
            (one_nan, false),
        ];
        for (query, unitless) in queries {
            let adc = q.adc_query(&query);
            assert_eq!(adc.alpha == 0.0, unitless, "{query:?}");
            let want = scores(&adc, simd::Backend::Scalar, &codes, &norms);
            for be in [simd::backend(), simd::Backend::Scalar] {
                assert_eq!(scores(&q.adc_query(&query), be, &codes, &norms), want);
            }
            if unitless {
                assert_eq!(want, norm_bits, "no unit: every score is the norm");
            }
            assert_eq!(
                bits(ivf.knn(|| &cells, fetch, &query, 5).0),
                bits(ivf.knn(|| &cells, fetch, &query, 5).0)
            );
        }
    }

    /// The exact answer by a full sort: every vector scored with the
    /// scans' kernel and argument order, sorted under the shared total
    /// order, cut to `k`, rooted.
    fn full_sort_scan(vectors: &[Vec<f32>], query: &[f32], k: usize) -> Vec<(u64, f32)> {
        let mut all: Vec<(u64, f32)> = (0..)
            .zip(vectors)
            .map(|(id, v)| (id, simd::sq_dist_f32(v, query)))
            .collect();
        all.sort_by(crate::index::by_dist_then_id);
        all.truncate(k);
        all.into_iter().map(|(id, d)| (id, d.sqrt())).collect()
    }

    #[test]
    fn ivf_exact_mode_is_bitwise_a_full_sort_scan() {
        let vectors = random_vectors(300, 16, 4);
        let ivf = Ivf::train(&vectors, IvfConfig::exact(10), &mut det_rng(5));
        let cells = filled(&ivf, &vectors, 0..vectors.len());
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        for q in random_vectors(20, 16, 6) {
            let (got, stats) = ivf.knn(|| &cells, fetch, &q, 10);
            assert_eq!(stats.candidates, vectors.len());
            assert_eq!(bits(got), bits(full_sort_scan(&vectors, &q, 10)));
        }
    }

    #[test]
    fn ivf_prunes_candidates_at_finite_nprobe() {
        let vectors = random_vectors(2_000, 16, 7);
        let mut cfg = IvfConfig::new(32);
        cfg.nprobe = 4;
        let ivf = Ivf::train(&vectors, cfg, &mut det_rng(8));
        let cells = filled(&ivf, &vectors, 0..vectors.len());
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        let q = &random_vectors(1, 16, 9)[0];
        let (hits, stats) = ivf.knn(|| &cells, fetch, q, 5);
        assert!(
            stats.candidates < 2_000 / 2,
            "IVF should prune: {} candidates",
            stats.candidates
        );
        assert_eq!(hits.len(), 5);
    }

    /// Every id sits on exactly one list, at the slot `locate` names,
    /// with a payload row per id — and, in the quantized tier, a stored
    /// norm bitwise equal to one recomputed from its codes.
    fn assert_consistent(ivf: &Ivf, cells: &IvfCells) {
        let mut seen = 0;
        let d = ivf.dim();
        for (c, list) in cells.lists.iter().enumerate() {
            for (s, id) in list.ids.iter().enumerate() {
                assert_eq!(cells.locate[id], (c, s), "id {id} mislocated");
                seen += 1;
            }
            let n = list.ids.len();
            let (codes, norms, rows) = match ivf.quantizer {
                Some(_) => (n * d, n, 0),
                None => (0, 0, n * d),
            };
            assert_eq!(
                (list.codes.len(), list.norms.len(), list.rows.len()),
                (codes, norms, rows)
            );
            if let Some(q) = &ivf.quantizer {
                for (s, norm) in list.norms.iter().enumerate() {
                    let decoded = q.decode(&list.codes[s * d..(s + 1) * d]);
                    let want = decoded.iter().fold(0.0f32, |acc, r| acc + r * r);
                    assert_eq!(norm.to_bits(), want.to_bits(), "cell {c} slot {s} norm");
                }
            }
        }
        assert_eq!(seen, cells.len(), "every id must be on exactly one list");
    }

    #[test]
    fn ivf_every_vector_lands_on_exactly_one_list() {
        let vectors = random_vectors(500, 8, 10);
        let ivf = Ivf::train(&vectors, IvfConfig::new(16), &mut det_rng(11));
        let cells = filled(&ivf, &vectors, 0..vectors.len());
        assert_eq!(cells.len(), 500);
        assert_consistent(&ivf, &cells);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn ivf_wrong_dim_panics() {
        let vectors = random_vectors(10, 4, 12);
        let ivf = Ivf::train(&vectors, IvfConfig::new(2), &mut det_rng(13));
        ivf.assign(&[1.0, 2.0]);
    }

    fn filled(ivf: &Ivf, vectors: &[Vec<f32>], order: impl Iterator<Item = usize>) -> IvfCells {
        let mut cells = ivf.empty_cells();
        for i in order {
            ivf.upsert(&mut cells, i as u64, ivf.assign(&vectors[i]), &vectors[i]);
        }
        cells
    }

    fn bits(hits: Vec<(u64, f32)>) -> Vec<(u64, u32)> {
        hits.into_iter().map(|(i, d)| (i, d.to_bits())).collect()
    }

    #[test]
    fn upsert_moves_ids_between_cells_and_keeps_payloads_aligned() {
        // Two well-separated clusters: moving a vector across them must
        // move its id to the other cell; re-upserting in place and
        // swap-removing from the middle of a list must keep the flat
        // payload arrays and the locate map aligned, in both tiers.
        let mut training = Vec::new();
        for i in 0..20 {
            training.push(vec![10.0 + (i as f32) * 0.01, 0.0]);
            training.push(vec![-10.0 - (i as f32) * 0.01, 0.0]);
        }
        for quantize in [true, false] {
            let cfg = IvfConfig {
                nprobe: 1,
                quantize,
                ..IvfConfig::new(2)
            };
            let ivf = Ivf::train(&training, cfg, &mut det_rng(42));
            let mut cells = filled(&ivf, &training, 0..training.len());
            assert_eq!(cells.len(), training.len());
            assert_consistent(&ivf, &cells);
            // Flip id 0 to the far cluster (a mid-list swap-remove from
            // one cell, an append to the other), rewrite id 5 in place,
            // then give id 8 a new vector in the same cell.
            let far = [-10.5f32, 0.0];
            ivf.upsert(&mut cells, 0, ivf.assign(&far), &far);
            assert_consistent(&ivf, &cells);
            ivf.upsert(&mut cells, 5, ivf.assign(&training[5]), &training[5]);
            assert_consistent(&ivf, &cells);
            let nudged = [training[8][0] + 0.07, 0.0];
            assert_eq!(ivf.assign(&nudged), ivf.assign(&training[8]));
            ivf.upsert(&mut cells, 8, ivf.assign(&nudged), &nudged);
            assert_eq!(cells.len(), training.len(), "upsert must not grow");
            assert_consistent(&ivf, &cells);
            let near = ivf.knn(|| &cells, |_, score| Some(score(&far)), &far, 1).0;
            assert_eq!(near[0].0, 0, "moved id must be findable in its new cell");
        }
    }

    #[test]
    fn knn_results_are_insert_order_invariant() {
        let vectors = random_vectors(200, 6, 62);
        let ivf = Ivf::train(&vectors, IvfConfig::new(8), &mut det_rng(42));
        let forward = filled(&ivf, &vectors, 0..200);
        let backward = filled(&ivf, &vectors, (0..200).rev());
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        for q in random_vectors(10, 6, 63) {
            let (a, sa) = ivf.knn(|| &forward, fetch, &q, 7);
            let (b, sb) = ivf.knn(|| &backward, fetch, &q, 7);
            assert_eq!(bits(a), bits(b));
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn k_zero_and_empty_cells() {
        let vectors = random_vectors(10, 4, 64);
        let ivf = Ivf::train(&vectors, IvfConfig::new(2), &mut det_rng(42));
        let mut cells = ivf.empty_cells();
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        assert!(ivf.knn(|| &cells, fetch, &[0.0; 4], 0).0.is_empty());
        assert!(ivf.knn(|| &cells, fetch, &[0.0; 4], 3).0.is_empty());
        assert!(cells.is_empty());
        ivf.upsert(&mut cells, 0, ivf.assign(&vectors[0]), &vectors[0]);
        assert_eq!(ivf.knn(|| &cells, fetch, &[0.0; 4], 3).0.len(), 1);
    }
}
