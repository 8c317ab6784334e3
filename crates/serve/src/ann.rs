//! The serving-store ANN tier: the one IVF of [`t2vec_core::ann`],
//! kept incrementally in sync with the
//! [`crate::store::EmbeddingStore`].
//!
//! Every algorithm — cell assignment, probe ordering, the ADC/f32 scan,
//! the shortlist, the exact re-rank — lives in [`t2vec_core::ann::Ivf`].
//! [`AnnTier`] adapts it to the serving shape and adds nothing else:
//!
//! * **locking** — the posting lists sit behind one `RwLock`; an upsert
//!   assigns its cell *before* taking the write lock (a bulk load
//!   assigns them all, in parallel, and locks once), a query ranks its
//!   probes before taking the read lock and releases it before the
//!   re-rank, which reads exact rows back from the store;
//! * **persistence** — the learned half is stored as [`AnnState`]
//!   inside a snapshot (f32 slabs in format v3, see
//!   [`crate::snapshot`]); posting lists and codes are rebuilt from
//!   store contents on restore;
//! * **explain** — the core's per-query counts become the
//!   [`QueryExplain`] record the service emits.
//!
//! At `nprobe = ∞` and `rerank = ∞` [`AnnTier::knn_explained`] is
//! **byte-for-byte equal** to [`crate::store::EmbeddingStore::knn`] —
//! the `ann_determinism` suite asserts this across shards,
//! interleavings, and SIMD backends.

use serde::{Deserialize, Serialize};
use std::sync::RwLock;
use t2vec_core::ann::{Ivf, IvfCells, IvfConfig};
use t2vec_obs as obs;
use t2vec_tensor::rng::det_rng;

/// Construction parameters of an [`AnnTier`]: `core::ann::IvfConfig`'s
/// fields plus a training seed and sample cap, so building from live
/// store contents is deterministic and bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnnConfig {
    /// Coarse cells; clamped to the training-sample size at build time.
    pub nlist: usize,
    /// Cells scanned per query; `>= nlist` scans everything.
    pub nprobe: usize,
    /// Candidates re-scored exactly after the ADC pass (quantized tier
    /// only); always at least `k` at query time, `usize::MAX` re-ranks
    /// every candidate.
    pub rerank: usize,
    /// Keep i8 codes and scan with ADC; otherwise cells hold f32 rows.
    pub quantize: bool,
    /// Lloyd iteration budget for the coarse k-means.
    pub kmeans_iters: usize,
    /// Seed of the k-means++ initialisation (training is a pure
    /// function of the sample and this seed).
    pub train_seed: u64,
    /// At most this many vectors feed k-means/quantizer training
    /// (evenly strided over the ascending-id dump); 0 = no cap.
    pub train_sample: usize,
}

impl AnnConfig {
    /// A sensible starting point: an eighth of the cells probed,
    /// 128-deep exact re-rank, quantization on.
    pub fn new(nlist: usize) -> Self {
        Self {
            nlist,
            nprobe: (nlist / 8).max(1),
            rerank: 128,
            quantize: true,
            kmeans_iters: 25,
            train_seed: 42,
            train_sample: 20_000,
        }
    }

    /// Exact mode: probe every cell, re-rank every candidate — the
    /// configuration under which ANN answers are byte-for-byte the
    /// brute-force scan's.
    pub fn exact(nlist: usize) -> Self {
        Self {
            nprobe: usize::MAX,
            rerank: usize::MAX,
            ..Self::new(nlist)
        }
    }
}

/// The learned, persisted part of an ANN tier: the core's [`Ivf`]
/// itself (probe/re-rank budgets, centroids, quantizer ranges).
pub type AnnState = Ivf;

/// Per-query explain record: how the store answered one kNN call.
///
/// Produced by [`AnnTier::knn_explained`] /
/// [`crate::store::EmbeddingStore::knn_ann_explained`] and surfaced by
/// `SimilarityService::knn_explained`. Every field is derived from
/// deterministic data (candidate counts, configured budgets), so
/// explain records are themselves deterministic for fixed store
/// contents — only their *emission* is gated on observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryExplain {
    /// Whether an ANN tier served the query (`false` = exact scan).
    pub ann: bool,
    /// `true` when the exact brute-force path produced the answer
    /// (no tier built, or the tier fell back).
    pub exact_fallback: bool,
    /// Coarse cells in the tier (0 without a tier).
    pub nlist: usize,
    /// Configured probe budget (0 without a tier).
    pub nprobe: usize,
    /// Cells actually probed for this query.
    pub cells_probed: usize,
    /// Candidates scanned in the first pass (ADC codes or f32 rows for
    /// the tier; every stored vector for an exact scan).
    pub candidates: usize,
    /// Candidates re-scored exactly from store rows (quantized tier
    /// only; 0 when the first pass was already exact).
    pub rerank: usize,
    /// Whether the first pass ran over i8 codes (ADC).
    pub quantized: bool,
    /// Neighbours requested.
    pub k: usize,
    /// Neighbours returned.
    pub results: usize,
}

impl QueryExplain {
    /// Explain record for a query answered by the exact sharded scan.
    pub fn exact_scan(candidates: usize, k: usize, results: usize) -> Self {
        Self {
            exact_fallback: true,
            candidates,
            k,
            results,
            ..Self::default()
        }
    }
}

/// An incrementally maintained IVF(+i8) tier over the serving store
/// (see module docs).
#[derive(Debug)]
pub struct AnnTier {
    ivf: Ivf,
    /// Queries scan under the read lock; upserts are short writes.
    cells: RwLock<IvfCells>,
}

impl AnnTier {
    fn over(ivf: Ivf) -> Self {
        Self {
            cells: RwLock::new(ivf.empty_cells()),
            ivf,
        }
    }

    /// Trains a tier (coarse k-means + quantizer ranges) on `training`.
    /// The result holds empty cells — entries arrive via
    /// [`AnnTier::upsert`].
    ///
    /// # Panics
    /// Panics if `training` is empty or disagrees with `dim`, or if
    /// `config.nlist` is zero.
    pub fn fit(training: &[Vec<f32>], config: AnnConfig, dim: usize) -> Self {
        let ivf_config = IvfConfig {
            nlist: config.nlist,
            nprobe: config.nprobe,
            rerank: config.rerank,
            quantize: config.quantize,
            kmeans_iters: config.kmeans_iters,
        };
        let ivf = Ivf::train(training, ivf_config, &mut det_rng(config.train_seed));
        // Unreachable from the store: `EmbeddingStore::build_ann` trains
        // on a sample of its own entries, every one of which `insert`
        // checked against the store's `dim`, and passes that `dim` here.
        assert_eq!(ivf.dim(), dim, "training dimension mismatch");
        Self::over(ivf)
    }

    /// Rebuilds a tier from its persisted state (empty cells — the
    /// caller re-indexes store contents). `None` when the state holds
    /// no centroids, or a centroid or the quantizer is not `dim`-wide.
    pub fn from_state(state: &AnnState, dim: usize) -> Option<Self> {
        let fits = !state.centroids.is_empty()
            && state.centroids.iter().all(|c| c.len() == dim)
            && state.quantizer.as_ref().is_none_or(|q| q.dim() == dim);
        fits.then(|| Self::over(state.clone()))
    }

    /// The persisted form of this tier.
    pub fn state(&self) -> AnnState {
        self.ivf.clone()
    }

    /// Bytes scanned per candidate during the first pass.
    pub fn scan_bytes_per_vector(&self) -> usize {
        self.ivf.scan_bytes_per_vector()
    }

    fn read(&self) -> std::sync::RwLockReadGuard<'_, IvfCells> {
        self.cells.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts `id`, or moves it to the cell its new vector belongs to.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn upsert(&self, id: u64, vec: &[f32]) {
        let cell = self.ivf.assign(vec);
        let mut cells = self.cells.write().unwrap_or_else(|e| e.into_inner());
        self.ivf.upsert(&mut cells, id, cell, vec);
    }

    /// Bulk [`AnnTier::upsert`] (build and restore): all cells assigned
    /// in parallel first, then every posting list filled under one
    /// write-lock acquisition — see [`Ivf::upsert_all`].
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn upsert_all(&self, entries: &[(u64, &[f32])]) {
        let write = || self.cells.write().unwrap_or_else(|e| e.into_inner());
        self.ivf.upsert_all(write, entries);
    }

    /// The `k` nearest indexed ids to `query`, closest first as
    /// `(id, distance)`, plus the per-query [`QueryExplain`] record
    /// (cells probed, candidates scanned, re-rank depth). `with_row`
    /// scores an id's exact f32 row in place (the store's `map_row`)
    /// for the re-rank pass; an id it cannot resolve is skipped (cannot
    /// happen under the store-first insert ordering).
    ///
    /// # Panics
    /// Panics on a query dimension mismatch.
    pub fn knn_explained(
        &self,
        with_row: impl Fn(u64, &dyn Fn(&[f32]) -> f32) -> Option<f32>,
        query: &[f32],
        k: usize,
    ) -> (Vec<(u64, f32)>, QueryExplain) {
        let _span = obs::span!(target: "serve.ann", "ann_knn"; k = k);
        let (out, stats) = self.ivf.knn(|| self.read(), with_row, query, k);
        let explain = QueryExplain {
            ann: true,
            exact_fallback: false,
            nlist: self.ivf.nlist(),
            nprobe: self.ivf.nprobe,
            cells_probed: stats.cells_probed,
            candidates: stats.candidates,
            rerank: stats.rerank,
            quantized: self.ivf.quantizer.is_some(),
            k,
            results: out.len(),
        };
        (out, explain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The adapter's own contract: a tier rebuilt from its persisted
    /// state and re-fed the same entries answers with the same bytes.
    /// (The IVF algorithms are unit-tested where they live, in
    /// `t2vec_core::ann`.)
    #[test]
    fn state_roundtrip_rebuilds_identical_tier() {
        use rand::RngExt;
        let mut rng = det_rng(60);
        let vectors: Vec<Vec<f32>> = (0..121)
            .map(|_| (0..8).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        let (q, vectors) = vectors.split_last().unwrap();
        let fetch =
            |id: u64, score: &dyn Fn(&[f32]) -> f32| vectors.get(id as usize).map(|v| score(v));
        let tier = AnnTier::fit(vectors, AnnConfig::exact(8), 8);
        let rebuilt = AnnTier::from_state(&tier.state(), 8).expect("state fits");
        assert!(AnnTier::from_state(&tier.state(), 9).is_none());
        for (i, v) in vectors.iter().enumerate() {
            tier.upsert(i as u64, v);
            rebuilt.upsert(i as u64, v);
        }
        assert_eq!(rebuilt.state(), tier.state());
        let (a, ea) = tier.knn_explained(fetch, q, 5);
        let (b, eb) = rebuilt.knn_explained(fetch, q, 5);
        assert_eq!(ea, eb);
        assert_eq!(
            a.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>(),
            b.iter().map(|&(i, d)| (i, d.to_bits())).collect::<Vec<_>>(),
        );
    }
}
