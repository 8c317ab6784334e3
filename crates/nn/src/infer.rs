//! Batched inference engine: length-bucketed, layer-major encoding with
//! fused, zero-allocation GRU steps.
//!
//! Serving trajectory embeddings means running the §IV-D encoder over
//! large corpora (index builds) and query streams. The training-oriented
//! paths step one trajectory at a time through `1×hidden` matmuls and
//! allocate fresh buffers every timestep; this module replaces that for
//! inference with:
//!
//! * **a first layer served from a table** — layer 1's input is always
//!   an embedding row, so its input projection `x·Wx + b` takes one value
//!   per token: each direction projects the whole embedding once into a
//!   `vocab × 3H` table ([`InputTables`], cached beside the weights it
//!   derives from), and a token's layer-1 projection is a row copy, not a
//!   GEMM. The engine holds neither the embedding nor layer 1's `Wx`/`b`;
//! * **prepacked weights** — every other projection is borrowed as the
//!   dense matrix the in-place kernels stream through contiguously;
//! * **length bucketing** — trajectories are sorted by length
//!   (descending) and stepped as whole `batch×hidden` matrices; as short
//!   sequences finish, the active rows form a shrinking prefix
//!   (pack-padded-sequence style), so no step wastes work on padding;
//! * **layer-major chunks** — the input projection of layers 2 and up
//!   needs no state either, so it is hoisted out of the time loop: per
//!   chunk of timesteps each such layer runs one GEMM over every active
//!   row of every step, then only `h·Wh` and the gate loop per step,
//!   writing its states over its input as the next layer's input. A lone
//!   query (one chunk) streams each of those `Wx` once instead of once
//!   per timestep;
//! * **both directions at once** — the forward and backward stacks
//!   share nothing, so one bucket runs them through [`parallel::join`];
//! * **a [`Workspace`] arena per direction** — chunk buffers and states
//!   are recycled, so the per-timestep loop performs no heap allocation
//!   after warmup (asserted by the allocation-guard test).
//!
//! Everything here is **bitwise identical** to stepping one trajectory
//! one token at a time (`Seq2Seq::encode_states_raw`, whose packed step
//! `gru.rs`'s proptests pin to the unfused reference): a row's bytes do
//! not depend on which rows share its GEMM — a table row is the bytes
//! the token's embedding row gets projected alone — and every other
//! kernel involved is row-independent, so neither batching rows nor
//! batching timesteps can change any element. The GOLDEN regression gate
//! and the exact engine-vs-per-token-loop tests rely on this.

use crate::embedding::Embedding;
use crate::gru::{recur_into, GruStack, PackedGruCell};
use std::borrow::Cow;
use std::sync::OnceLock;
use t2vec_obs as obs;
use t2vec_spatial::vocab::Token;
use t2vec_tensor::{parallel, Matrix, Workspace};

/// Maximum trajectories per bucket. Matches the training batch size and
/// keeps the per-bucket state footprint (`rows × hidden × layers`)
/// L2-resident at the paper's hidden size.
pub const MAX_BUCKET_ROWS: usize = 64;

/// Most rows — active rows summed over its timesteps — one layer-major
/// chunk holds. The chunk buffers (`rows × hidden` layer input/output
/// and `rows × 3·hidden` projections) are what the hoisted GEMM costs in
/// memory: at the paper shape 256 rows keep a direction's
/// scratch under 1 MB and L2-resident, where a whole 64-row bucket
/// un-chunked would need 8 MB. A lone query (≈ 40 tokens) fits in one
/// chunk; a full bucket takes four timesteps per chunk, enough for the
/// row-quad kernel to amortise every weight fetch. A constant, not a
/// setting: output bytes do not depend on it.
pub const CHUNK_ROWS: usize = 256;

/// The scratch one encode worker owns: a [`Workspace`] arena per
/// direction, so the two directions of a bucket can run concurrently
/// without sharing a free list.
#[derive(Debug, Default)]
pub struct EncodeScratch {
    fwd: Workspace,
    bwd: Workspace,
}

impl EncodeScratch {
    /// Two empty arenas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Peak scratch bytes held, both directions together.
    pub fn high_water_bytes(&self) -> usize {
        self.fwd.high_water_bytes() + self.bwd.high_water_bytes()
    }
}

/// Layer 1's input projection `E[t]·Wx + b` of every token `t`: one
/// `vocab × 3H` table per encoder direction, forward first.
///
/// A cache of the weights it sits beside (`Seq2Seq`, the vRNN
/// baseline): the first [`PackedEncoder::new`] over them builds it —
/// one GEMM over the embedding per direction, about the cost of one
/// lone encode — and every later encode borrows it, until its owner
/// calls [`InputTables::reset`] wherever those weights change. Never
/// serialised (`#[serde(skip)]` on its owners), so model files and
/// checkpoints are unaffected. Row `t` holds the bytes
/// [`PackedGruCell::project_into`] gives `E[t]` alone: a GEMM row's
/// bytes do not depend on the rows beside it.
#[derive(Debug, Clone, Default)]
pub struct InputTables(OnceLock<Vec<Matrix>>);

impl InputTables {
    /// Empties the cache, so the next [`PackedEncoder::new`] rebuilds it
    /// from the weights as they are then.
    pub fn reset(&mut self) {
        self.0.take();
    }

    /// The tables, one per direction, if built.
    pub fn built(&self) -> Option<&[Matrix]> {
        self.0.get().map(Vec::as_slice)
    }
}

/// Projects every embedding row through `stack`'s first layer.
fn first_layer_table(embedding: &Embedding, stack: &GruStack) -> Matrix {
    let cell = PackedGruCell::pack(&stack.cells()[0]);
    let mut table = Matrix::zeros(embedding.vocab(), 3 * cell.hidden());
    cell.project_into(embedding.table.value.as_slice(), table.as_mut_slice());
    table
}

/// One direction's stack, packed for the engine: layer 1 as its table
/// and its recurrent weights, the layers above it whole.
struct PackedDirection<'m> {
    /// Layer 1's projection of every token (`vocab × 3H`).
    table: Cow<'m, Matrix>,
    /// Layer 1's recurrent weights `Wh` (`H × 3H`).
    wh: Cow<'m, Matrix>,
    /// Layers 2 and up.
    upper: Vec<PackedGruCell<'m>>,
}

impl<'m> PackedDirection<'m> {
    /// Borrows `stack`'s weights above its first input projection, and
    /// `table` in its place.
    fn pack(stack: &'m GruStack, table: &'m Matrix) -> Self {
        let (first, upper) = stack.cells().split_first().expect("GRU stack has a layer");
        assert_eq!(table.cols(), 3 * first.hidden(), "input table width");
        Self {
            table: Cow::Borrowed(table),
            wh: Cow::Borrowed(&first.wh.value),
            upper: upper.iter().map(PackedGruCell::pack).collect(),
        }
    }

    fn into_owned(self) -> PackedDirection<'static> {
        PackedDirection {
            table: Cow::Owned(self.table.into_owned()),
            wh: Cow::Owned(self.wh.into_owned()),
            upper: self
                .upper
                .into_iter()
                .map(PackedGruCell::into_owned)
                .collect(),
        }
    }

    fn hidden(&self) -> usize {
        self.wh.rows()
    }

    /// Layer `l`'s recurrent weights.
    fn wh(&self, l: usize) -> &Matrix {
        match l {
            0 => &self.wh,
            _ => self.upper[l - 1].wh(),
        }
    }

    /// Runs this direction over the bucket, layer-major in chunks of at
    /// most [`CHUNK_ROWS`] rows, and returns the `(layers · bucket) ×
    /// hidden` matrix of parked states (taken from `ws`; the caller
    /// recycles it): block `l` holds, for every row, layer `l`'s state
    /// after the row's last token — zero for an empty sequence — so the
    /// last block is the representations.
    ///
    /// At step `t` the active rows are exactly those with `len > t` — a
    /// prefix, thanks to the descending sort. A chunk lays the active
    /// rows of its steps out back to back (`steps[s]` rows for step
    /// `t0 + s`). Layer 1's projections of all of them are rows copied
    /// from the table; every layer above projects them in one GEMM from
    /// the states below. Each layer then walks the steps, each step's
    /// states starting from the previous step's rows for the same
    /// sequences and overwriting the layer's input in place. A row's
    /// state is parked the moment it leaves the prefix; states that
    /// continue into the next chunk are parked at the chunk's last step
    /// and picked up from there. The backward direction reads each
    /// sequence from its own end (`s[len−1−t]`), so short sequences
    /// still consume their full reversed token order.
    ///
    /// # Panics
    /// Panics on a token outside the table's vocabulary.
    fn run(&self, seqs: &[&[Token]], idxs: &[usize], reverse: bool, ws: &mut Workspace) -> Matrix {
        let layers = 1 + self.upper.len();
        let hidden = self.hidden();
        let h3 = 3 * hidden;
        let bucket = idxs.len();
        let len_of = |pos: usize| seqs[idxs[pos]].len();
        let total_rows: usize = (0..bucket).map(len_of).sum();
        let cap = CHUNK_ROWS.max(bucket).min(total_rows);
        // Parked states double as h₀, so they must start zeroed; every
        // other buffer is fully overwritten before it is read.
        let mut parked = ws.take(layers * bucket, hidden);
        let mut seq = ws.take_scratch(cap, hidden);
        let mut gx = ws.take_scratch(cap, h3);
        let mut gh = ws.take_scratch(bucket, h3);
        let (seq_buf, gx_buf, gh_buf) = (seq.as_mut_slice(), gx.as_mut_slice(), gh.as_mut_slice());

        let mut steps = [0usize; CHUNK_ROWS];
        let mut active = bucket;
        while active > 0 && len_of(active - 1) == 0 {
            active -= 1;
        }
        let mut t0 = 0;
        while active > 0 {
            // Plan the chunk: whole timesteps while they fit.
            let (mut n, mut rows) = (0, 0);
            while active > 0 && n < CHUNK_ROWS && rows + active <= cap {
                steps[n] = active;
                n += 1;
                rows += active;
                while active > 0 && len_of(active - 1) <= t0 + n {
                    active -= 1;
                }
            }
            let steps = &steps[..n];

            let mut off = 0;
            for (s, &act) in steps.iter().enumerate() {
                for pos in 0..act {
                    let sq = seqs[idxs[pos]];
                    let t = t0 + s;
                    let tok = if reverse { sq[sq.len() - 1 - t] } else { sq[t] };
                    gx_buf[(off + pos) * h3..][..h3].copy_from_slice(self.table.row(tok.idx()));
                }
                off += act;
            }

            for l in 0..layers {
                if l > 0 {
                    self.upper[l - 1]
                        .project_into(&seq_buf[..rows * hidden], &mut gx_buf[..rows * h3]);
                }
                let parked = &mut parked.as_mut_slice()[l * bucket * hidden..][..bucket * hidden];
                let mut off = 0;
                for (s, &act) in steps.iter().enumerate() {
                    let h = off * hidden..(off + act) * hidden;
                    if s == 0 {
                        seq_buf[h.clone()].copy_from_slice(&parked[..act * hidden]);
                    } else {
                        let prev = (off - steps[s - 1]) * hidden;
                        seq_buf.copy_within(prev..prev + act * hidden, h.start);
                    }
                    recur_into(
                        self.wh(l),
                        &mut gx_buf[3 * h.start..3 * h.end],
                        &mut seq_buf[h.clone()],
                        &mut gh_buf[..act * h3],
                    );
                    let staying = steps.get(s + 1).copied().unwrap_or(0);
                    parked[staying * hidden..act * hidden]
                        .copy_from_slice(&seq_buf[h.start + staying * hidden..h.end]);
                    off += act;
                }
            }
            t0 += n;
        }
        ws.recycle(seq);
        ws.recycle(gx);
        ws.recycle(gh);
        parked
    }
}

/// Immutable, prepacked encoder weights shared by every worker during a
/// bulk encode: per direction, the first-layer table of an
/// [`InputTables`] cache and the GRU weights above that projection.
/// Never serialised, so checkpoints are unaffected.
///
/// Every weight is a [`Cow`]: borrowed in the common bulk-encode case
/// (zero copies), owned after [`PackedEncoder::into_owned`] so
/// long-running services can detach an engine handle from the model's
/// lifetime and move it into worker threads.
pub struct PackedEncoder<'m> {
    fwd: PackedDirection<'m>,
    bwd: Option<PackedDirection<'m>>,
}

impl<'m> PackedEncoder<'m> {
    /// Packs the (possibly bidirectional) encoder for batched inference.
    /// `tables` is the first-layer cache of these weights: built here
    /// from `embedding` when empty, borrowed as it is otherwise — so it
    /// must belong to `fwd` and `bwd`, reset whenever they or the
    /// embedding change.
    ///
    /// # Panics
    /// Panics if a filled `tables` does not have one table per direction
    /// of the right width.
    pub fn new(
        embedding: &Embedding,
        fwd: &'m GruStack,
        bwd: Option<&'m GruStack>,
        tables: &'m InputTables,
    ) -> Self {
        let built = tables.0.get_or_init(|| {
            std::iter::once(fwd)
                .chain(bwd)
                .map(|stack| first_layer_table(embedding, stack))
                .collect()
        });
        assert_eq!(built.len(), 1 + usize::from(bwd.is_some()), "input tables");
        Self {
            fwd: PackedDirection::pack(fwd, &built[0]),
            bwd: bwd.map(|stack| PackedDirection::pack(stack, &built[1])),
        }
    }

    /// Detaches the encoder from the source model by cloning the
    /// first-layer tables and the GRU weights above them — the one copy
    /// a service makes. The bytes are identical, so encode results are
    /// unchanged.
    pub fn into_owned(self) -> PackedEncoder<'static> {
        PackedEncoder {
            fwd: self.fwd.into_owned(),
            bwd: self.bwd.map(PackedDirection::into_owned),
        }
    }

    /// Representation width: top-layer hidden state(s), both directions
    /// concatenated when bidirectional.
    pub fn repr_dim(&self) -> usize {
        self.fwd.hidden() + self.bwd.as_ref().map_or(0, PackedDirection::hidden)
    }

    /// [`EncodeEngine::encode_batch`] over these weights with the
    /// caller's scratch, wrapped in an engine-side trace span. Several
    /// callers can share one `PackedEncoder`, each with a scratch of its
    /// own (the admission batcher's engines). `member_traces` are the
    /// trace ids of the requests sharing this batch (one per pending
    /// request, 0 = untraced); they are joined into the span's `members`
    /// field so a trace analyzer can link the engine pass — its own
    /// root span, whichever thread runs it — back to every request trace
    /// it served. Bitwise identical output to
    /// [`EncodeEngine::encode_batch`]: the ids flow only into the event
    /// stream.
    pub fn encode_batch_traced(
        &self,
        seqs: &[&[Token]],
        member_traces: &[u64],
        scratch: &mut EncodeScratch,
    ) -> Vec<Vec<f32>> {
        let _span = if obs::enabled("nn.engine", obs::Level::Debug) {
            let members = member_traces
                .iter()
                .filter(|&&t| t != 0)
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",");
            obs::span_root!(target: "nn.engine", "encode_batch";
                rows = seqs.len(),
                members = members,
            )
        } else {
            obs::span_root!(target: "nn.engine", "encode_batch")
        };
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
        let mut out = vec![Vec::new(); seqs.len()];
        for bucket in order.chunks(MAX_BUCKET_ROWS) {
            let reprs = self.encode_bucket(seqs, bucket, scratch);
            for (&i, r) in bucket.iter().zip(reprs) {
                out[i] = r;
            }
        }
        obs::gauge!("nn.encode.arena_high_water_bytes").set(scratch.high_water_bytes() as f64);
        out
    }

    /// Encodes one bucket of trajectories, returning representations
    /// aligned with `idxs` (indices into `seqs`, sorted by length
    /// descending so the active rows always form a prefix). A
    /// bidirectional encoder runs its two stacks through
    /// [`parallel::join`]: concurrently for a lone bucket, one after the
    /// other inside the bucket fan-out of `encode_tokens_batch` or with
    /// one worker thread.
    ///
    /// # Panics
    /// Debug-asserts the descending length order.
    pub fn encode_bucket(
        &self,
        seqs: &[&[Token]],
        idxs: &[usize],
        scratch: &mut EncodeScratch,
    ) -> Vec<Vec<f32>> {
        debug_assert!(
            idxs.windows(2)
                .all(|w| seqs[w[0]].len() >= seqs[w[1]].len()),
            "bucket must be sorted by length descending"
        );
        if idxs.is_empty() {
            return Vec::new();
        }
        obs::counter!("nn.encode.buckets").incr();
        obs::histogram!("nn.encode.bucket_rows").record(idxs.len() as u64);
        let EncodeScratch {
            fwd: ws_f,
            bwd: ws_b,
        } = scratch;
        let (parked_f, parked_b) = match &self.bwd {
            None => (self.fwd.run(seqs, idxs, false, ws_f), None),
            Some(bwd) => {
                let (f, b) = parallel::join(
                    || self.fwd.run(seqs, idxs, false, ws_f),
                    || bwd.run(seqs, idxs, true, ws_b),
                );
                (f, Some(b))
            }
        };
        // A direction's representations are the top layer's block of
        // its parked states: the last `bucket` rows.
        let top = |parked: &Matrix, pos: usize| parked.rows() - idxs.len() + pos;
        let out = (0..idxs.len())
            .map(|pos| {
                let mut v = Vec::with_capacity(self.repr_dim());
                v.extend_from_slice(parked_f.row(top(&parked_f, pos)));
                if let Some(b) = &parked_b {
                    v.extend_from_slice(b.row(top(b, pos)));
                }
                v
            })
            .collect();
        ws_f.recycle(parked_f);
        if let Some(b) = parked_b {
            ws_b.recycle(b);
        }
        out
    }
}

/// A [`PackedEncoder`] plus an owned [`EncodeScratch`]: the handle for
/// a caller that encodes bucket after bucket on one thread (benchmarks,
/// tests, the vRNN baseline). `Seq2Seq::encode_tokens_batch` instead
/// shares one `PackedEncoder` across workers with a scratch per bucket,
/// and the admission batcher shares one across its engines.
pub struct EncodeEngine<'m> {
    packed: PackedEncoder<'m>,
    scratch: EncodeScratch,
}

impl<'m> EncodeEngine<'m> {
    /// Wraps prepacked weights with fresh scratch.
    pub fn new(packed: PackedEncoder<'m>) -> Self {
        Self {
            packed,
            scratch: EncodeScratch::new(),
        }
    }

    /// Representation width produced per trajectory.
    pub fn repr_dim(&self) -> usize {
        self.packed.repr_dim()
    }

    /// Encodes arbitrary-length trajectories: sorts by length
    /// (descending, stable so equal lengths keep input order), buckets
    /// into [`MAX_BUCKET_ROWS`]-row groups, and returns representations
    /// in the *input* order. Empty sequences encode to zero vectors.
    pub fn encode_batch(&mut self, seqs: &[&[Token]]) -> Vec<Vec<f32>> {
        self.packed
            .encode_batch_traced(seqs, &[], &mut self.scratch)
    }

    /// Peak scratch bytes the engine has held, both directions together.
    pub fn arena_high_water_bytes(&self) -> usize {
        self.scratch.high_water_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_tensor::rng::det_rng;

    /// Table row `t` is the bytes [`PackedGruCell::project_into`] gives
    /// token `t`'s embedding row alone, in both directions. At the paper
    /// shape per direction (embed 256, hidden 128) with an odd
    /// vocabulary, so the table's GEMM runs full row blocks and a tail.
    #[test]
    fn input_table_rows_are_bitwise_the_projection_alone() {
        let (vocab, embed, hidden) = (67, 256, 128);
        let mut rng = det_rng(7);
        let emb = Embedding::new("emb", vocab, embed, &mut rng);
        let fwd = GruStack::new("f", embed, hidden, 2, &mut rng);
        let bwd = GruStack::new("b", embed, hidden, 2, &mut rng);
        let tables = InputTables::default();
        let _packed = PackedEncoder::new(&emb, &fwd, Some(&bwd), &tables);
        let built = tables.built().expect("the first pack builds the tables");
        assert_eq!(built.len(), 2, "one table per direction");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut alone = vec![f32::NAN; 3 * hidden];
        for (stack, table) in [&fwd, &bwd].into_iter().zip(built) {
            assert_eq!(table.shape(), (vocab, 3 * hidden));
            let cell = PackedGruCell::pack(&stack.cells()[0]);
            for t in 0..vocab {
                cell.project_into(emb.vector(Token(t as u32)), &mut alone);
                assert_eq!(bits(table.row(t)), bits(&alone), "token {t}");
            }
        }
    }
}
