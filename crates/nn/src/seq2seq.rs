//! The sequence encoder–decoder of Figure 2.
//!
//! The encoder reads the (tokenised) trajectory `Ta` and squashes it into
//! the representation `v` — the final hidden state of the top GRU layer.
//! The decoder starts from the encoder's final states and is trained to
//! reconstruct the higher-sampling-rate counterpart `Tb` (teacher-forced),
//! maximising `P(Tb | Ta)` (Eq. 2). At inference time only the encoder
//! runs: `O(n)` to embed a trajectory, after which similarity is the
//! Euclidean distance between vectors (§IV-D).

use crate::batch::Batch;
use crate::embedding::Embedding;
use crate::fused::{FusedView, TrainArena};
use crate::gru::{GruStack, PackedGruStack};
use crate::infer::{EncodeEngine, EncodeScratch, InputTables, PackedEncoder, MAX_BUCKET_ROWS};
use crate::loss::LossKind;
use crate::param::{GradSet, Param};
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2vec_obs as obs;
use t2vec_spatial::vocab::{NeighborTable, Token};
use t2vec_tensor::{init, parallel, Matrix, Workspace};
#[cfg(test)]
use {
    crate::gru::BoundGruStack,
    crate::loss::step_loss,
    t2vec_tape::{Tape, Var},
};

/// Architecture hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seq2SeqConfig {
    /// Vocabulary size (hot cells + specials).
    pub vocab: usize,
    /// Token embedding dimension (paper: 256, equal to the hidden size).
    pub embed_dim: usize,
    /// GRU hidden size — this is also `|v|`, the representation
    /// dimension (paper default 256; Table IX sweeps 64–512).
    pub hidden: usize,
    /// Number of stacked GRU layers (paper: 3).
    pub layers: usize,
    /// Bidirectional encoder (the authors' released implementation runs
    /// the encoder in both directions with per-direction hidden size
    /// `hidden / 2` and concatenates the final states, so `|v|` stays
    /// `hidden`). The decoder is always unidirectional.
    #[serde(default)]
    pub bidirectional: bool,
}

impl Seq2SeqConfig {
    /// Sanity-checks the configuration.
    ///
    /// # Panics
    /// Panics on zero-sized dimensions, or an odd hidden size with a
    /// bidirectional encoder.
    pub fn validate(&self) {
        assert!(
            self.vocab > Token::NUM_SPECIALS as usize,
            "vocabulary has no hot cells"
        );
        assert!(self.embed_dim > 0 && self.hidden > 0 && self.layers > 0);
        if self.bidirectional {
            assert!(
                self.hidden.is_multiple_of(2),
                "bidirectional encoder needs an even hidden size"
            );
        }
    }

    /// Per-direction encoder hidden size.
    pub fn dir_hidden(&self) -> usize {
        if self.bidirectional {
            self.hidden / 2
        } else {
            self.hidden
        }
    }
}

/// The encoder–decoder model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2Seq {
    config: Seq2SeqConfig,
    embedding: Embedding,
    encoder: GruStack,
    /// Backward-direction encoder (present iff
    /// [`Seq2SeqConfig::bidirectional`]).
    #[serde(default)]
    encoder_bwd: Option<GruStack>,
    decoder: GruStack,
    /// Output projection `(vocab × hidden)`; logits are `h · Wᵀ` and the
    /// sampled loss gathers its rows (no bias, per Eq. 5).
    w_out: Param,
    /// The encoder's first-layer tables, derived from `embedding` and
    /// the encoders' first layers; emptied by [`Seq2Seq::params_mut`].
    #[serde(skip)]
    input_tables: InputTables,
}

/// Tape bindings of the whole model: the gradient oracle the fused
/// backward is tested against (training and validation run
/// [`crate::fused`]).
#[cfg(test)]
pub(crate) struct BoundSeq2Seq<'m, 't> {
    emb: Var<'t>,
    encoder: BoundGruStack<'t>,
    encoder_bwd: Option<BoundGruStack<'t>>,
    decoder: BoundGruStack<'t>,
    w_out: Var<'t>,
    model: &'m Seq2Seq,
}

impl Seq2Seq {
    /// A model with randomly initialised embeddings.
    pub fn new(config: Seq2SeqConfig, rng: &mut impl Rng) -> Self {
        config.validate();
        let embedding = Embedding::new("emb", config.vocab, config.embed_dim, rng);
        Self::with_embedding(config, embedding, rng)
    }

    /// A model whose embedding table is initialised from pre-trained cell
    /// vectors (Algorithm 1); the table remains trainable.
    ///
    /// # Panics
    /// Panics if the table shape disagrees with the config.
    pub fn with_pretrained_embedding(
        config: Seq2SeqConfig,
        table: Matrix,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(
            table.shape(),
            (config.vocab, config.embed_dim),
            "pretrained table shape"
        );
        let embedding = Embedding::from_pretrained("emb", table);
        Self::with_embedding(config, embedding, rng)
    }

    fn with_embedding(config: Seq2SeqConfig, embedding: Embedding, rng: &mut impl Rng) -> Self {
        config.validate();
        let dh = config.dir_hidden();
        let encoder = GruStack::new("enc.fwd", config.embed_dim, dh, config.layers, rng);
        let encoder_bwd = config
            .bidirectional
            .then(|| GruStack::new("enc.bwd", config.embed_dim, dh, config.layers, rng));
        let decoder = GruStack::new("dec", config.embed_dim, config.hidden, config.layers, rng);
        let w_out = Param::new(
            "w_out",
            init::xavier_uniform(config.vocab, config.hidden, rng),
        );
        Self {
            config,
            embedding,
            encoder,
            encoder_bwd,
            decoder,
            w_out,
            input_tables: InputTables::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &Seq2SeqConfig {
        &self.config
    }

    /// Representation dimension `|v|`.
    pub fn repr_dim(&self) -> usize {
        self.config.hidden
    }

    /// Total number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }

    /// Immutable parameter references: the embedding, the forward
    /// encoder's, the backward encoder's (if any) and the decoder's cells,
    /// then the output projection — the order of a [`GradSet`]'s slots.
    pub fn params(&self) -> Vec<&Param> {
        let mut v = vec![&self.embedding.table];
        v.extend(self.encoder.params());
        if let Some(bwd) = &self.encoder_bwd {
            v.extend(bwd.params());
        }
        v.extend(self.decoder.params());
        v.push(&self.w_out);
        v
    }

    /// Mutable parameter references, in [`Seq2Seq::params`] order.
    /// Empties the encoder's first-layer table cache, which the next
    /// encode rebuilds from the weights as they are then.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.input_tables.reset();
        let mut v = vec![&mut self.embedding.table];
        v.extend(self.encoder.params_mut());
        if let Some(bwd) = &mut self.encoder_bwd {
            v.extend(bwd.params_mut());
        }
        v.extend(self.decoder.params_mut());
        v.push(&mut self.w_out);
        v
    }

    /// Binds all parameters on `tape` (the test oracle).
    #[cfg(test)]
    pub(crate) fn bind<'m, 't>(&'m self, tape: &'t Tape) -> BoundSeq2Seq<'m, 't> {
        BoundSeq2Seq {
            emb: self.embedding.bind(tape),
            encoder: self.encoder.bind(tape),
            encoder_bwd: self.encoder_bwd.as_ref().map(|b| b.bind(tape)),
            decoder: self.decoder.bind(tape),
            w_out: self.w_out.bind(tape),
            model: self,
        }
    }

    /// Runs the (possibly bidirectional) encoder over one token sequence,
    /// one [`PackedGruStack::step_into`] per token, returning per-layer
    /// states of width `hidden`. The decoders start from all of them; the
    /// top one is by definition the representation, which makes this
    /// per-token loop the reference the layer-major engine behind
    /// [`Seq2Seq::encode_tokens`] is tested against bit for bit.
    pub fn encode_states_raw(&self, tokens: &[Token]) -> Vec<Matrix> {
        let mut ws = Workspace::new();
        let fwd = self.step_tokens(&self.encoder, tokens.iter(), &mut ws);
        match &self.encoder_bwd {
            None => fwd,
            Some(bwd_stack) => {
                let bwd = self.step_tokens(bwd_stack, tokens.iter().rev(), &mut ws);
                fwd.iter()
                    .zip(bwd.iter())
                    .map(|(f, b)| f.concat_cols(b))
                    .collect()
            }
        }
    }

    /// One direction of [`Seq2Seq::encode_states_raw`]: `stack`'s
    /// per-layer states after stepping `tokens` one at a time from zero.
    fn step_tokens<'a>(
        &self,
        stack: &GruStack,
        tokens: impl Iterator<Item = &'a Token>,
        ws: &mut Workspace,
    ) -> Vec<Matrix> {
        let packed = PackedGruStack::pack(stack);
        let mut states = stack.zero_state(1);
        for tok in tokens {
            let x = self.embedding.lookup_raw(std::slice::from_ref(tok));
            packed.step_into(&x, &mut states, ws);
        }
        states
    }

    /// Encodes one token sequence into its representation `v` (the final
    /// top-layer hidden state) — the `O(n)` inference path of §IV-D, run
    /// as a one-row bucket of the same engine as
    /// [`Seq2Seq::encode_tokens_batch`]. Returns a zero vector for an
    /// empty sequence.
    pub fn encode_tokens(&self, tokens: &[Token]) -> Vec<f32> {
        self.packed_encoder()
            .encode_bucket(&[tokens], &[0], &mut EncodeScratch::new())
            .pop()
            .expect("one row in, one row out")
    }

    /// Prepacks the encoder weights for batched inference (see
    /// [`crate::infer`]). Borrows the weights and the first-layer tables
    /// cached beside them, so it costs nothing once those are built; the
    /// first call after construction, loading or
    /// [`Seq2Seq::params_mut`] builds them, at about the cost of one lone
    /// encode. Only `into_owned` copies.
    pub fn packed_encoder(&self) -> PackedEncoder<'_> {
        PackedEncoder::new(
            &self.embedding,
            &self.encoder,
            self.encoder_bwd.as_ref(),
            &self.input_tables,
        )
    }

    /// A single-owner inference engine: prepacked weights plus a
    /// reusable scratch workspace.
    pub fn encode_engine(&self) -> EncodeEngine<'_> {
        EncodeEngine::new(self.packed_encoder())
    }

    /// Encodes a batch of token sequences of **any** lengths via the
    /// length-bucketed fused engine (used by the bulk encoder in
    /// `t2vec-core`): sequences are sorted by length descending (stable),
    /// chunked into [`MAX_BUCKET_ROWS`]-row buckets that step as one
    /// matrix with active-prefix shrinking, and buckets fan out across
    /// [`parallel`] workers, which claim them longest first. Results come
    /// back in input order and are bitwise identical to
    /// [`Seq2Seq::encode_tokens`] per sequence.
    pub fn encode_tokens_batch(&self, seqs: &[&[Token]]) -> Vec<Vec<f32>> {
        if seqs.is_empty() {
            return Vec::new();
        }
        let packed = self.packed_encoder();
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(seqs[i].len()));
        let buckets: Vec<&[usize]> = order.chunks(MAX_BUCKET_ROWS).collect();
        let per_bucket = parallel::par_map(&buckets, |_, bucket| {
            let mut scratch = EncodeScratch::new();
            let reprs = packed.encode_bucket(seqs, bucket, &mut scratch);
            (reprs, scratch.high_water_bytes())
        });
        let high_water = per_bucket
            .iter()
            .map(|&(_, bytes)| bytes)
            .max()
            .unwrap_or(0);
        obs::gauge!("nn.encode.arena_high_water_bytes").set(high_water as f64);
        let mut out = vec![Vec::new(); seqs.len()];
        for (bucket, (reprs, _)) in buckets.iter().zip(per_bucket) {
            for (&i, r) in bucket.iter().zip(reprs) {
                out[i] = r;
            }
        }
        out
    }

    /// Beam-search decode: the `beam_width` most likely token sequences
    /// given the input, with their total log-probabilities (highest
    /// first). Generalises [`Seq2Seq::greedy_decode`] (`beam_width = 1`)
    /// and mirrors the top-k most-likely-route inference of Banerjee et
    /// al. \[12\] that the paper discusses. Sequences end at `EOS` or
    /// `max_len`.
    pub fn beam_decode(
        &self,
        tokens: &[Token],
        max_len: usize,
        beam_width: usize,
    ) -> Vec<(Vec<Token>, f32)> {
        assert!(beam_width > 0, "beam width must be positive");
        let decoder = PackedGruStack::pack(&self.decoder);
        let mut ws = Workspace::new();
        let states = self.encode_states_raw(tokens);
        struct Beam {
            states: Vec<Matrix>,
            tokens: Vec<Token>,
            logp: f32,
            done: bool,
        }
        let mut beams = vec![Beam {
            states,
            tokens: Vec::new(),
            logp: 0.0,
            done: false,
        }];
        for _ in 0..max_len {
            if beams.iter().all(|b| b.done) {
                break;
            }
            // One decoder step + ONE projection matmul over all live
            // beams at once: stack the per-layer states row-wise, embed
            // every beam's previous token together, and log-softmax the
            // whole `(live × vocab)` logit block. Every kernel involved
            // is row-independent, so row `li` is bitwise identical to
            // stepping beam `li` alone.
            let live: Vec<usize> = beams
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.done)
                .map(|(i, _)| i)
                .collect();
            let prevs: Vec<Token> = live
                .iter()
                .map(|&i| beams[i].tokens.last().copied().unwrap_or(Token::BOS))
                .collect();
            let x = self.embedding.lookup_raw(&prevs);
            let mut stacked: Vec<Matrix> = (0..self.decoder.num_layers())
                .map(|l| {
                    let rows: Vec<&Matrix> = live.iter().map(|&i| &beams[i].states[l]).collect();
                    Matrix::vstack(&rows)
                })
                .collect();
            decoder.step_into(&x, &mut stacked, &mut ws);
            let h = stacked.last().expect("non-empty stack");
            let mut logits = Matrix::zeros(live.len(), self.w_out.value.rows());
            h.matmul_transpose_into(&self.w_out.value, &mut logits);
            let mut logp = Matrix::zeros(live.len(), self.w_out.value.rows());
            logits.log_softmax_rows_into(&mut logp);
            let mut candidates: Vec<Beam> = Vec::new();
            let mut li = 0;
            for beam in &beams {
                if beam.done {
                    candidates.push(Beam {
                        states: beam.states.clone(),
                        tokens: beam.tokens.clone(),
                        logp: beam.logp,
                        done: true,
                    });
                    continue;
                }
                let new_states: Vec<Matrix> = stacked
                    .iter()
                    .map(|m| Matrix::row_vector(m.row(li)))
                    .collect();
                // Top beam_width expansions of this beam.
                let mut scored: Vec<(usize, f32)> = (0..logp.cols())
                    .filter(|&i| {
                        i != Token::PAD.idx() && i != Token::BOS.idx() && i != Token::UNK.idx()
                    })
                    .map(|i| (i, logp.get(li, i)))
                    .collect();
                scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
                for &(idx, lp) in scored.iter().take(beam_width) {
                    let tok = Token(idx as u32);
                    let mut tokens = beam.tokens.clone();
                    let done = tok == Token::EOS;
                    if !done {
                        tokens.push(tok);
                    }
                    candidates.push(Beam {
                        states: new_states.clone(),
                        tokens,
                        logp: beam.logp + lp,
                        done,
                    });
                }
                li += 1;
            }
            candidates.sort_by(|a, b| {
                b.logp
                    .partial_cmp(&a.logp)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            candidates.truncate(beam_width);
            beams = candidates;
        }
        beams.sort_by(|a, b| {
            b.logp
                .partial_cmp(&a.logp)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        beams.into_iter().map(|b| (b.tokens, b.logp)).collect()
    }

    /// The tape oracle for [`Seq2Seq::compute_grads_fused`]: builds a
    /// private [`Tape`] over this model's (read-only) parameters, runs
    /// the teacher-forced loss, backpropagates, and returns the
    /// gradient matrices in [`Seq2Seq::params`] order. Training never
    /// runs it; the tests here and in `train` diff the fused path
    /// against it (loss bitwise, gradients to a summation-order
    /// tolerance).
    #[cfg(test)]
    pub(crate) fn compute_grads(
        &self,
        batch: &Batch,
        kind: LossKind,
        table: &NeighborTable,
        rng: &mut impl Rng,
    ) -> GradSet {
        let tape = Tape::new();
        let bound = self.bind(&tape);
        let vars = bound.vars();
        let loss = bound.loss(&tape, batch, kind, table, rng);
        let loss_value = loss.value().item();
        let mut grads = tape.backward(loss);
        GradSet {
            loss: loss_value,
            target_tokens: batch.num_target_tokens,
            grads: vars.iter().map(|&v| grads.take(v)).collect(),
        }
    }

    /// The whole model as the fused pass reads it.
    fn fused_view(&self) -> FusedView<'_> {
        FusedView {
            embedding: &self.embedding.table.value,
            encoder: self.encoder.cells(),
            encoder_bwd: self.encoder_bwd.as_ref().map(GruStack::cells),
            decoder: self.decoder.cells(),
            w_out: &self.w_out.value,
        }
    }

    /// Computes the loss and per-parameter gradients of one batch —
    /// the worker half of data-parallel training. A layer-major forward
    /// and hand-derived, tape-free BPTT with all intermediates staged in
    /// `arena`; the [`GradSet`] holds the loss value and every gradient
    /// matrix, in [`Seq2Seq::params`] order. The loss is bitwise the
    /// [`Seq2Seq::batch_loss`] value from the same RNG stream, and the
    /// whole set is bitwise the same at any thread count and on any SIMD
    /// backend. See [`crate::fused`] for the schedule and the argument.
    ///
    /// The caller shards batches across threads with its own per-batch
    /// RNGs, reduces the returned sets in batch order
    /// ([`crate::param::reduce_grad_sets`]), and takes a single
    /// optimiser step ([`crate::param::apply_grad_mats`]).
    pub fn compute_grads_fused(
        &self,
        batch: &Batch,
        kind: LossKind,
        table: &NeighborTable,
        rng: &mut impl Rng,
        arena: &mut TrainArena,
    ) -> GradSet {
        let mut out = GradSet::default();
        self.compute_grads_fused_into(batch, kind, table, rng, arena, &mut out);
        out
    }

    /// [`Seq2Seq::compute_grads_fused`] writing into a caller-owned
    /// [`GradSet`] whose buffers are reused call over call — the
    /// zero-allocation face of the fused path (once the arena has run the
    /// largest batch shape it will see, a step performs no heap
    /// allocation; see `nn/tests/alloc_guard.rs`).
    pub fn compute_grads_fused_into(
        &self,
        batch: &Batch,
        kind: LossKind,
        table: &NeighborTable,
        rng: &mut impl Rng,
        arena: &mut TrainArena,
        out: &mut GradSet,
    ) {
        crate::fused::run(self.fused_view(), batch, kind, Some(table), rng, arena, out);
    }

    /// The teacher-forced mean per-token loss of one batch under `kind`,
    /// forward only: the value [`Seq2Seq::compute_grads_fused`] reports
    /// for the batch, from the same RNG draws in the same order, without
    /// running the backward. Validation uses it.
    pub fn batch_loss(
        &self,
        batch: &Batch,
        kind: LossKind,
        table: &NeighborTable,
        rng: &mut impl Rng,
        arena: &mut TrainArena,
    ) -> f32 {
        crate::fused::forward(self.fused_view(), batch, kind, Some(table), rng, arena)
    }

    /// Greedy decode: reconstructs the most likely token sequence from a
    /// representation (used to inspect what route the model believes a
    /// sparse trajectory took). Stops at `EOS` or `max_len`.
    pub fn greedy_decode(&self, tokens: &[Token], max_len: usize) -> Vec<Token> {
        let decoder = PackedGruStack::pack(&self.decoder);
        let mut ws = Workspace::new();
        let mut dec_states = self.encode_states_raw(tokens);
        let mut logits = Matrix::zeros(1, self.w_out.value.rows());
        let mut out = Vec::new();
        let mut prev = Token::BOS;
        for _ in 0..max_len {
            let x = self.embedding.lookup_raw(&[prev]);
            decoder.step_into(&x, &mut dec_states, &mut ws);
            // logits = h · Wᵀ; argmax over the RAW logits, never
            // PAD/BOS. Softmax is strictly monotone per row, so no
            // normalisation belongs on this path.
            let h = dec_states.last().expect("non-empty stack");
            h.matmul_transpose_into(&self.w_out.value, &mut logits);
            let mut best = Token::EOS;
            let mut best_score = f32::NEG_INFINITY;
            for idx in 0..logits.cols() {
                if idx == Token::PAD.idx() || idx == Token::BOS.idx() || idx == Token::UNK.idx() {
                    continue;
                }
                let s = logits.get(0, idx);
                if s > best_score {
                    best_score = s;
                    best = Token(idx as u32);
                }
            }
            if best == Token::EOS {
                break;
            }
            out.push(best);
            prev = best;
        }
        out
    }
}

#[cfg(test)]
impl<'m, 't> BoundSeq2Seq<'m, 't> {
    /// All bound vars, aligned with [`Seq2Seq::params_mut`].
    pub(crate) fn vars(&self) -> Vec<Var<'t>> {
        let mut v = vec![self.emb];
        v.extend(self.encoder.vars());
        if let Some(bwd) = &self.encoder_bwd {
            v.extend(bwd.vars());
        }
        v.extend(self.decoder.vars());
        v.push(self.w_out);
        v
    }

    /// Runs the (possibly bidirectional) encoder over a time-major batch
    /// and returns the per-layer decoder-init states (width `hidden`).
    fn encode_batch(&self, tape: &'t Tape, src: &[Vec<Token>], batch: usize) -> Vec<Var<'t>> {
        let model = self.model;
        let mut fwd: Vec<Var<'t>> = model
            .encoder
            .zero_state(batch)
            .into_iter()
            .map(|m| tape.leaf(m))
            .collect();
        for step_tokens in src {
            let x = model.embedding.lookup(self.emb, step_tokens);
            fwd = self.encoder.step(x, &fwd);
        }
        match (&self.encoder_bwd, &model.encoder_bwd) {
            (Some(bound_bwd), Some(bwd_stack)) => {
                let mut bwd: Vec<Var<'t>> = bwd_stack
                    .zero_state(batch)
                    .into_iter()
                    .map(|m| tape.leaf(m))
                    .collect();
                for step_tokens in src.iter().rev() {
                    let x = model.embedding.lookup(self.emb, step_tokens);
                    bwd = bound_bwd.step(x, &bwd);
                }
                fwd.iter()
                    .zip(bwd.iter())
                    .map(|(&f, &b)| f.concat_cols(b))
                    .collect()
            }
            _ => fwd,
        }
    }

    /// Teacher-forced training loss on one batch: the *mean* per-token
    /// loss (a `1×1` var) under `kind`.
    pub(crate) fn loss(
        &self,
        tape: &'t Tape,
        batch: &Batch,
        kind: LossKind,
        table: &NeighborTable,
        rng: &mut impl Rng,
    ) -> Var<'t> {
        let model = self.model;
        let mut states = self.encode_batch(tape, &batch.src, batch.batch_size);
        let mut total: Option<Var<'t>> = None;
        for (inputs, targets) in batch.dec_inputs.iter().zip(batch.dec_targets.iter()) {
            let x = model.embedding.lookup(self.emb, inputs);
            states = self.decoder.step(x, &states);
            let h = *states.last().expect("non-empty stack");
            let l = step_loss(kind, h, self.w_out, targets, table, model.config.vocab, rng);
            total = Some(match total {
                Some(t) => t.add(l),
                None => l,
            });
        }
        let total = total.expect("batch has at least one decode step");
        total.scale(1.0 / batch.num_target_tokens.max(1) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::make_batches;
    use crate::param::apply_grads;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::{BBox, Point};
    use t2vec_spatial::vocab::Vocab;
    use t2vec_tensor::opt::Adam;
    use t2vec_tensor::rng::det_rng;

    fn tiny_setup() -> (Vocab, NeighborTable, Seq2Seq) {
        let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
        let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
        let vocab = Vocab::build(grid, pts.iter(), 2);
        let table = NeighborTable::build(&vocab, 4, 100.0);
        let mut rng = det_rng(1);
        let config = Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: 8,
            hidden: 8,
            layers: 2,
            bidirectional: true,
        };
        let model = Seq2Seq::new(config, &mut rng);
        (vocab, table, model)
    }

    fn toy_pairs(vocab: &Vocab) -> Vec<(Vec<Token>, Vec<Token>)> {
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        // Source is every other token of the target ("downsampled").
        let tgt: Vec<Token> = toks[..8].to_vec();
        let src: Vec<Token> = tgt.iter().step_by(2).copied().collect();
        vec![(src, tgt); 6]
    }

    #[test]
    fn encode_produces_hidden_sized_vector() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(5).collect();
        let v = model.encode_tokens(&toks);
        assert_eq!(v.len(), 8);
        assert!(v.iter().any(|&x| x != 0.0));
        // Empty input encodes to the zero vector.
        assert!(model.encode_tokens(&[]).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn encode_is_deterministic_and_order_sensitive() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(6).collect();
        let v1 = model.encode_tokens(&toks);
        let v2 = model.encode_tokens(&toks);
        assert_eq!(v1, v2);
        let mut rev = toks.clone();
        rev.reverse();
        let v3 = model.encode_tokens(&rev);
        assert_ne!(v1, v3, "encoder must be order-sensitive (unlike CMS)");
    }

    /// [`Seq2Seq::encode_states_raw`] through the unfused reference step,
    /// one `GruStack::step_raw` per token.
    fn encode_states_unfused(model: &Seq2Seq, tokens: &[Token]) -> Vec<Matrix> {
        let run = |stack: &GruStack, toks: &mut dyn Iterator<Item = &Token>| {
            let mut states = stack.zero_state(1);
            for tok in toks {
                let x = model.embedding.lookup_raw(std::slice::from_ref(tok));
                stack.step_raw(&x, &mut states);
            }
            states
        };
        let fwd = run(&model.encoder, &mut tokens.iter());
        match &model.encoder_bwd {
            None => fwd,
            Some(bwd) => {
                let bwd = run(bwd, &mut tokens.iter().rev());
                fwd.iter()
                    .zip(&bwd)
                    .map(|(f, b)| f.concat_cols(b))
                    .collect()
            }
        }
    }

    /// The unfused loop's representation: the reference the engine-backed
    /// paths must reproduce bit for bit.
    fn reference(model: &Seq2Seq, tokens: &[Token]) -> Vec<f32> {
        let states = encode_states_unfused(model, tokens);
        states.last().expect("non-empty stack").row(0).to_vec()
    }

    #[test]
    fn engine_encodes_bitwise_match_step_raw_reference() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(6).collect();
        let a = &toks[0..4];
        let b = &toks[2..6];
        let batch = model.encode_tokens_batch(&[a, b]);
        // Both engine-backed paths are bitwise identical to the unfused
        // per-trajectory loop — exact equality, not tolerance.
        for (seq, got) in [a, b].into_iter().zip(&batch) {
            assert_eq!(got, &reference(&model, seq));
            assert_eq!(model.encode_tokens(seq), reference(&model, seq));
            // Every layer of the per-token packed loop the decoders
            // start from, not just the top one.
            assert_eq!(
                model.encode_states_raw(seq),
                encode_states_unfused(&model, seq)
            );
        }
    }

    #[test]
    fn batch_encode_handles_ragged_lengths_bitwise() {
        // Mixed lengths — including empty, length-1 and duplicates —
        // exercise the active-prefix shrinking of the bucketed engine.
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let seqs: Vec<&[Token]> = vec![
            &toks[0..3],
            &toks[0..0], // empty -> zero vector
            &toks[5..6], // length 1
            &toks[2..9],
            &toks[4..7], // duplicate length of seqs[0]
            &toks[10..11],
        ];
        let batch = model.encode_tokens_batch(&seqs);
        for (s, got) in seqs.iter().zip(batch.iter()) {
            assert_eq!(got, &reference(&model, s), "mismatch for len {}", s.len());
        }
    }

    #[test]
    fn encode_engine_matches_batch_path() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let seqs: Vec<&[Token]> = vec![&toks[0..5], &toks[3..4], &toks[1..8]];
        let mut engine = model.encode_engine();
        let via_engine = engine.encode_batch(&seqs);
        assert_eq!(via_engine, model.encode_tokens_batch(&seqs));
        assert!(engine.arena_high_water_bytes() > 0);
    }

    #[test]
    fn loss_is_finite_for_all_kinds() {
        let (vocab, table, model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let mut rng = det_rng(2);
        let batches = make_batches(&pairs, 4, &mut rng);
        for kind in [
            LossKind::Nll,
            LossKind::Spatial,
            LossKind::SpatialNce { noise: 8 },
        ] {
            let tape = Tape::new();
            let bound = model.bind(&tape);
            let loss = bound.loss(&tape, &batches[0], kind, &table, &mut rng);
            let v = loss.value().item();
            assert!(v.is_finite() && v > 0.0, "{kind:?} loss = {v}");
        }
    }

    #[test]
    fn compute_grads_matches_tape_path() {
        // The detached worker path must produce exactly the loss and
        // gradients the classic inline tape path produces for the same
        // batch and RNG stream.
        let (vocab, table, model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let batches = make_batches(&pairs, 4, &mut det_rng(6));
        let kind = LossKind::SpatialNce { noise: 8 };
        let set = model.compute_grads(&batches[0], kind, &table, &mut det_rng(77));
        assert_eq!(set.target_tokens, batches[0].num_target_tokens);

        let tape = Tape::new();
        let bound = model.bind(&tape);
        let vars = bound.vars();
        let loss = bound.loss(&tape, &batches[0], kind, &table, &mut det_rng(77));
        assert_eq!(set.loss, loss.value().item());
        let mut grads = tape.backward(loss);
        assert_eq!(vars.len(), set.grads.len());
        for (&v, g) in vars.iter().zip(set.grads.iter()) {
            assert_eq!(
                grads.take(v),
                *g,
                "detached gradient differs from tape gradient"
            );
        }
    }

    #[test]
    fn batch_loss_bitwise_matches_tape_loss_all_kinds() {
        // Validation runs the fused forward alone: its value must be the
        // tape's to the bit, consume the RNG exactly as the tape's loss
        // does, and equal the loss the full fused step reports.
        use rand::RngExt;
        let (vocab, table, model) = tiny_setup();
        assert!(model.config().bidirectional && model.config().layers == 2);
        let pairs = toy_pairs(&vocab);
        let batches = make_batches(&pairs, 4, &mut det_rng(6));
        let mut arena = TrainArena::new();
        for kind in [
            LossKind::Nll,
            LossKind::Spatial,
            LossKind::SpatialNce { noise: 8 },
        ] {
            for (bi, batch) in batches.iter().enumerate() {
                let (mut tape_rng, mut fused_rng) = (det_rng(77), det_rng(77));
                let tape = Tape::new();
                let tape_loss = model
                    .bind(&tape)
                    .loss(&tape, batch, kind, &table, &mut tape_rng)
                    .value()
                    .item();
                let loss = model.batch_loss(batch, kind, &table, &mut fused_rng, &mut arena);
                let ctx = format!("{kind:?} batch {bi}");
                assert_eq!(loss.to_bits(), tape_loss.to_bits(), "{ctx}");
                let next: (u64, u64) = (tape_rng.random(), fused_rng.random());
                assert_eq!(next.0, next.1, "{ctx}: RNG stream diverged");
                let step =
                    model.compute_grads_fused(batch, kind, &table, &mut det_rng(77), &mut arena);
                assert_eq!(step.loss.to_bits(), loss.to_bits(), "{ctx}: step loss");
            }
        }
    }

    #[test]
    fn fused_loss_bitwise_grads_within_tolerance_of_tape_all_kinds() {
        // Against the tape oracle: the same loss bits, RNG stream and
        // `None` slots, and every gradient element within the
        // summation-order tolerance of `GradSet::assert_matches_oracle`.
        // One arena reused across every kind and batch shape (reuse must
        // not leak state).
        let (vocab, table, model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let batches = make_batches(&pairs, 4, &mut det_rng(6));
        let mut arena = TrainArena::new();
        for kind in [
            LossKind::Nll,
            LossKind::Spatial,
            LossKind::SpatialNce { noise: 8 },
        ] {
            for (bi, batch) in batches.iter().enumerate() {
                let tape_set = model.compute_grads(batch, kind, &table, &mut det_rng(77));
                let fused_set =
                    model.compute_grads_fused(batch, kind, &table, &mut det_rng(77), &mut arena);
                tape_set.assert_matches_oracle(&fused_set, &format!("{kind:?} batch {bi}"));
            }
        }
    }

    #[test]
    fn fused_loss_bitwise_grads_within_tolerance_of_tape_unidirectional() {
        // Unidirectional single-layer model, including an empty-source
        // batch (the decoder then starts from zero states and the
        // encoder parameters must come back `None` on both paths).
        let (vocab, table, _) = tiny_setup();
        let config = Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            bidirectional: false,
        };
        let model = Seq2Seq::new(config, &mut det_rng(3));
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let pairs = vec![
            (toks[..5].to_vec(), toks[..7].to_vec()),
            (Vec::new(), toks[3..6].to_vec()),
            (toks[2..3].to_vec(), toks[2..5].to_vec()),
        ];
        let mut arena = TrainArena::new();
        let mut cases = 0usize;
        for pair in &pairs {
            // `make_batches` drops empty-source pairs, so the zero-step
            // encoder case is built by hand (decoder from zero states).
            let batch = if pair.0.is_empty() {
                let steps = pair.1.len() + 1;
                let dec_inputs: Vec<Vec<Token>> = (0..steps)
                    .map(|s| vec![if s == 0 { Token::BOS } else { pair.1[s - 1] }])
                    .collect();
                let dec_targets: Vec<Vec<Option<Token>>> = (0..steps)
                    .map(|s| {
                        vec![Some(if s < pair.1.len() {
                            pair.1[s]
                        } else {
                            Token::EOS
                        })]
                    })
                    .collect();
                Batch {
                    src: Vec::new(),
                    dec_inputs,
                    dec_targets,
                    batch_size: 1,
                    num_target_tokens: steps,
                }
            } else {
                make_batches(std::slice::from_ref(pair), 4, &mut det_rng(9))
                    .pop()
                    .expect("one batch")
            };
            for kind in [LossKind::Spatial, LossKind::SpatialNce { noise: 4 }] {
                let tape_set = model.compute_grads(&batch, kind, &table, &mut det_rng(41));
                let fused_set =
                    model.compute_grads_fused(&batch, kind, &table, &mut det_rng(41), &mut arena);
                tape_set.assert_matches_oracle(
                    &fused_set,
                    &format!("{kind:?} src_len {}", pair.0.len()),
                );
                cases += 1;
            }
        }
        assert_eq!(cases, 6, "every shape must actually be exercised");
    }

    #[test]
    fn training_reduces_loss() {
        let (vocab, table, mut model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        // L1 has no entropy floor (one-hot targets), so the loss can
        // approach zero; the spatial losses bottom out at the target
        // distribution's entropy instead.
        let adam = Adam::with_lr(5e-3);
        let mut rng = det_rng(3);
        let kind = LossKind::Nll;
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..120 {
            let batches = make_batches(&pairs, 8, &mut rng);
            for batch in &batches {
                let tape = Tape::new();
                let bound = model.bind(&tape);
                let vars = bound.vars();
                let loss = bound.loss(&tape, batch, kind, &table, &mut rng);
                last = loss.value().item();
                first.get_or_insert(last);
                let mut grads = tape.backward(loss);
                let mut params = model.params_mut();
                let mut bindings: Vec<(&mut Param, Var<'_>)> = params
                    .iter_mut()
                    .map(|p| &mut **p)
                    .zip(vars.iter().copied())
                    .collect();
                apply_grads(&mut bindings, &mut grads, &adam, 5.0);
            }
        }
        let first = first.unwrap();
        assert!(
            last < 0.5 * first,
            "loss did not drop enough: {first} -> {last}"
        );
    }

    #[test]
    fn training_moves_representations_of_same_route_closer() {
        // The core claim, in miniature: two disjoint down-samplings of the
        // same token route should embed closer after training than before.
        let (vocab, table, mut model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let route_a: Vec<Token> = toks[..10].to_vec();
        let route_b: Vec<Token> = toks[10..20].to_vec();
        let evens = |r: &[Token]| -> Vec<Token> { r.iter().step_by(2).copied().collect() };
        let odds = |r: &[Token]| -> Vec<Token> { r.iter().skip(1).step_by(2).copied().collect() };
        let mut pairs = Vec::new();
        for r in [&route_a, &route_b] {
            pairs.push((evens(r), r.to_vec()));
            pairs.push((odds(r), r.to_vec()));
            pairs.push((r.to_vec(), r.to_vec()));
        }

        let gap = |model: &Seq2Seq| {
            let dist = |x: &[f32], y: &[f32]| -> f32 {
                x.iter()
                    .zip(y)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f32>()
                    .sqrt()
            };
            let ea = model.encode_tokens(&evens(&route_a));
            let oa = model.encode_tokens(&odds(&route_a));
            let eb = model.encode_tokens(&evens(&route_b));
            // same-route distance minus cross-route distance: more
            // negative = better separation.
            dist(&ea, &oa) - dist(&ea, &eb)
        };

        let before = gap(&model);
        let adam = Adam::with_lr(5e-3);
        let mut rng = det_rng(4);
        let kind = LossKind::SpatialNce { noise: 8 };
        for _ in 0..40 {
            let batches = make_batches(&pairs, 8, &mut rng);
            for batch in &batches {
                let tape = Tape::new();
                let bound = model.bind(&tape);
                let vars = bound.vars();
                let loss = bound.loss(&tape, batch, kind, &table, &mut rng);
                let mut grads = tape.backward(loss);
                let mut params = model.params_mut();
                let mut bindings: Vec<(&mut Param, Var<'_>)> = params
                    .iter_mut()
                    .map(|p| &mut **p)
                    .zip(vars.iter().copied())
                    .collect();
                apply_grads(&mut bindings, &mut grads, &adam, 5.0);
            }
        }
        let after = gap(&model);
        assert!(
            after < before,
            "same-route separation should improve: before {before}, after {after}"
        );
        assert!(
            after < 0.0,
            "same-route pairs should be closer than cross-route: {after}"
        );
    }

    #[test]
    fn beam_width_one_matches_greedy() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(5).collect();
        let greedy = model.greedy_decode(&toks, 10);
        let beams = model.beam_decode(&toks, 10, 1);
        assert_eq!(beams.len(), 1);
        assert_eq!(beams[0].0, greedy);
    }

    /// One unfused reference decoder step from `prev`: the `(1 × vocab)`
    /// logits `h·W_outᵀ`.
    fn reference_logits(model: &Seq2Seq, prev: Token, states: &mut [Matrix]) -> Matrix {
        let x = model.embedding.lookup_raw(&[prev]);
        let h = model.decoder.step_raw(&x, states);
        let mut logits = Matrix::zeros(1, model.w_out.value.rows());
        h.matmul_transpose_into(&model.w_out.value, &mut logits);
        logits
    }

    /// Re-scores a decoded sequence by teacher-forcing it through the
    /// unfused reference decoder: the sum of per-step log-probs of each
    /// emitted token, plus EOS when the sequence stopped before
    /// `max_len`, accumulated from 0.0 in emission order as the beam does.
    fn rescore(model: &Seq2Seq, src: &[Token], seq: &[Token], max_len: usize) -> f32 {
        let mut states = encode_states_unfused(model, src);
        let mut prev = Token::BOS;
        let mut total = 0.0f32;
        let mut score_step = |prev: Token, next: Token| -> f32 {
            let logits = reference_logits(model, prev, &mut states);
            let mut logp = Matrix::zeros(1, logits.cols());
            logits.log_softmax_rows_into(&mut logp);
            logp.get(0, next.idx())
        };
        for &tok in seq {
            total += score_step(prev, tok);
            prev = tok;
        }
        if seq.len() < max_len {
            total += score_step(prev, Token::EOS);
        }
        total
    }

    /// Greedy decoding over the unfused reference step: the argmax of the
    /// raw logits over every non-PAD/BOS/UNK token, first index on ties.
    fn greedy_reference(model: &Seq2Seq, src: &[Token], max_len: usize) -> Vec<Token> {
        let mut states = encode_states_unfused(model, src);
        let mut out = Vec::new();
        let mut prev = Token::BOS;
        for _ in 0..max_len {
            let logits = reference_logits(model, prev, &mut states);
            let mut best = (Token::EOS, f32::NEG_INFINITY);
            for idx in 0..logits.cols() {
                let tok = Token(idx as u32);
                if [Token::PAD, Token::BOS, Token::UNK].contains(&tok) {
                    continue;
                }
                if logits.get(0, idx) > best.1 {
                    best = (tok, logits.get(0, idx));
                }
            }
            if best.0 == Token::EOS {
                break;
            }
            out.push(best.0);
            prev = best.0;
        }
        out
    }

    #[test]
    fn greedy_decode_matches_the_unfused_reference() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let mut emitted = 0;
        for src in [&toks[0..0], &toks[0..1], &toks[0..4], &toks[3..9]] {
            let decoded = model.greedy_decode(src, 12);
            assert_eq!(
                decoded,
                greedy_reference(&model, src, 12),
                "source of {} tokens",
                src.len()
            );
            emitted += decoded.len();
        }
        assert!(emitted > 0, "some source must decode to tokens");
    }

    #[test]
    fn beam_search_scores_sorted_and_consistent() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(6).collect();
        let max_len = 10;
        let beams = model.beam_decode(&toks, max_len, 4);
        assert!(!beams.is_empty() && beams.len() <= 4);
        for w in beams.windows(2) {
            assert!(w[0].1 >= w[1].1, "beams must be sorted by log-prob");
        }
        // Each reported score must be, to the bit, the re-score of the
        // sequence under teacher forcing through the unfused reference:
        // beam rows are row-independent, and both sum the per-step
        // log-probs from 0.0 in the same order. Note beam search does
        // NOT guarantee beating greedy — the greedy path can be pruned
        // mid-search — so that is deliberately not asserted.
        for (seq, logp) in &beams {
            let expect = rescore(&model, &toks, seq, max_len);
            assert_eq!(
                logp.to_bits(),
                expect.to_bits(),
                "beam score {logp} != rescored {expect} for {seq:?}"
            );
        }
        // The width-1 beam must agree exactly with its own re-score too.
        let greedy_beam = model.beam_decode(&toks, max_len, 1);
        let expect = rescore(&model, &toks, &greedy_beam[0].0, max_len);
        assert_eq!(greedy_beam[0].1.to_bits(), expect.to_bits());
        // No special tokens leak into outputs.
        for (seq, _) in &beams {
            assert!(seq.iter().all(|t| !t.is_special()));
        }
    }

    #[test]
    fn greedy_decode_emits_hot_tokens() {
        let (vocab, _, model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(4).collect();
        let out = model.greedy_decode(&toks, 12);
        assert!(out.len() <= 12);
        assert!(out.iter().all(|t| !t.is_special()));
    }

    #[test]
    fn pretrained_embedding_is_loaded() {
        let (vocab, _, _) = tiny_setup();
        let mut rng = det_rng(5);
        let config = Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: 4,
            hidden: 6,
            layers: 1,
            bidirectional: true,
        };
        let table = init::uniform(vocab.size(), 4, 0.5, &mut rng);
        let model = Seq2Seq::with_pretrained_embedding(config, table.clone(), &mut rng);
        assert_eq!(model.params()[0].value, table);
    }

    #[test]
    fn num_parameters_counts_everything() {
        let (_, _, model) = tiny_setup();
        let by_sum: usize = model.params().iter().map(|p| p.len()).sum();
        assert_eq!(model.num_parameters(), by_sum);
        assert!(model.num_parameters() > 1000);
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn serde_roundtrip_preserves_encoding() {
        let (vocab, _, model) = tiny_setup();
        let json = serde_json::to_string(&model).unwrap();
        let toks: Vec<Token> = vocab.hot_tokens().take(5).collect();
        let encoded = model.encode_tokens(&toks);
        assert!(model.input_tables.built().is_some());
        assert_eq!(
            serde_json::to_string(&model).unwrap(),
            json,
            "the first-layer tables are never serialised"
        );
        let back: Seq2Seq = serde_json::from_str(&json).unwrap();
        assert!(back.input_tables.built().is_none());
        assert_eq!(bits(&back.encode_tokens(&toks)), bits(&encoded));
    }

    /// The first encode fills the first-layer table cache and later ones
    /// reuse it; a weight changed through `params_mut` — one token's
    /// embedding row, then the forward encoder's first-layer `Wx` — is
    /// in the very next encode, never the table built before it.
    #[test]
    fn a_stale_first_layer_table_never_serves() {
        let (vocab, _, mut model) = tiny_setup();
        let toks: Vec<Token> = vocab.hot_tokens().take(6).collect();
        let mut before = model.encode_tokens(&toks);
        let table = model.input_tables.built().expect("filled")[0]
            .as_slice()
            .as_ptr();
        model.encode_tokens_batch(&[&toks]);
        assert_eq!(
            model.input_tables.built().expect("kept")[0]
                .as_slice()
                .as_ptr(),
            table,
            "a later encode rebuilt the table"
        );
        type Edit = fn(&mut [&mut Param], Token);
        let edits: [(&str, Edit); 2] = [
            ("embedding row", |p, tok| {
                p[0].value
                    .row_mut(tok.idx())
                    .iter_mut()
                    .for_each(|w| *w += 0.5);
            }),
            ("layer 1 Wx", |p, _| {
                p[1].value.as_mut_slice().iter_mut().for_each(|w| *w *= 1.5);
            }),
        ];
        for (what, edit) in edits {
            edit(&mut model.params_mut(), toks[2]);
            assert!(model.input_tables.built().is_none(), "{what}: not reset");
            let after = model.encode_tokens(&toks);
            let states = model.encode_states_raw(&toks);
            let want = states.last().expect("non-empty stack").row(0);
            assert_eq!(bits(&after), bits(want), "{what}");
            assert_ne!(bits(&after), bits(&before), "{what}: encode did not move");
            before = after;
        }
    }
}
