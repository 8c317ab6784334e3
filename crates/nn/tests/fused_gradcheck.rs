//! Finite-difference validation of the fused, tape-free training
//! backward, independent of the tape implementation.
//!
//! The tape-vs-fused unit tests in `seq2seq`, `train` and `fused` hold
//! the fused loss bitwise to the tape oracle's and its gradients to a
//! summation-order tolerance; this battery proves the *derivation
//! itself* against central finite differences of the fused loss, at
//! awkward batch/length shapes (single-row batches, length-1 and empty
//! sources, ragged padded targets, the encoder-less language model). It
//! uses the same step and tolerances as [`t2vec_tape::gradcheck`].

use t2vec_nn::batch::{make_batches, next_token_batch, Batch};
use t2vec_nn::embedding::Embedding;
use t2vec_nn::fused::language_model_grads_into;
use t2vec_nn::gru::GruStack;
use t2vec_nn::{GradSet, LossKind, Param, Seq2Seq, Seq2SeqConfig, TrainArena};
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::{BBox, Point};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tape::gradcheck::{DEFAULT_ATOL, DEFAULT_EPS, DEFAULT_RTOL};
use t2vec_tensor::init;
use t2vec_tensor::rng::det_rng;

fn tiny_vocab() -> (Vocab, NeighborTable) {
    let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
    let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
    let vocab = Vocab::build(grid, pts.iter(), 2);
    let table = NeighborTable::build(&vocab, 4, 100.0);
    (vocab, table)
}

/// Central-difference check of every `stride`-th element of every
/// parameter (in gradient-slot order, as `params` lists them) against
/// the fused analytic gradient that `step` computes. `step` replays the
/// same RNG seed per evaluation, so the NCE noise draw is held fixed
/// while a parameter moves — the loss is differentiable in the
/// parameters.
fn fd_check<M>(
    model: &mut M,
    params: fn(&mut M) -> Vec<&mut Param>,
    step: impl Fn(&M, &mut TrainArena) -> GradSet,
    stride: usize,
    ctx: &str,
) {
    let mut arena = TrainArena::new();
    let base = step(model, &mut arena);
    assert!(base.loss.is_finite(), "{ctx}: base loss");
    let n_params = params(model).len();
    assert_eq!(base.grads.len(), n_params);
    let mut checked = 0usize;
    for pi in 0..n_params {
        let len = params(model)[pi].value.len();
        for e in (0..len).step_by(stride) {
            let orig = params(model)[pi].value.as_slice()[e];
            params(model)[pi].value.as_mut_slice()[e] = orig + DEFAULT_EPS;
            let plus = step(model, &mut arena).loss;
            params(model)[pi].value.as_mut_slice()[e] = orig - DEFAULT_EPS;
            let minus = step(model, &mut arena).loss;
            params(model)[pi].value.as_mut_slice()[e] = orig;
            let numeric = (plus - minus) / (2.0 * DEFAULT_EPS);
            let got = base.grads[pi].as_ref().map_or(0.0, |g| g.as_slice()[e]);
            let tol = DEFAULT_ATOL + DEFAULT_RTOL * numeric.abs();
            assert!(
                (got - numeric).abs() <= tol,
                "{ctx}: gradient mismatch at param {pi} element {e}: \
                 analytic {got}, numeric {numeric} (f+: {plus}, f-: {minus})"
            );
            checked += 1;
        }
    }
    assert!(checked > 100, "{ctx}: battery too sparse ({checked} elems)");
}

/// [`fd_check`] over a `Seq2Seq` step.
fn fd_check_seq2seq(
    model: &mut Seq2Seq,
    batch: &Batch,
    kind: LossKind,
    table: &NeighborTable,
    seed: u64,
    stride: usize,
    ctx: &str,
) {
    let step = |m: &Seq2Seq, arena: &mut TrainArena| {
        m.compute_grads_fused(batch, kind, table, &mut det_rng(seed), arena)
    };
    fd_check(model, Seq2Seq::params_mut, step, stride, ctx);
}

#[test]
fn fused_backward_matches_finite_differences_bidirectional() {
    let (vocab, table) = tiny_vocab();
    let config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: 6,
        hidden: 6,
        layers: 2,
        bidirectional: true,
    };
    let mut model = Seq2Seq::new(config, &mut det_rng(21));
    let toks: Vec<Token> = vocab.hot_tokens().collect();
    // Ragged targets in one batch: padded decode steps exercise the
    // empty-target rows of the loss backward.
    let pairs = vec![
        (toks[..5].to_vec(), toks[..9].to_vec()),
        (toks[2..7].to_vec(), toks[2..6].to_vec()),
        (toks[8..13].to_vec(), toks[8..10].to_vec()),
    ];
    let batches = make_batches(&pairs, 3, &mut det_rng(22));
    assert_eq!(batches.len(), 1, "one ragged batch expected");
    for (kind, seed) in [
        (LossKind::Spatial, 31),
        (LossKind::SpatialNce { noise: 6 }, 32),
    ] {
        fd_check_seq2seq(
            &mut model,
            &batches[0],
            kind,
            &table,
            seed,
            7,
            &format!("bidir {kind:?}"),
        );
    }
}

#[test]
fn fused_backward_matches_finite_differences_awkward_shapes() {
    let (vocab, table) = tiny_vocab();
    let config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: 5,
        hidden: 7,
        layers: 1,
        bidirectional: false,
    };
    let mut model = Seq2Seq::new(config, &mut det_rng(23));
    let toks: Vec<Token> = vocab.hot_tokens().collect();
    // Single-row batches at the edges: length-1 source, empty source
    // (decoder starts from zero states — `make_batches` never emits
    // this shape, so it is built by hand), and a long target.
    let shapes: Vec<(Vec<Token>, Vec<Token>)> = vec![
        (toks[4..5].to_vec(), toks[4..7].to_vec()),
        (Vec::new(), toks[..4].to_vec()),
        (toks[..3].to_vec(), toks[..11].to_vec()),
    ];
    for (i, pair) in shapes.iter().enumerate() {
        let batch = if pair.0.is_empty() {
            empty_src_batch(&pair.1)
        } else {
            make_batches(std::slice::from_ref(pair), 4, &mut det_rng(24))
                .pop()
                .expect("one batch")
        };
        fd_check_seq2seq(
            &mut model,
            &batch,
            LossKind::Nll,
            &table,
            40 + i as u64,
            5,
            &format!("awkward shape {i} (src len {})", pair.0.len()),
        );
    }
}

/// A single-row batch with an empty source, mirroring `build_batch`'s
/// BOS/EOS layout.
fn empty_src_batch(tgt: &[Token]) -> Batch {
    let steps = tgt.len() + 1;
    let mut dec_inputs = Vec::with_capacity(steps);
    let mut dec_targets = Vec::with_capacity(steps);
    for step in 0..steps {
        dec_inputs.push(vec![if step == 0 { Token::BOS } else { tgt[step - 1] }]);
        dec_targets.push(vec![Some(if step < tgt.len() {
            tgt[step]
        } else {
            Token::EOS
        })]);
    }
    Batch {
        src: Vec::new(),
        dec_inputs,
        dec_targets,
        batch_size: 1,
        num_target_tokens: steps,
    }
}

/// The next-token language model of the vRNN baseline: an embedding, a
/// GRU stack from zero states and an output projection, no encoder.
struct LanguageModel {
    embedding: Embedding,
    gru: GruStack,
    w_out: Param,
}

impl LanguageModel {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut v = vec![&mut self.embedding.table];
        v.extend(self.gru.params_mut());
        v.push(&mut self.w_out);
        v
    }
}

#[test]
fn language_model_backward_matches_finite_differences() {
    let (vocab, _) = tiny_vocab();
    let mut rng = det_rng(25);
    let mut model = LanguageModel {
        embedding: Embedding::new("lm.emb", vocab.size(), 5, &mut rng),
        gru: GruStack::new("lm.gru", 5, 6, 2, &mut rng),
        w_out: Param::new("lm.w_out", init::xavier_uniform(vocab.size(), 6, &mut rng)),
    };
    let toks: Vec<Token> = vocab.hot_tokens().collect();
    // Two rows of one length, no source and no BOS/EOS: token t in,
    // token t + 1 out — and the one-step (length-2) edge.
    for (i, seqs) in [vec![&toks[..5], &toks[6..11]], vec![&toks[12..14]]]
        .into_iter()
        .enumerate()
    {
        let batch = next_token_batch(&seqs);
        let step = |m: &LanguageModel, arena: &mut TrainArena| {
            let mut out = GradSet::default();
            language_model_grads_into(&m.embedding, &m.gru, &m.w_out, &batch, arena, &mut out);
            out
        };
        fd_check(
            &mut model,
            LanguageModel::params_mut,
            step,
            5,
            &format!("language model, batch {i} (length {})", seqs[0].len()),
        );
    }
}
