//! The data-parallel training-epoch driver.
//!
//! One epoch = shuffle the pair corpus into length-bucketed minibatches,
//! fan each accumulation group out across worker threads (every worker
//! computes detached gradients with the fused backward of
//! [`crate::fused`], in a per-thread arena), reduce the group in batch
//! order, and take one clipped Adam step per group.
//!
//! The driver is deliberately *stateless across epochs*: everything that
//! changes during training lives in the model (parameters + Adam
//! moments) and the caller's RNG. That is what makes training
//! checkpointable — capture those two and an interrupted run can resume
//! bitwise-identically (see `t2vec-core`'s checkpoint module).
//!
//! Determinism contract (relied on by the resume tests):
//! * per-batch RNG seeds are pre-drawn from the caller's RNG in batch
//!   order *before* any fan-out, so the stream never depends on thread
//!   scheduling;
//! * gradient sets are reduced in batch order
//!   ([`crate::param::reduce_grad_sets`]);
//! * the blocked matrix kernels fix each output element's reduction
//!   order independently of the worker count.

use crate::batch::{make_batches, Batch};
use crate::fused::TrainArena;
use crate::loss::LossKind;
use crate::param::{apply_grad_mats, reduce_grad_sets, GradSet};
use crate::seq2seq::Seq2Seq;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::cell::RefCell;
use t2vec_obs as obs;
use t2vec_spatial::vocab::{NeighborTable, Token};
use t2vec_tensor::opt::Adam;
use t2vec_tensor::parallel;

thread_local! {
    /// Per-thread fused-backward arena, reused across batches. Worker
    /// threads are scoped per group, but the caller thread (which
    /// always runs a shard, and runs everything single-threaded) keeps
    /// its arena for the life of the process.
    static FUSED_ARENA: RefCell<TrainArena> = RefCell::new(TrainArena::new());
}

/// Hyper-parameters of the optimisation loop (fixed across epochs).
#[derive(Debug, Clone, Copy)]
pub struct EpochHp {
    /// The training loss.
    pub loss: LossKind,
    /// Adam hyper-parameters.
    pub adam: Adam,
    /// Max global gradient norm (paper: 5).
    pub grad_clip: f32,
    /// Minibatch size.
    pub batch_size: usize,
    /// Batches per optimiser step (`grad_accum`, 0 treated as 1).
    pub grad_accum: usize,
}

/// What one epoch did.
#[derive(Debug, Clone, Copy)]
pub struct EpochOutcome {
    /// Token-weighted mean per-token training loss over the epoch.
    pub train_loss: f32,
    /// Target tokens the mean was taken over.
    pub tokens: usize,
    /// Optimiser steps taken this epoch.
    pub steps: usize,
}

/// Computes gradients for one accumulation group of batches, sharded
/// across worker threads. Each batch gets its own RNG (seeded from the
/// pre-drawn `seeds`, one per batch, in batch order) and runs in its
/// thread's arena; results come back in batch order regardless of
/// scheduling.
pub fn compute_group_grads(
    model: &Seq2Seq,
    group: &[Batch],
    kind: LossKind,
    table: &NeighborTable,
    seeds: &[u64],
) -> Vec<GradSet> {
    debug_assert_eq!(group.len(), seeds.len());
    parallel::par_map(group, |i, batch| {
        let mut batch_rng = StdRng::seed_from_u64(seeds[i]);
        FUSED_ARENA.with(|arena| {
            model.compute_grads_fused(batch, kind, table, &mut batch_rng, &mut arena.borrow_mut())
        })
    })
}

/// Runs one training epoch over `pairs`, mutating `model` in place.
///
/// Takes at most `steps_budget` optimiser steps (the caller's remaining
/// `max_iterations` allowance); an exhausted budget ends the epoch early
/// exactly as the paper's iteration cap does. All randomness (batch
/// shuffling and per-batch loss-noise seeds) is drawn from `rng`, in a
/// thread-count-independent order.
pub fn run_epoch(
    model: &mut Seq2Seq,
    pairs: &[(Vec<Token>, Vec<Token>)],
    table: &NeighborTable,
    hp: &EpochHp,
    steps_budget: usize,
    rng: &mut impl Rng,
) -> EpochOutcome {
    let accum = hp.grad_accum.max(1);
    let batches = make_batches(pairs, hp.batch_size, rng);
    let mut epoch_loss = 0.0f64;
    let mut tokens = 0usize;
    let mut steps = 0usize;
    for group in batches.chunks(accum) {
        if steps >= steps_budget {
            break;
        }
        let seeds: Vec<u64> = group.iter().map(|_| rng.random()).collect();
        let sets = compute_group_grads(model, group, hp.loss, table, &seeds);
        tokens += sets.iter().map(|s| s.target_tokens).sum::<usize>();
        epoch_loss += sets
            .iter()
            .map(|s| f64::from(s.loss) * s.target_tokens as f64)
            .sum::<f64>();
        // Time the serial tail of the step (batch-order gradient
        // reduction + Adam update); latency goes only to obs sinks.
        let reduce_t0 = std::time::Instant::now();
        let mut reduced = reduce_grad_sets(&sets);
        let mut params = model.params_mut();
        apply_grad_mats(&mut params, &mut reduced.grads, &hp.adam, hp.grad_clip);
        obs::histogram!("nn.train.grad_reduce_ns").record_duration(reduce_t0.elapsed());
        steps += 1;
    }
    let outcome = EpochOutcome {
        train_loss: (epoch_loss / tokens.max(1) as f64) as f32,
        tokens,
        steps,
    };
    obs::counter!("nn.train.tokens").add(outcome.tokens as u64);
    obs::counter!("nn.train.steps").add(outcome.steps as u64);
    obs::debug!(target: "nn.train", "epoch complete";
        train_loss = outcome.train_loss,
        tokens = outcome.tokens,
        steps = outcome.steps,
    );
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::{BBox, Point};
    use t2vec_spatial::vocab::Vocab;
    use t2vec_tensor::rng::det_rng;
    use t2vec_tensor::Matrix;

    fn tiny_setup() -> (Vocab, NeighborTable, Seq2Seq) {
        let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
        let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
        let vocab = Vocab::build(grid, pts.iter(), 2);
        let table = NeighborTable::build(&vocab, 4, 100.0);
        let mut rng = det_rng(31);
        let config = crate::Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: 8,
            hidden: 8,
            layers: 1,
            bidirectional: false,
        };
        let model = Seq2Seq::new(config, &mut rng);
        (vocab, table, model)
    }

    fn toy_pairs(vocab: &Vocab) -> Vec<(Vec<Token>, Vec<Token>)> {
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        let tgt: Vec<Token> = toks[..8].to_vec();
        let src: Vec<Token> = tgt.iter().step_by(2).copied().collect();
        vec![(src, tgt); 6]
    }

    fn hp() -> EpochHp {
        EpochHp {
            loss: LossKind::Nll,
            adam: Adam::with_lr(5e-3),
            grad_clip: 5.0,
            batch_size: 4,
            grad_accum: 2,
        }
    }

    fn param_bits(model: &Seq2Seq) -> Vec<u32> {
        model
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn epoch_trains_and_reports_steps() {
        let (vocab, table, mut model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let mut rng = det_rng(32);
        let before = param_bits(&model);
        let first = run_epoch(&mut model, &pairs, &table, &hp(), usize::MAX, &mut rng);
        assert!(first.steps > 0 && first.tokens > 0);
        assert!(first.train_loss.is_finite() && first.train_loss > 0.0);
        assert_ne!(param_bits(&model), before, "epoch must move parameters");
        let mut last = first.train_loss;
        for _ in 0..30 {
            last = run_epoch(&mut model, &pairs, &table, &hp(), usize::MAX, &mut rng).train_loss;
        }
        assert!(last < first.train_loss, "{} -> {last}", first.train_loss);
    }

    #[test]
    fn steps_budget_caps_the_epoch() {
        let (vocab, table, mut model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let mut rng = det_rng(33);
        let out = run_epoch(&mut model, &pairs, &table, &hp(), 1, &mut rng);
        assert_eq!(out.steps, 1);
        let none = run_epoch(&mut model, &pairs, &table, &hp(), 0, &mut rng);
        assert_eq!(none.steps, 0);
        assert_eq!(none.tokens, 0);
    }

    #[test]
    fn epoch_is_reproducible_from_rng_state() {
        // Two models started identically, driven by identical RNG
        // streams, must end the epoch with bitwise-identical parameters
        // and loss — the property checkpoint/resume is built on.
        let (vocab, table, model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let mut m1 = model.clone();
        let mut m2 = model;
        let o1 = run_epoch(&mut m1, &pairs, &table, &hp(), usize::MAX, &mut det_rng(34));
        let o2 = run_epoch(&mut m2, &pairs, &table, &hp(), usize::MAX, &mut det_rng(34));
        assert_eq!(o1.train_loss.to_bits(), o2.train_loss.to_bits());
        assert_eq!(o1.steps, o2.steps);
        assert_eq!(param_bits(&m1), param_bits(&m2));
    }

    #[test]
    fn fused_path_loss_bitwise_grads_within_tolerance_of_tape_at_1_and_4_threads() {
        // `compute_group_grads` at 1 and at 4 threads against a
        // per-batch loop over the tape oracle with the same seeds: loss
        // bits exact, gradients within the summation-order tolerance of
        // `GradSet::assert_matches_oracle` (thread-count invariance of
        // the gradient bytes is `tests/train_determinism.rs`). A
        // bidirectional 2-layer model exercises both encoders and the
        // concat routing.
        let (vocab, table, _) = tiny_setup();
        let config = crate::Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: 8,
            hidden: 8,
            layers: 2,
            bidirectional: true,
        };
        let model = Seq2Seq::new(config, &mut det_rng(40));
        let pairs = toy_pairs(&vocab);
        let batches = make_batches(&pairs, 3, &mut det_rng(44));
        let seeds: Vec<u64> = (0..batches.len() as u64).map(|i| i * 31 + 7).collect();
        let kind = LossKind::SpatialNce { noise: 8 };
        let oracle: Vec<GradSet> = batches
            .iter()
            .zip(&seeds)
            .map(|(batch, &seed)| {
                model.compute_grads(batch, kind, &table, &mut StdRng::seed_from_u64(seed))
            })
            .collect();
        for threads in [1usize, 4] {
            // The thread count is byte-neutral by contract, so other
            // tests in this process cannot observe the setting.
            parallel::set_threads(threads);
            let sets = compute_group_grads(&model, &batches, kind, &table, &seeds);
            assert_eq!(oracle.len(), sets.len(), "{threads}t");
            for (bi, (tape_set, fused_set)) in oracle.iter().zip(&sets).enumerate() {
                tape_set.assert_matches_oracle(fused_set, &format!("batch {bi} @ {threads}t"));
            }
        }
    }

    #[test]
    fn group_grads_are_seed_stable() {
        let (vocab, table, model) = tiny_setup();
        let pairs = toy_pairs(&vocab);
        let batches = make_batches(&pairs, 3, &mut det_rng(35));
        let seeds: Vec<u64> = (0..batches.len() as u64).collect();
        let a = compute_group_grads(&model, &batches, LossKind::Nll, &table, &seeds);
        let b = compute_group_grads(&model, &batches, LossKind::Nll, &table, &seeds);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.loss.to_bits(), y.loss.to_bits());
            assert_eq!(x.grads.len(), y.grads.len());
            for (gx, gy) in x.grads.iter().zip(y.grads.iter()) {
                assert_eq!(
                    gx.as_ref().map(Matrix::as_slice),
                    gy.as_ref().map(Matrix::as_slice)
                );
            }
        }
    }
}
