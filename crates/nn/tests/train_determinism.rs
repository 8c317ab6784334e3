//! Determinism gate for the fused training step: `compute_group_grads`
//! must return **bitwise identical** `GradSet`s — loss, token counts,
//! slot presence and every gradient element's bits — at 1, 2 and 4
//! threads and on every SIMD backend the host supports. The tape oracle
//! only pins gradients to a summation-order tolerance, so this (with the
//! golden gate and the checkpoint-resume tests) is what holds training's
//! bytes still: each batch runs whole on one worker, its products reduce
//! in an order fixed by the blocking alone, the matmul and scatter
//! kernels are element-wise across lanes, and the `L3` scores use the
//! backend-invariant `dot`.
//!
//! `set_backend` and `set_threads` are process-global, so this file
//! holds a SINGLE test function — its own binary, no sibling test can
//! race the flips.

use t2vec_nn::batch::make_batches;
use t2vec_nn::train::compute_group_grads;
use t2vec_nn::{GradSet, LossKind, Seq2Seq, Seq2SeqConfig};
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::{BBox, Point};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tensor::parallel;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::simd::{self, Backend};

type Bits = (u32, usize, Vec<Option<Vec<u32>>>);

fn bits(sets: &[GradSet]) -> Vec<Bits> {
    sets.iter()
        .map(|s| {
            let grads = s
                .grads
                .iter()
                .map(|g| {
                    g.as_ref()
                        .map(|m| m.as_slice().iter().map(|v| v.to_bits()).collect())
                })
                .collect();
            (s.loss.to_bits(), s.target_tokens, grads)
        })
        .collect()
}

#[test]
fn group_grads_are_bitwise_invariant_to_threads_and_backend() {
    let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
    let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
    let vocab = Vocab::build(grid, pts.iter(), 2);
    let table = NeighborTable::build(&vocab, 4, 100.0);
    // Widths off every SIMD lane count, two layers, both encoders.
    let config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: 13,
        hidden: 18,
        layers: 2,
        bidirectional: true,
    };
    let model = Seq2Seq::new(config, &mut det_rng(50));
    let toks: Vec<Token> = vocab.hot_tokens().collect();
    // Ragged targets and several source lengths: batches of 1 to 5 rows.
    let pairs: Vec<(Vec<Token>, Vec<Token>)> = (0..14)
        .map(|i| {
            let src = 2 + i % 4;
            let tgt = 3 + (i * 5) % 9;
            (toks[i..i + src].to_vec(), toks[i..i + tgt].to_vec())
        })
        .collect();
    let batches = make_batches(&pairs, 5, &mut det_rng(51));
    assert!(batches.len() >= 4, "fixture must make several batches");
    let seeds: Vec<u64> = (0..batches.len() as u64).map(|i| 1000 + i).collect();

    let backends = [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ];
    for kind in [LossKind::Spatial, LossKind::SpatialNce { noise: 8 }] {
        assert!(simd::set_backend(Backend::Scalar));
        parallel::set_threads(1);
        let reference = bits(&compute_group_grads(&model, &batches, kind, &table, &seeds));
        for backend in backends.into_iter().filter(|b| b.supported()) {
            assert!(simd::set_backend(backend));
            for threads in [1, 2, 4] {
                parallel::set_threads(threads);
                let got = bits(&compute_group_grads(&model, &batches, kind, &table, &seeds));
                assert!(
                    got == reference,
                    "{kind:?}: {} at {threads} threads differs from scalar at 1",
                    backend.name()
                );
            }
        }
    }
    // Leave the process in its default state for good measure.
    assert!(simd::set_backend(simd::detected()));
    parallel::set_threads(1);
}
