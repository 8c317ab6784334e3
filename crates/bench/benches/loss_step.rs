//! Criterion bench: per-step cost of the three training losses — the
//! complexity claim behind Table VII. `L2` materialises logits over the
//! whole vocabulary (`O(|V|)` per token); `L3` touches only
//! `K + |O|` candidates. A step is what training runs: one
//! `Seq2Seq::compute_grads_fused` in an arena warmed before timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use t2vec_nn::batch::make_batches;
use t2vec_nn::{LossKind, Seq2Seq, Seq2SeqConfig, TrainArena};
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::{BBox, Point};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tensor::rng::det_rng;

struct Setup {
    model: Seq2Seq,
    table: NeighborTable,
    batch: t2vec_nn::batch::Batch,
}

/// A vocabulary of `side × side` hot cells and a model on top of it.
fn setup(side: u64) -> Setup {
    let grid = Grid::new(
        BBox::new(0.0, 0.0, side as f64 * 100.0, side as f64 * 100.0),
        100.0,
    );
    let pts: Vec<Point> = (0..grid.num_cells())
        .flat_map(|c| vec![grid.centroid(c); 3])
        .collect();
    let vocab = Vocab::build(grid, pts.iter(), 2);
    let table = NeighborTable::build(&vocab, 20.min(vocab.num_hot_cells()), 100.0);
    let mut rng = det_rng(21);
    let config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: 32,
        hidden: 32,
        layers: 1,
        bidirectional: true,
    };
    let model = Seq2Seq::new(config, &mut rng);
    // One batch of 16 pairs with 20-token targets.
    let toks: Vec<Token> = vocab.hot_tokens().take(20).collect();
    let src: Vec<Token> = toks.iter().step_by(2).copied().collect();
    let pairs = vec![(src, toks); 16];
    let batch = make_batches(&pairs, 16, &mut rng).remove(0);
    Setup {
        model,
        table,
        batch,
    }
}

fn bench_loss_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("loss_step_table7");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(15);
    for side in [16u64, 32] {
        let s = setup(side);
        let vocab_size = side * side + 4;
        for (label, kind) in [
            ("L1", LossKind::Nll),
            ("L2", LossKind::Spatial),
            ("L3", LossKind::SpatialNce { noise: 100 }),
        ] {
            group.bench_with_input(
                BenchmarkId::new(label, format!("V={vocab_size}")),
                &side,
                |b, _| {
                    let mut rng = det_rng(22);
                    let mut arena = TrainArena::new();
                    let mut step = || {
                        s.model
                            .compute_grads_fused(&s.batch, kind, &s.table, &mut rng, &mut arena)
                    };
                    black_box(step());
                    b.iter(|| black_box(step()))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_loss_step);
criterion_main!(benches);
