//! Criterion bench: the cache-blocked / parallel matmul kernels on the
//! shapes GRU training and encoding actually hit:
//!
//! * `1×256 · 256×768`    — one decode step's gate pre-activations
//!   (batch 1, hidden 256, stacked gates 3·256); stays below the
//!   parallel threshold by design, so this doubles as the
//!   single-thread-overhead check.
//! * `64×256 · 256×768`   — the same with the paper's batch size 64.
//! * `64×256 · 256×18000` — the output projection `h · W_outᵀ` against
//!   a Porto-scale hot-cell vocabulary (~18 k cells).
//!
//! Each shape runs the blocked kernel with 1 worker and with 4;
//! `matmul_transpose` and `transpose_matmul` (the backward kernels) are
//! covered on the batched shape. There are no naive-triple-loop rows:
//! that reference is a test oracle inside `tensor::matrix`, not an API.
//! Run under `T2VEC_SIMD=off` for the scalar tier's numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::Duration;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::{init, parallel, Matrix};

const GRU_SHAPES: &[(usize, usize, usize)] = &[(1, 256, 768), (64, 256, 768), (64, 256, 18000)];

fn inputs(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    let mut rng = det_rng(42);
    (
        init::uniform(m, k, 1.0, &mut rng),
        init::uniform(k, n, 1.0, &mut rng),
    )
}

fn bench_matmul(c: &mut Criterion) {
    for &(m, k, n) in GRU_SHAPES {
        let (a, b) = inputs(m, k, n);
        let mut group = c.benchmark_group(format!("matmul_{m}x{k}x{n}"));
        group.warm_up_time(Duration::from_millis(300));
        group.measurement_time(Duration::from_secs(2));
        group.bench_function("blocked_1t", |bch| {
            parallel::set_threads(1);
            bch.iter(|| black_box(a.matmul(&b)))
        });
        group.bench_function("blocked_4t", |bch| {
            parallel::set_threads(4);
            bch.iter(|| black_box(a.matmul(&b)))
        });
        group.finish();
    }

    // The backward-pass kernels on the batched GRU shape: dx = dy · W
    // uses matmul, dW = xᵀ · dy uses transpose_matmul, and the forward
    // projection h · Wᵀ uses matmul_transpose.
    let (m, k, n) = (64, 256, 768);
    let (a, b) = inputs(m, k, n);
    let bt = b.transpose();
    let at = a.transpose();
    let mut group = c.benchmark_group(format!("matmul_variants_{m}x{k}x{n}"));
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    group.bench_function("matmul_transpose_blocked_1t", |bch| {
        parallel::set_threads(1);
        bch.iter(|| black_box(a.matmul_transpose(&bt)))
    });
    group.bench_function("transpose_matmul_blocked_1t", |bch| {
        parallel::set_threads(1);
        bch.iter(|| black_box(at.transpose_matmul(&b)))
    });
    group.finish();
}

criterion_group!(benches, bench_matmul);
criterion_main!(benches);
