//! Criterion bench: exact brute-force vector search versus the IVF
//! index (paper future-work item 3, §VI), and the k-means fit that
//! builds the IVF's cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::RngExt;
use std::hint::black_box;
use t2vec_core::ann::{IvfConfig, IvfIndex};
use t2vec_core::index::{BruteForceIndex, VectorIndex};
use t2vec_core::kmeans::kmeans;
use t2vec_tensor::rng::det_rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = det_rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect())
        .collect()
}

fn bench_index(c: &mut Criterion) {
    let dim = 64;
    let mut group = c.benchmark_group("vector_index");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for n in [1_000usize, 10_000, 50_000] {
        let vectors = random_vectors(n, dim, 41);
        let query = random_vectors(1, dim, 42).pop().unwrap();

        let brute = BruteForceIndex::from_vectors(vectors.clone());
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
            b.iter(|| black_box(brute.knn(black_box(&query), 50)))
        });

        let nlist = (n as f64).sqrt() as usize;
        let sample: Vec<Vec<f32>> = vectors.iter().step_by(10).cloned().collect();
        let mut ivf = IvfIndex::train(&sample, IvfConfig::new(nlist), &mut det_rng(43));
        ivf.add_all(&vectors);
        group.bench_with_input(BenchmarkId::new("ivf", n), &n, |b, _| {
            b.iter(|| black_box(ivf.knn(black_box(&query), 50)))
        });
    }
    group.finish();
}

/// The fit behind `benchmark/`'s `core.kmeans_s` (1 000 × 256, 64
/// cells, 25 iterations) and at `serve_by_vec`'s 141 cells: each
/// iteration is `n · k · dim` MACs through `sq_dist_f32`.
fn bench_kmeans_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("kmeans_fit");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let vectors = random_vectors(1_000, 256, 44);
    for k in [64usize, 141] {
        group.bench_with_input(BenchmarkId::new("1000x256", k), &k, |b, &k| {
            b.iter(|| black_box(kmeans(black_box(&vectors), k, 25, &mut det_rng(45))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_index, bench_kmeans_fit);
criterion_main!(benches);
