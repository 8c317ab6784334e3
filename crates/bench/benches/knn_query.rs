//! Criterion bench: the timing core of Figure 6 — one k-NN query under
//! t2vec (vector scan over pre-encoded database) versus the DP methods
//! (one dynamic program per database trajectory).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use t2vec_core::index::{BruteForceIndex, VectorIndex};
use t2vec_core::{T2Vec, T2VecConfig};
use t2vec_distance::{edr::Edr, edwp::Edwp, TrajDistance};
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::DatasetBuilder;

struct Setup {
    model: T2Vec,
    db: Vec<Vec<Point>>,
    query: Vec<Point>,
}

fn setup(db_size: usize) -> Setup {
    let mut rng = det_rng(11);
    let city = City::tiny(&mut rng);
    let ds = DatasetBuilder::new(&city)
        .trips(120)
        .min_len(6)
        .build(&mut rng);
    let mut config = T2VecConfig::tiny();
    config.max_epochs = 2;
    let model = T2Vec::train(&config, &ds.train, &mut rng).expect("training failed");
    let db: Vec<Vec<Point>> = (0..db_size)
        .map(|i| ds.test[i % ds.test.len()].points.clone())
        .collect();
    let query = ds.test[0].points.clone();
    Setup { model, db, query }
}

fn bench_knn_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_query_fig6");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(15);
    for db_size in [50usize, 100, 200] {
        let s = setup(db_size);
        // t2vec: db encoded offline, query = encode + vector scan.
        let mut index = BruteForceIndex::new();
        for v in s.model.encode_batch(&s.db) {
            index.add(v);
        }
        group.bench_with_input(BenchmarkId::new("t2vec", db_size), &db_size, |b, _| {
            b.iter(|| {
                let qv = s.model.encode(black_box(&s.query));
                black_box(index.knn(&qv, 50))
            })
        });
        // DP methods: one DP per database trajectory per query.
        let edr = Edr::new(50.0);
        group.bench_with_input(BenchmarkId::new("EDR", db_size), &db_size, |b, _| {
            b.iter(|| {
                let d: Vec<f64> = s.db.iter().map(|t| edr.dist(&s.query, t)).collect();
                black_box(d)
            })
        });
        let edwp = Edwp::new();
        group.bench_with_input(BenchmarkId::new("EDwP", db_size), &db_size, |b, _| {
            b.iter(|| {
                let d: Vec<f64> = s.db.iter().map(|t| edwp.dist(&s.query, t)).collect();
                black_box(d)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_knn_query);
criterion_main!(benches);
