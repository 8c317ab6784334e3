//! End-to-end pipeline test spanning every crate: synthesise a city,
//! train t2vec, and verify the trained representation delivers the
//! paper's headline property — robust most-similar search under
//! down-sampling and distortion — better than chance and better than an
//! untrained model.

use t2vec::prelude::*;
use t2vec_core::model::vec_dist;
use t2vec_eval::experiments::{mean_rank_of, most_similar_workload, query_pool_split};
use t2vec_eval::method::T2VecMethod;
use t2vec_spatial::point::Point;
use t2vec_tensor::parallel;

struct Fixture {
    data: t2vec_trajgen::dataset::Dataset,
    model: T2Vec,
}

fn fixture() -> &'static Fixture {
    static SHARED: std::sync::OnceLock<Fixture> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| {
        let mut rng = det_rng(77);
        let city = City::tiny(&mut rng);
        let data = DatasetBuilder::new(&city)
            .trips(120)
            .min_len(8)
            .build(&mut rng);
        let config = T2VecConfig::tiny();
        let model = T2Vec::train(&config, &data.train, &mut rng).expect("training failed");
        Fixture { data, model }
    })
}

#[test]
fn representation_dimension_and_determinism() {
    let f = fixture();
    let v1 = f.model.encode(&f.data.test[0].points);
    let v2 = f.model.encode(&f.data.test[0].points);
    assert_eq!(v1.len(), f.model.repr_dim());
    assert_eq!(v1, v2);
}

#[test]
fn downsampled_variant_ranks_near_top() {
    let f = fixture();
    let mut rng = det_rng(78);
    let (q, p) = query_pool_split(&f.data.test, 10);
    let workload = most_similar_workload(&q, &p, 0.4, 0.0, &mut rng);
    let db_size = workload.db.len() as f64;
    let mr = mean_rank_of(&T2VecMethod::new(&f.model), &workload);
    // Random guessing would give ~db/2; demand far better.
    assert!(
        mr < db_size / 4.0,
        "trained mean rank {mr} should be far better than random ({})",
        db_size / 2.0
    );
}

#[test]
fn trained_beats_untrained_representation() {
    let f = fixture();
    let mut rng = det_rng(79);
    // An untrained model: same architecture, random parameters, same vocab
    // pipeline (trained 0 epochs via max_iterations = 0 is not allowed by
    // the early-stop bookkeeping, so use 1 iteration).
    let mut config = T2VecConfig::tiny();
    config.max_epochs = 1;
    config.max_iterations = 1;
    config.pretrain_cells = false;
    let untrained =
        T2Vec::train(&config, &f.data.train, &mut rng).expect("one-step training failed");

    let (q, p) = query_pool_split(&f.data.test, 10);
    let mut rng_w = det_rng(80);
    let workload = most_similar_workload(&q, &p, 0.4, 0.0, &mut rng_w);
    let mr_trained = mean_rank_of(&T2VecMethod::new(&f.model), &workload);
    let mr_untrained = mean_rank_of(&T2VecMethod::new(&untrained), &workload);
    assert!(
        mr_trained <= mr_untrained,
        "training should not hurt: trained {mr_trained} vs untrained {mr_untrained}"
    );
}

#[test]
fn noise_distortion_changes_representation_little() {
    let f = fixture();
    let mut rng = det_rng(81);
    let trip = &f.data.test[0].points;
    let other = &f.data.test[3].points;
    let v = f.model.encode(trip);
    let v_noisy = f.model.encode(&distort(trip, 0.4, &mut rng));
    let v_other = f.model.encode(other);
    assert!(
        vec_dist(&v, &v_noisy) < vec_dist(&v, &v_other),
        "distorted self should stay closer than a different trip"
    );
}

#[test]
fn batch_encoding_is_consistent_across_thread_paths() {
    let f = fixture();
    // Train and test trips together fill more than one 64-row bucket.
    let trajs: Vec<Vec<Point>> = f
        .data
        .train
        .iter()
        .chain(&f.data.test)
        .map(|t| t.points.clone())
        .collect();
    assert!(trajs.len() > 64, "one bucket exercises no fan-out");
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let singles: Vec<Vec<u32>> = trajs.iter().map(|t| bits(&f.model.encode(t))).collect();
    let prev = parallel::num_threads();
    for threads in [1, 4] {
        parallel::set_threads(threads);
        let batch = f.model.encode_batch(&trajs);
        assert_eq!(batch.len(), trajs.len());
        for (single, b) in singles.iter().zip(&batch) {
            assert_eq!(single, &bits(b), "{threads} thread(s)");
        }
    }
    parallel::set_threads(prev);
}

#[test]
fn index_search_agrees_with_exhaustive_vector_scan() {
    let f = fixture();
    let db: Vec<Vec<Point>> = f.data.test.iter().map(|t| t.points.clone()).collect();
    let vectors = f.model.encode_batch(&db);
    let entries = (0..)
        .zip(&vectors)
        .map(|(id, v)| Entry { id, vec: v.clone() });
    let store = EmbeddingStore::from_entries(f.model.repr_dim(), 2, entries);
    let q = f.model.encode(&db[2]);
    let top = store.knn(&q, 3);
    assert_eq!(top[0].0, 2);
    assert!(top[0].1 < 1e-5);
    // Manual scan agrees.
    let manual_best = vectors
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| vec_dist(&q, a).partial_cmp(&vec_dist(&q, b)).unwrap())
        .unwrap()
        .0;
    assert_eq!(manual_best, 2);
}

#[test]
fn clustering_groups_variants_of_the_same_trip() {
    let f = fixture();
    let mut rng = det_rng(82);
    let routes = 3;
    let variants = 4;
    let mut trajs = Vec::new();
    let mut truth = Vec::new();
    for (ri, trip) in f.data.test.iter().take(routes).enumerate() {
        for _ in 0..variants {
            trajs.push(downsample(&trip.points, 0.3, &mut rng));
            truth.push(ri);
        }
    }
    let vectors = f.model.encode_batch(&trajs);
    let result = kmeans(&vectors, routes, 50, &mut rng);
    // Require decent purity (strictly better than the 1/3 random
    // baseline).
    let mut hits = 0;
    for c in 0..routes {
        let members: Vec<usize> = (0..truth.len())
            .filter(|&i| result.assignments[i] == c)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut counts = vec![0usize; routes];
        for &m in &members {
            counts[truth[m]] += 1;
        }
        hits += counts.iter().max().copied().unwrap_or(0);
    }
    let purity = hits as f64 / truth.len() as f64;
    assert!(purity > 0.6, "cluster purity {purity} too low");
}
