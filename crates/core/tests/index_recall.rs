//! Edge-case coverage for the vector indexes.
//!
//! The edge cases (empty index, `k = 0`, `k > len`) run **uniformly**
//! over every `VectorIndex` implementation — brute force and the
//! IVF(+i8) tier — through one generic battery, so the tiers cannot
//! drift apart on boundary semantics (ISSUE 8 satellite; the duplicated
//! per-index versions used to do exactly that). The seeded recall gate
//! of the approximate tier lives in `ann_recall.rs`.

use rand::RngExt;
use t2vec_core::ann::{IvfConfig, IvfIndex};
use t2vec_core::index::{BruteForceIndex, VectorIndex};
use t2vec_tensor::rng::det_rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = det_rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect()
}

/// Every index tier under the shared `VectorIndex` trait, constructed
/// empty for 2-dimensional vectors. The sublinear tier is configured at
/// full candidate budgets (IVF's exact mode) so the boundary contract — `k > len` returns *everything*,
/// distance-sorted — is the same one the brute-force scan honours.
fn every_index() -> Vec<(&'static str, Box<dyn VectorIndex>)> {
    let mut ivf_rng = det_rng(13);
    let training = random_vectors(32, 2, 14);
    vec![
        ("brute", Box::new(BruteForceIndex::new())),
        (
            "ivf",
            Box::new(IvfIndex::train(
                &training,
                IvfConfig::exact(4),
                &mut ivf_rng,
            )),
        ),
    ]
}

#[test]
fn empty_indexes_report_empty_and_return_nothing() {
    for (name, index) in every_index() {
        assert!(index.is_empty(), "{name}: fresh index must be empty");
        assert_eq!(index.len(), 0, "{name}");
        assert!(
            index.knn(&[1.0, 2.0], 5).is_empty(),
            "{name}: empty index must return nothing"
        );
    }
}

#[test]
fn k_larger_than_len_returns_all_in_distance_order() {
    let vectors = [vec![3.0f32, 0.0], vec![1.0, 0.0], vec![2.0, 0.0]];
    for (name, mut index) in every_index() {
        for v in vectors.iter().cloned() {
            index.add(v);
        }
        let r = index.knn(&[0.0, 0.0], 10);
        assert_eq!(r.len(), 3, "{name}: k > len must return every vector");
        let ids: Vec<usize> = r.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 0], "{name}: distance order");
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].1, "{name}: results must stay sorted");
        }
    }
}

#[test]
fn k_zero_returns_nothing() {
    for (name, mut index) in every_index() {
        index.add(vec![1.0, 0.0]);
        assert!(index.knn(&[0.0, 0.0], 0).is_empty(), "{name}: k = 0");
        assert!(!index.is_empty(), "{name}: the add must still count");
        assert_eq!(index.len(), 1, "{name}");
    }
}
