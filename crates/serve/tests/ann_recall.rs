//! Seeded recall gate of the store's ANN tier: `knn_ann` must clear a
//! fixed recall@10 floor against the store's exact scan (`knn`) for
//! *every* construction seed, and at `nprobe = ∞` with an unbounded
//! re-rank budget its answers must be **byte-for-byte** the exact
//! scan's — not approximately equal, the same `(id, distance.to_bits())`
//! pairs in the same order.

use rand::RngExt;
use std::collections::HashSet;
use t2vec_serve::{AnnConfig, EmbeddingStore, Entry};
use t2vec_tensor::rng::det_rng;

fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = det_rng(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect()
}

/// A one-shard store holding `vectors` under ids `0..n`, with its ANN
/// tier trained on every one of them from k-means seed `seed`.
fn filled(vectors: &[Vec<f32>], config: AnnConfig, seed: u64) -> EmbeddingStore {
    let entries = (0..)
        .zip(vectors)
        .map(|(id, v)| Entry { id, vec: v.clone() });
    let store = EmbeddingStore::from_entries(vectors[0].len(), 1, entries);
    assert!(store.build_ann(&AnnConfig {
        train_seed: seed,
        train_sample: 0,
        ..config
    }));
    store
}

fn recall_at_k(store: &EmbeddingStore, queries: &[Vec<f32>], k: usize) -> f64 {
    let mut sum = 0.0;
    for q in queries {
        let exact: HashSet<u64> = store.knn(q, k).into_iter().map(|(id, _)| id).collect();
        let got: HashSet<u64> = store.knn_ann(q, k).into_iter().map(|(id, _)| id).collect();
        sum += exact.intersection(&got).count() as f64 / exact.len() as f64;
    }
    sum / queries.len() as f64
}

#[test]
fn ivf_recall_at_10_clears_floor_across_seeds() {
    // Uniform random vectors are the worst case for a coarse
    // partition (no cluster structure to exploit), so the floor is
    // deliberately below what clustered embeddings reach.
    const FLOOR: f64 = 0.8;
    let vectors = random_vectors(500, 16, 2);
    let queries = random_vectors(30, 16, 4);
    let mut config = AnnConfig::new(16);
    config.nprobe = 6;
    for seed in [21u64, 42, 84] {
        let recall = recall_at_k(&filled(&vectors, config, seed), &queries, 10);
        assert!(
            recall >= FLOOR,
            "IVF recall@10 = {recall} below floor {FLOOR} for seed {seed}"
        );
    }
}

/// The i8 shortlist at the serving shape: 256-d vectors, every one of
/// ≥ 2 000 a candidate, a 128-deep exact re-rank. Only the ADC estimate
/// decides what reaches the re-rank, so recall here is its quality.
#[test]
fn quantized_shortlist_at_d256_keeps_recall_at_10() {
    const FLOOR: f64 = 0.99;
    let vectors = random_vectors(2_400, 256, 18);
    let queries = random_vectors(20, 256, 19);
    let config = AnnConfig {
        nprobe: usize::MAX,
        rerank: 128,
        kmeans_iters: 5,
        ..AnnConfig::new(8)
    };
    let store = filled(&vectors, config, 20);
    for q in &queries {
        assert!(store.knn_ann_explained(q, 10).1.candidates >= 2_000);
    }
    let recall = recall_at_k(&store, &queries, 10);
    assert!(
        recall >= FLOOR,
        "quantized recall@10 = {recall} below {FLOOR}"
    );
}

#[test]
fn ivf_unquantized_recall_matches_quantized_or_better() {
    // Dropping the i8 tier removes ADC error from the shortlist, so
    // full-precision IVF at the same probe budget can't do worse by
    // more than noise; this guards the re-rank budget from silently
    // shrinking.
    let vectors = random_vectors(500, 16, 6);
    let queries = random_vectors(30, 16, 8);
    let mut quantized = AnnConfig::new(16);
    quantized.nprobe = 6;
    let mut exact_rows = quantized;
    exact_rows.quantize = false;
    for seed in [21u64, 42, 84] {
        let rq = recall_at_k(&filled(&vectors, quantized, seed), &queries, 10);
        let rf = recall_at_k(&filled(&vectors, exact_rows, seed), &queries, 10);
        assert!(
            rf + 1e-9 >= rq - 0.05,
            "full-precision IVF recall {rf} collapsed below quantized {rq} (seed {seed})"
        );
    }
}

#[test]
fn nprobe_infinity_is_byte_for_byte_the_exact_scan() {
    let vectors = random_vectors(400, 24, 10);
    let queries = random_vectors(25, 24, 12);
    for seed in [21u64, 42, 84] {
        // Quantized AND unquantized exact modes must both collapse to
        // the exact scan's bytes after re-ranking.
        for quantize in [true, false] {
            let mut config = AnnConfig::exact(12);
            config.quantize = quantize;
            let store = filled(&vectors, config, seed);
            for (qi, q) in queries.iter().enumerate() {
                let bits = |hits: Vec<(u64, f32)>| -> Vec<(u64, u32)> {
                    hits.into_iter().map(|(id, d)| (id, d.to_bits())).collect()
                };
                let (got, explain) = store.knn_ann_explained(q, 10);
                assert!(explain.ann, "the tier must answer");
                assert_eq!(
                    bits(got),
                    bits(store.knn(q, 10)),
                    "seed {seed}, quantize {quantize}, query {qi}: exact mode diverged"
                );
            }
        }
    }
}

#[test]
fn recall_improves_monotonically_with_nprobe() {
    // More probes can only widen the candidate set, and the candidate
    // set of nprobe=n is a subset of nprobe=n+m's — so recall is
    // monotone. A violation means probe ranking or candidate gathering
    // is broken.
    let vectors = random_vectors(500, 16, 14);
    let queries = random_vectors(20, 16, 16);
    let mut last = 0.0f64;
    for nprobe in [1usize, 4, 16] {
        let mut config = AnnConfig::new(16);
        config.nprobe = nprobe;
        let recall = recall_at_k(&filled(&vectors, config, 42), &queries, 10);
        assert!(
            recall + 1e-9 >= last,
            "recall fell from {last} to {recall} when nprobe rose to {nprobe}"
        );
        last = recall;
    }
    assert!(last > 0.99, "probing every cell must find everything");
}
