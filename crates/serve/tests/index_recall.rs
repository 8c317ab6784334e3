//! Edge-case coverage for the store's two search paths.
//!
//! The edge cases (empty store, `k = 0`, `k > len`) run **uniformly**
//! over the exact scan (`knn`) and the ANN tier (`knn_ann`) through one
//! battery, so the paths cannot drift apart on boundary semantics. The
//! tier is built at full candidate budgets (its exact mode), so the
//! boundary contract — `k > len` returns *everything*, distance-sorted
//! — is the same one the exact scan honours. The seeded recall gate of
//! the tier lives in `ann_recall.rs`.

use t2vec_serve::{AnnConfig, EmbeddingStore, Entry, QueryExplain};

type Search = fn(&EmbeddingStore, &[f32], usize) -> (Vec<(u64, f32)>, QueryExplain);

/// Each path: its name, whether it builds the tier, and its query.
const PATHS: [(&str, bool, Search); 2] = [
    ("exact", false, EmbeddingStore::knn_explained),
    ("ann", true, EmbeddingStore::knn_ann_explained),
];

/// A one-shard store of 2-d `vectors` under ids `0..n`, with its ANN
/// tier built in exact mode when `ann` is set.
fn store(vectors: &[[f32; 2]], ann: bool) -> EmbeddingStore {
    let entries = (0..).zip(vectors).map(|(id, v)| Entry {
        id,
        vec: v.to_vec(),
    });
    let store = EmbeddingStore::from_entries(2, 1, entries);
    if ann {
        assert!(store.build_ann(&AnnConfig::exact(4)), "tier must build");
    }
    store
}

#[test]
fn empty_indexes_report_empty_and_return_nothing() {
    // An empty store has nothing to train a tier on: `build_ann`
    // refuses and `knn_ann` answers by the exact scan.
    let empty = store(&[], false);
    assert!(empty.is_empty(), "fresh store must be empty");
    assert_eq!(empty.len(), 0);
    assert!(!empty.build_ann(&AnnConfig::exact(4)));
    assert!(empty.ann().is_none());
    for (name, _, search) in PATHS {
        let (hits, explain) = search(&empty, &[1.0, 2.0], 5);
        assert!(hits.is_empty(), "{name}: empty store must return nothing");
        assert!(explain.exact_fallback, "{name}");
    }
}

#[test]
fn k_larger_than_len_returns_all_in_distance_order() {
    let vectors = [[3.0f32, 0.0], [1.0, 0.0], [2.0, 0.0]];
    for (name, ann, search) in PATHS {
        let store = store(&vectors, ann);
        let (r, explain) = search(&store, &[0.0, 0.0], 10);
        assert_eq!(explain.ann, ann, "{name}: which path answered");
        assert_eq!(r.len(), 3, "{name}: k > len must return every vector");
        let ids: Vec<u64> = r.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2, 0], "{name}: distance order");
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].1, "{name}: results must stay sorted");
        }
    }
}

#[test]
fn k_zero_returns_nothing() {
    for (name, ann, search) in PATHS {
        let store = store(&[[1.0, 0.0]], ann);
        let (hits, explain) = search(&store, &[0.0, 0.0], 0);
        assert!(hits.is_empty(), "{name}: k = 0");
        assert_eq!(explain.ann, ann, "{name}: which path answered");
        assert!(!store.is_empty(), "{name}: the insert must still count");
        assert_eq!(store.len(), 1, "{name}");
    }
}
