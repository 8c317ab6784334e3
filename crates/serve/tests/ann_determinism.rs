//! Determinism gate for the ANN tier (ISSUE 8 acceptance criterion):
//! at `nprobe = ∞` the tier's kNN must be **byte-for-byte the exact
//! sharded scan's answer**, and invariant to shard count, insert
//! interleaving (serial vs racing threads), and the SIMD backend. At
//! finite `nprobe` exactness is no longer promised, but the same
//! invariances must still hold — cell membership is a pure function of
//! the vector, so the candidate set cannot depend on how the data
//! arrived or how it is striped.
//!
//! The bulk load behind `build_ann` / `restore_ann` (ISSUE 15: cells
//! assigned in parallel, one write-lock acquisition) must be
//! indistinguishable from fitting on the strided sample and upserting
//! one entry at a time: same `AnnState`, same answer bytes, same
//! `QueryExplain`.
//!
//! `set_backend` is process-global, so this file holds a SINGLE test
//! function — its own binary, no sibling test can race the flips.

use t2vec_serve::ann::{AnnConfig, AnnTier};
use t2vec_serve::EmbeddingStore;
use t2vec_tensor::simd::{self, Backend};

const DIM: usize = 32;
const ENTRIES: u64 = 400;
const QUERIES: u64 = 40;
const K: usize = 10;

fn vec_for(id: u64, salt: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|lane| {
            let mut x = id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9))
                .wrapping_add(salt);
            x ^= x >> 31;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 27;
            (x as f32 / u64::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Builds the fixed store at a given shard count (optionally inserting
/// from racing threads), activates the tier, and answers the fixed
/// query set through it.
fn ann_answers(config: AnnConfig, shards: usize, racing: bool) -> Vec<Vec<(u64, f32)>> {
    let store = EmbeddingStore::new(DIM, shards);
    let fill = |store: &EmbeddingStore, stride: u64, offset: u64| {
        let mut id = offset;
        while id < ENTRIES {
            store.insert(id, &vec_for(id, 0));
            id += stride;
        }
    };
    if racing {
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let store = &store;
                s.spawn(move || fill(store, 4, w));
            }
        });
    } else {
        fill(&store, 1, 0);
    }
    assert!(store.build_ann(&config), "tier must build");
    // Half the ids are upserted again (same vectors) *after* the tier
    // is live, exercising the incremental maintenance path.
    for id in (0..ENTRIES).step_by(2) {
        store.insert(id, &vec_for(id, 0));
    }
    (0..QUERIES)
        .map(|q| store.knn_ann(&vec_for(q, 0xD1CE), K))
        .collect()
}

fn assert_bitwise_eq(a: &[Vec<(u64, f32)>], b: &[Vec<(u64, f32)>], label: &str) {
    for (qi, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{label}: query {qi} length");
        for ((ia, da), (ib, db)) in ra.iter().zip(rb) {
            assert_eq!(ia, ib, "{label}: query {qi} id order");
            assert_eq!(
                da.to_bits(),
                db.to_bits(),
                "{label}: query {qi} distance bits for id {ia}"
            );
        }
    }
}

/// `build_ann` and `restore_ann` against a tier fitted on the
/// documented sample and filled by one `upsert` per entry.
fn assert_bulk_load_equals_one_by_one(quantize: bool) {
    let config = AnnConfig {
        nprobe: 2,
        quantize,
        train_sample: 150,
        ..AnnConfig::new(8)
    };
    let store = EmbeddingStore::new(DIM, 4);
    for id in 0..ENTRIES {
        store.insert(id * 3, &vec_for(id, 0));
    }
    assert!(store.build_ann(&config), "tier must build");
    let entries = store.dump_sorted();
    let stride = entries.len().div_ceil(config.train_sample);
    let training: Vec<Vec<f32>> = entries
        .iter()
        .step_by(stride)
        .map(|e| e.vec.clone())
        .collect();
    let manual = AnnTier::fit(&training, config, DIM);
    for e in &entries {
        manual.upsert(e.id, &e.vec);
    }
    let state = store.ann_state().expect("built tier has a state");
    assert_eq!(state, manual.state(), "quantize={quantize}: AnnState");
    let restored = EmbeddingStore::from_entries(DIM, 2, entries.clone());
    assert!(restored.restore_ann(&state), "tier must restore");
    for q in 0..50 {
        let query = vec_for(q, 0xB01D);
        let (want, want_explain) =
            manual.knn_explained(|id, score| store.map_row(id, score), &query, K);
        for (label, bulk) in [("build_ann", &store), ("restore_ann", &restored)] {
            let (got, explain) = bulk.knn_ann_explained(&query, K);
            let label = format!("quantize={quantize}, {label}");
            assert_bitwise_eq(&[got], std::slice::from_ref(&want), &label);
            assert_eq!(explain, want_explain, "{label}: query {q} explain");
        }
    }
}

#[test]
fn ann_knn_bitwise_invariant_and_exact_at_full_probes() {
    assert_bulk_load_equals_one_by_one(true);
    assert_bulk_load_equals_one_by_one(false);

    // The ambient backend: `T2VEC_SIMD` when set (CI's `sse` leg runs
    // the SSE2 bodies here), the widest detected ISA otherwise.
    let fast = simd::backend();
    let exact_cfg = AnnConfig::exact(8);
    let mut pruned_cfg = AnnConfig::new(8);
    pruned_cfg.nprobe = 2;

    // Ground truth: the exact sharded scan, forced scalar.
    assert!(simd::set_backend(Backend::Scalar));
    let brute: Vec<Vec<(u64, f32)>> = {
        let store = EmbeddingStore::new(DIM, 1);
        for id in 0..ENTRIES {
            store.insert(id, &vec_for(id, 0));
        }
        (0..QUERIES)
            .map(|q| store.knn(&vec_for(q, 0xD1CE), K))
            .collect()
    };

    // nprobe = ∞: the tier must reproduce the brute bytes on every
    // shard count / interleaving / backend combination.
    let reference = ann_answers(exact_cfg, 1, false);
    assert_bitwise_eq(&reference, &brute, "scalar, exact mode vs brute");
    for shards in [2usize, 8] {
        assert_bitwise_eq(
            &brute,
            &ann_answers(exact_cfg, shards, false),
            &format!("scalar, exact, {shards} shards"),
        );
        assert_bitwise_eq(
            &brute,
            &ann_answers(exact_cfg, shards, true),
            &format!("scalar, exact, {shards} shards, racing inserts"),
        );
    }

    // Finite nprobe: approximate, but still invariant. Pin the scalar
    // answers as the cross-configuration reference.
    let pruned_ref = ann_answers(pruned_cfg, 1, false);
    for shards in [2usize, 8] {
        assert_bitwise_eq(
            &pruned_ref,
            &ann_answers(pruned_cfg, shards, true),
            &format!("scalar, nprobe=2, {shards} shards, racing inserts"),
        );
    }

    // The ambient SIMD tier across the same matrix: the integer ADC
    // kernel and the f32 kernels are bitwise across backends, so both
    // modes must reproduce the scalar bytes.
    assert!(simd::set_backend(fast), "ambient backend must install");
    for shards in [1usize, 2, 8] {
        assert_bitwise_eq(
            &brute,
            &ann_answers(exact_cfg, shards, false),
            &format!("{}, exact, {shards} shards", fast.name()),
        );
    }
    assert_bitwise_eq(
        &brute,
        &ann_answers(exact_cfg, 8, true),
        &format!("{}, exact, 8 shards, racing inserts", fast.name()),
    );
    assert_bitwise_eq(
        &pruned_ref,
        &ann_answers(pruned_cfg, 8, true),
        &format!("{}, nprobe=2, 8 shards, racing inserts", fast.name()),
    );
    // Leave the process in its ambient state for good measure.
    assert!(simd::set_backend(fast));
}
