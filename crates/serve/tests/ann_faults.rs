//! Crash-safety of the ANN state inside a snapshot (format v3: f32
//! slabs behind the entry rows): the tier's persisted state (centroids
//! and quantizer ranges) must survive torn renames, bit flips and
//! truncations exactly as entries do — recovery falls back to the
//! newest *valid* snapshot and rebuilds the tier from it byte-for-byte
//! — and v1 files written before the tier existed must keep opening
//! (forward compat: no tier, no complaints).
//!
//! Fault injection reuses `t2vec_core::durable::fault::FaultPlan`
//! through `SnapshotStore::save_with`, the same harness the
//! `snapshot_faults` suite drives for entry payloads.

use std::fs;
use std::path::PathBuf;
use t2vec_core::durable::crc32;
use t2vec_core::durable::fault::FaultPlan;
use t2vec_serve::ann::AnnConfig;
use t2vec_serve::snapshot::{snapshot_from_bytes, SNAP_FORMAT_VERSION};
use t2vec_serve::{EmbeddingStore, SnapshotStore, StoreSnapshot};

const DIM: usize = 8;

fn vec_for(id: u64) -> Vec<f32> {
    (0..DIM as u64)
        .map(|lane| {
            let mut x = id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^= x >> 31;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            (x as f32 / u64::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// A store with `n` entries and an active (exact-mode) ANN tier.
fn indexed_store(n: u64, shards: usize) -> EmbeddingStore {
    let store = EmbeddingStore::new(DIM, shards);
    for id in 0..n {
        store.insert(id, &vec_for(id));
    }
    assert!(store.build_ann(&AnnConfig::exact(6)));
    store
}

/// The snapshot of a store (entries + tier state), sequence `seq`.
fn snap_of(store: &EmbeddingStore, seq: u64) -> StoreSnapshot {
    StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        seq,
        dim: store.dim(),
        entries: store.dump_sorted(),
        ann: store.ann_state(),
    }
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("t2vec-ann-fault-{}-{name}", std::process::id()));
    fs::remove_dir_all(&p).ok();
    p
}

/// Recovers the newest valid snapshot from `dir` and rebuilds a store +
/// tier from it, asserting the tier state came back identical.
fn recover(dir: &PathBuf, want: &StoreSnapshot) -> EmbeddingStore {
    let snaps = SnapshotStore::open(dir, 3).unwrap();
    let out = snaps.load_latest();
    let (_, snap) = out.snapshot.expect("a valid snapshot must survive");
    assert_eq!(snap.seq, want.seq, "recovered the wrong snapshot");
    assert_eq!(snap.entries, want.entries);
    assert_eq!(snap.ann, want.ann, "ANN state must survive bit-exact");
    let store = EmbeddingStore::new(snap.dim, 4);
    for e in &snap.entries {
        store.insert(e.id, &e.vec);
    }
    if let Some(state) = &snap.ann {
        assert!(
            store.restore_ann(state),
            "restore must accept its own state"
        );
    }
    store
}

/// Bitwise comparison of ANN answers over a fixed query set.
fn assert_same_answers(a: &EmbeddingStore, b: &EmbeddingStore) {
    for q in 0..10u64 {
        let query = vec_for(1000 + q);
        let ra = a.knn_ann(&query, 5);
        let rb = b.knn_ann(&query, 5);
        assert_eq!(ra.len(), rb.len(), "query {q}");
        for ((ia, da), (ib, db)) in ra.iter().zip(&rb) {
            assert_eq!(ia, ib, "query {q}: id order");
            assert_eq!(da.to_bits(), db.to_bits(), "query {q}: distance bits");
        }
    }
}

#[test]
fn torn_rename_keeps_previous_snapshot_and_tier() {
    let dir = temp_dir("torn-rename");
    let snaps = SnapshotStore::open(&dir, 3).unwrap();
    let store = indexed_store(60, 4);
    let good = snap_of(&store, 1);
    snaps.save(&good).unwrap();

    // A bigger follow-up snapshot dies before its rename: nothing of it
    // may become visible.
    let bigger = indexed_store(90, 4);
    let mut plan = FaultPlan {
        crash_before_rename: true,
        ..FaultPlan::none()
    };
    assert!(snaps.save_with(&snap_of(&bigger, 2), &mut plan).is_err());

    let recovered = recover(&dir, &good);
    assert_same_answers(&store, &recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flip_in_newest_falls_back_to_older_valid_tier() {
    let dir = temp_dir("bit-flip");
    let snaps = SnapshotStore::open(&dir, 3).unwrap();
    let store = indexed_store(50, 2);
    let good = snap_of(&store, 1);
    snaps.save(&good).unwrap();
    let newer = indexed_store(70, 2);
    let path2 = snaps.save(&snap_of(&newer, 2)).unwrap();

    // Flip one byte inside the newer file's payload (past the header,
    // well before the trailer).
    let mut bytes = fs::read(&path2).unwrap();
    let mid = bytes.len() / 3;
    bytes[mid] ^= 0x10;
    fs::write(&path2, &bytes).unwrap();

    let recovered = recover(&dir, &good);
    assert_same_answers(&store, &recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_newest_falls_back_without_panic() {
    let dir = temp_dir("truncate");
    let snaps = SnapshotStore::open(&dir, 3).unwrap();
    let store = indexed_store(40, 3);
    let good = snap_of(&store, 1);
    snaps.save(&good).unwrap();
    let newer = indexed_store(80, 3);
    let path2 = snaps.save(&snap_of(&newer, 2)).unwrap();

    let bytes = fs::read(&path2).unwrap();
    fs::write(&path2, &bytes[..bytes.len() / 2]).unwrap();

    let recovered = recover(&dir, &good);
    assert_same_answers(&store, &recovered);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn short_write_of_ann_payload_is_detected() {
    // A short write that truncates mid-file — including inside the ANN
    // slabs at its end — takes the trailer with it.
    let store = indexed_store(30, 2);
    let snap = snap_of(&store, 1);
    let bytes = t2vec_serve::snapshot::snapshot_to_bytes(&snap).unwrap();
    for cut in [
        bytes.len() / 4,
        bytes.len() / 2,
        bytes.len() - 60,
        bytes.len() - 3,
    ] {
        assert!(
            snapshot_from_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} must not parse",
            bytes.len()
        );
    }
    // And the intact frame round-trips with the tier state bit-exact.
    let back = snapshot_from_bytes(&bytes).unwrap();
    assert_eq!(back.ann, snap.ann);
}

#[test]
fn v1_file_opens_with_no_tier_and_v3_save_upgrades_it() {
    let dir = temp_dir("v1-compat");
    fs::create_dir_all(&dir).unwrap();
    // Hand-write a v1-era file: version 1, v1 trailer magic, no `ann`.
    let store = indexed_store(20, 2);
    let mut entries_json = String::from("[");
    for (i, e) in store.dump_sorted().iter().enumerate() {
        if i > 0 {
            entries_json.push(',');
        }
        entries_json.push_str(&serde_json::to_string(e).unwrap());
    }
    entries_json.push(']');
    let payload = format!("{{\"version\":1,\"seq\":1,\"dim\":{DIM},\"entries\":{entries_json}}}");
    let trailer = format!(
        "t2vec-snap v1 crc32={:08x} len={}",
        crc32(payload.as_bytes()),
        payload.len()
    );
    fs::write(
        dir.join("snap-000001.json"),
        format!("{payload}\n{trailer}\n"),
    )
    .unwrap();

    let snaps = SnapshotStore::open(&dir, 3).unwrap();
    let out = snaps.load_latest();
    let (_, v1) = out.snapshot.expect("v1 file must open");
    assert_eq!(v1.version, 1);
    assert!(v1.ann.is_none(), "v1 has no tier state");
    assert_eq!(v1.entries, store.dump_sorted());

    // Re-saving from the live (tier-carrying) store writes v3 beside
    // the old file; the next recovery prefers it and restores the tier.
    let upgraded = snap_of(&store, 2);
    let path = snaps.save(&upgraded).unwrap();
    assert_eq!(path, dir.join("snap-000002.bin"));
    assert_eq!(snaps.snapshot_files().len(), 2, "the v1 file is retained");
    let recovered = recover(&dir, &upgraded);
    assert_same_answers(&store, &recovered);
    fs::remove_dir_all(&dir).ok();
}
