//! Crash-safety suite for the serving snapshots + journal (ISSUE 7
//! satellite), reusing the fault injectors of
//! `t2vec_core::durable::fault`: torn renames, mid-write failures,
//! on-disk bit flips and truncations must never panic recovery and
//! never lose a state that an earlier save made durable.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use t2vec_core::durable::fault::FaultPlan;
use t2vec_core::durable::LATEST_FILE;
use t2vec_core::{T2Vec, T2VecConfig, T2VecError};
use t2vec_serve::snapshot::{JOURNAL_FILE, JOURNAL_LINK_CHECK, SNAP_FORMAT_VERSION};
use t2vec_serve::{
    recover_entries, Entry, Journal, ServeConfig, SimilarityService, SnapshotStore, StoreSnapshot,
};
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::DatasetBuilder;

fn entry(id: u64) -> Entry {
    Entry {
        id,
        vec: vec![id as f32, id as f32 * 0.5 + 1.0, -1.25],
    }
}

fn snap(seq: u64, ids: std::ops::Range<u64>) -> StoreSnapshot {
    StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        seq,
        dim: 3,
        entries: ids.map(entry).collect(),
        ann: None,
    }
}

/// A torn journal record, as a crash mid-append leaves it: the length
/// (8 + 4·3) and the id (12) reached the file, two bytes of the vector
/// did, the rest and the checksum did not.
const TORN_RECORD: &[u8] = b"\x14\0\0\0\x0c\0\0\0\0\0\0\0\0\0";

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("t2vec-serve-fault-{}-{name}", std::process::id()));
    fs::remove_dir_all(&p).ok();
    p
}

#[test]
fn payload_write_failure_keeps_previous_snapshot() {
    let dir = temp_dir("write-fail");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    store.save(&snap(1, 0..4)).unwrap();

    let mut plan = FaultPlan {
        write_fail_at: Some(64),
        ..FaultPlan::none()
    };
    assert!(store.save_with(&snap(2, 0..8), &mut plan).is_err());

    let outcome = store.load_latest();
    let (_, loaded) = outcome.snapshot.expect("seq 1 must survive");
    assert_eq!(loaded.seq, 1);
    assert_eq!(loaded.entries.len(), 4);
    // The protocol must not have leaked a half-written final file.
    assert_eq!(store.snapshot_files().len(), 1);

    // The store stays usable: the next clean save supersedes.
    store.save(&snap(2, 0..8)).unwrap();
    assert_eq!(store.load_latest().snapshot.unwrap().1.seq, 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_rename_leaves_only_stray_temp() {
    let dir = temp_dir("crash-rename");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    store.save(&snap(1, 0..4)).unwrap();

    let mut plan = FaultPlan {
        crash_before_rename: true,
        ..FaultPlan::none()
    };
    assert!(store.save_with(&snap(2, 0..8), &mut plan).is_err());

    let (_, loaded) = store.load_latest().snapshot.expect("seq 1 must survive");
    assert_eq!(loaded.seq, 1);
    assert_eq!(store.snapshot_files().len(), 1, "temp must not be listed");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_rename_recovers_newer_snapshot_despite_stale_latest() {
    let dir = temp_dir("torn-rename");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    store.save(&snap(1, 0..4)).unwrap();

    // Crash between the snapshot rename and the LATEST update: the
    // seq-2 file is durable but the pointer still names seq 1.
    let mut plan = FaultPlan {
        crash_before_latest: true,
        ..FaultPlan::none()
    };
    assert!(store.save_with(&snap(2, 0..8), &mut plan).is_err());
    assert_eq!(
        fs::read_to_string(dir.join(LATEST_FILE)).unwrap().trim(),
        SnapshotStore::file_name(1),
        "pointer must still be stale for this scenario to test anything"
    );

    // LATEST is advisory: the newest-first scan must surface seq 2.
    let (_, loaded) = store.load_latest().snapshot.expect("recovery");
    assert_eq!(loaded.seq, 2);
    assert_eq!(loaded.entries.len(), 8);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_newest_snapshot_falls_back_with_warning() {
    let dir = temp_dir("bitflip");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    store.save(&snap(1, 0..4)).unwrap();
    let newest = store.save(&snap(2, 0..8)).unwrap();

    // Flip one payload byte of the newest snapshot on disk.
    let mut bytes = fs::read(&newest).unwrap();
    bytes[10] ^= 0x40;
    fs::write(&newest, &bytes).unwrap();

    let outcome = store.load_latest();
    let (_, loaded) = outcome.snapshot.expect("seq 1 fallback");
    assert_eq!(loaded.seq, 1);
    assert!(
        !outcome.warnings.is_empty(),
        "skipping a corrupt snapshot must warn"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_newest_snapshot_falls_back_with_warning() {
    let dir = temp_dir("truncate");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    store.save(&snap(1, 0..4)).unwrap();
    let newest = store.save(&snap(2, 0..8)).unwrap();

    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();

    let outcome = store.load_latest();
    let (_, loaded) = outcome.snapshot.expect("seq 1 fallback");
    assert_eq!(loaded.seq, 1);
    assert!(!outcome.warnings.is_empty());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn journal_torn_tail_replays_prefix() {
    let dir = temp_dir("journal-tear");
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join(JOURNAL_FILE);
    {
        let mut j = Journal::open(&path).unwrap();
        for id in 0..6 {
            j.append(&entry(id)).unwrap();
        }
    }
    // Tear the last record mid-vector, as a crash during append would.
    let bytes = fs::read(&path).unwrap();
    fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();

    let (entries, warnings) = Journal::replay(&path);
    assert_eq!(
        entries.iter().map(|e| e.id).collect::<Vec<_>>(),
        vec![0, 1, 2, 3, 4],
        "all records before the tear must replay"
    );
    assert!(!warnings.is_empty(), "a dropped tail must warn");

    // A journal that survived a tear must accept further appends once
    // recovery has cut the tear off, and replay them.
    let (mut j, recovered, _) = Journal::recover(&path).unwrap();
    assert_eq!(recovered, entries);
    j.append(&entry(99)).unwrap();
    let (entries, warnings) = Journal::replay(&path);
    assert_eq!(entries.last(), Some(&entry(99)));
    assert!(warnings.is_empty(), "{warnings:?}");
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn end_to_end_crash_recovery_merges_snapshot_and_journal() {
    let dir = temp_dir("end-to-end");
    let store = SnapshotStore::open(&dir, 3).unwrap();
    // Durable state: snapshot of ids 0..5, then journalled upserts of
    // id 3 (replacement) and ids 10, 11 (fresh), then a torn append.
    store.save(&snap(1, 0..5)).unwrap();
    let path = dir.join(JOURNAL_FILE);
    {
        let mut j = Journal::open(&path).unwrap();
        let replaced = Entry {
            id: 3,
            vec: vec![9.0, 9.0, 9.0],
        };
        j.append(&replaced).unwrap();
        j.append(&entry(10)).unwrap();
        j.append(&entry(11)).unwrap();
    }
    let mut bytes = fs::read(&path).unwrap();
    bytes.extend_from_slice(TORN_RECORD);
    fs::write(&path, &bytes).unwrap();

    let (entries, warnings) = recover_entries(&dir, 3).unwrap();
    let ids: Vec<u64> = entries.iter().map(|e| e.id).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 10, 11]);
    let replaced = entries.iter().find(|e| e.id == 3).unwrap();
    assert_eq!(
        replaced.vec,
        vec![9.0, 9.0, 9.0],
        "journal upsert must win over the snapshot value"
    );
    assert!(!warnings.is_empty(), "torn tail must surface a warning");
    fs::remove_dir_all(&dir).ok();
}

/// A persistent service whose directory is removed under it must refuse
/// inserts: the journal's open handle would otherwise keep acknowledging
/// records into an unlinked file that no restart reads. The second
/// refusal comes at once, not a check interval later.
#[test]
fn insert_after_the_store_directory_is_removed_is_an_io_error() {
    let mut rng = det_rng(31);
    let city = City::tiny(&mut rng);
    let data = DatasetBuilder::new(&city)
        .trips(30)
        .min_len(8)
        .build(&mut rng);
    let model = T2Vec::train(&T2VecConfig::tiny(), &data.train, &mut rng).expect("tiny training");
    let dir = temp_dir("removed-dir");
    let (service, _) =
        SimilarityService::open(Arc::new(model), ServeConfig::default(), &dir).expect("open");
    let trip = &data.test[0].points;
    service.insert(1, trip).expect("first insert is journalled");

    fs::remove_dir_all(&dir).unwrap();
    std::thread::sleep(JOURNAL_LINK_CHECK * 2);
    for id in [2, 3] {
        let err = service.insert(id, trip).unwrap_err();
        assert!(matches!(err, T2VecError::Io(_)), "insert {id}: {err}");
    }
    assert!(!dir.exists(), "the failed inserts recreated nothing");
}
