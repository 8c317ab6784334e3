//! Fault injection against the checkpoint store: every corruption and
//! crash scenario must degrade to "recover the newest valid checkpoint,
//! with a warning" — never a panic, never silently loading bad data.
//! The save and recovery scan driven here are `t2vec_core::durable`'s,
//! the implementation the serving snapshots share (their battery is
//! `crates/serve/tests/{snapshot,ann}_faults.rs`).

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use t2vec::prelude::*;
use t2vec::serve::snapshot::SNAP_FORMAT_VERSION;
use t2vec::serve::{SnapshotStore, StoreSnapshot};
use t2vec_core::durable::fault::FaultPlan;
use t2vec_core::durable::LATEST_FILE;
use t2vec_trajgen::dataset::Dataset;

fn temp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("t2vec-faults-{}-{name}", std::process::id()));
    fs::remove_dir_all(&p).ok();
    p
}

/// One short real training run, shared by every test: its per-epoch
/// checkpoints are cloned into a fresh store per scenario.
fn fixtures() -> &'static (Dataset, T2VecConfig, Vec<Checkpoint>) {
    static SHARED: OnceLock<(Dataset, T2VecConfig, Vec<Checkpoint>)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mut rng = det_rng(620);
        let city = City::tiny(&mut rng);
        let ds = DatasetBuilder::new(&city)
            .trips(40)
            .min_len(6)
            .build(&mut rng);
        let mut config = T2VecConfig::tiny();
        config.max_epochs = 3;
        config.patience = 10;
        let mut trainer = Trainer::new(&config, &ds.train, &ds.val, 621).unwrap();
        let mut checkpoints = Vec::new();
        while trainer.step_epoch().is_some() {
            checkpoints.push(trainer.checkpoint());
        }
        assert_eq!(checkpoints.len(), 3);
        (ds, config, checkpoints)
    })
}

/// A store containing all three epoch checkpoints, saved normally.
fn populated_store(name: &str) -> (CheckpointStore, PathBuf) {
    let dir = temp_dir(name);
    let store = CheckpointStore::open(&dir, 5).unwrap();
    for ckpt in &fixtures().2 {
        store.save(ckpt).unwrap();
    }
    (store, dir)
}

fn newest_path(store: &CheckpointStore) -> PathBuf {
    store.checkpoint_files().last().unwrap().0.clone()
}

#[test]
fn truncated_newest_file_falls_back_to_previous() {
    let (store, dir) = populated_store("truncated");
    let newest = newest_path(&store);
    let bytes = fs::read(&newest).unwrap();
    fs::write(&newest, &bytes[..bytes.len() / 3]).unwrap();

    let out = store.load_latest();
    let (path, ckpt) = out.checkpoint.expect("must fall back, not give up");
    assert_eq!(ckpt.epochs_done, 2, "newest valid is the epoch-2 file");
    assert_ne!(path, newest);
    assert!(
        out.warnings.iter().any(|w| w.contains("corrupt")),
        "{:?}",
        out.warnings
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn flipped_checksum_byte_falls_back_to_previous() {
    let (store, dir) = populated_store("bitflip");
    let newest = newest_path(&store);
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&newest, &bytes).unwrap();

    let out = store.load_latest();
    let (_, ckpt) = out.checkpoint.expect("must fall back, not give up");
    assert_eq!(ckpt.epochs_done, 2);
    assert!(
        out.warnings.iter().any(|w| w.contains("corrupt")),
        "{:?}",
        out.warnings
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_latest_pointer_still_recovers_newest() {
    let (store, dir) = populated_store("no-latest");
    fs::remove_file(dir.join(LATEST_FILE)).unwrap();

    let out = store.load_latest();
    let (_, ckpt) = out.checkpoint.expect("scan must not need the pointer");
    assert_eq!(ckpt.epochs_done, 3);
    assert!(
        out.warnings.iter().any(|w| w.contains("LATEST")),
        "{:?}",
        out.warnings
    );
    fs::remove_dir_all(&dir).ok();
}

/// One `LATEST` policy for both payload types: a missing pointer is the
/// normal first boot in a directory with no data file (silent), and a
/// lost pointer in one that holds data (warned, data still recovered).
#[test]
fn missing_latest_pointer_policy_is_shared_by_checkpoints_and_snapshots() {
    /// Opens `dir`, optionally saves one file and deletes the pointer,
    /// then recovers: (found a file, warnings).
    type Case = fn(&Path, bool) -> (bool, Vec<String>);
    let checkpoint: Case = |dir, populated| {
        let store = CheckpointStore::open(dir, 5).unwrap();
        if populated {
            store.save(&fixtures().2[0]).unwrap();
            fs::remove_file(dir.join(LATEST_FILE)).unwrap();
        }
        let out = store.load_latest();
        (out.checkpoint.is_some(), out.warnings)
    };
    let snapshot: Case = |dir, populated| {
        let store = SnapshotStore::open(dir, 5).unwrap();
        if populated {
            let snap = StoreSnapshot {
                version: SNAP_FORMAT_VERSION,
                seq: 1,
                dim: 2,
                entries: Vec::new(),
                ann: None,
            };
            store.save(&snap).unwrap();
            fs::remove_file(dir.join(LATEST_FILE)).unwrap();
        }
        let out = store.load_latest();
        (out.snapshot.is_some(), out.warnings)
    };
    for (payload, case) in [("checkpoint", checkpoint), ("snapshot", snapshot)] {
        for populated in [false, true] {
            let dir = temp_dir(&format!("latest-policy-{payload}-{populated}"));
            let (found, warnings) = case(&dir, populated);
            assert_eq!(found, populated, "{payload}: {warnings:?}");
            let warned = warnings.iter().filter(|w| w.contains("LATEST")).count();
            assert_eq!(warned, usize::from(populated), "{payload}: {warnings:?}");
            assert_eq!(warnings.len(), warned, "{payload}: {warnings:?}");
            fs::remove_dir_all(&dir).ok();
        }
    }
}

#[test]
fn failed_write_leaves_previous_checkpoints_intact() {
    let (store, dir) = populated_store("enospc");
    let (_, _, checkpoints) = fixtures();
    // Re-save the newest checkpoint, dying 40 bytes into the payload.
    let mut plan = FaultPlan {
        write_fail_at: Some(40),
        ..FaultPlan::none()
    };
    let err = store.save_with(&checkpoints[2], &mut plan).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");

    let out = store.load_latest();
    assert_eq!(out.checkpoint.unwrap().1.epochs_done, 3);
    assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_before_rename_is_invisible_to_load() {
    let dir = temp_dir("pre-rename");
    let store = CheckpointStore::open(&dir, 5).unwrap();
    let (_, _, checkpoints) = fixtures();
    store.save(&checkpoints[0]).unwrap();
    let mut plan = FaultPlan {
        crash_before_rename: true,
        ..FaultPlan::none()
    };
    store.save_with(&checkpoints[1], &mut plan).unwrap_err();

    // Only the temp file exists for epoch 2; the scan ignores it.
    let out = store.load_latest();
    assert_eq!(out.checkpoint.unwrap().1.epochs_done, 1);
    assert!(out.warnings.is_empty(), "{:?}", out.warnings);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn torn_rename_recovers_newest_despite_stale_pointer() {
    let dir = temp_dir("torn");
    let store = CheckpointStore::open(&dir, 5).unwrap();
    let (_, _, checkpoints) = fixtures();
    store.save(&checkpoints[0]).unwrap();
    // Crash between the checkpoint rename and the LATEST update: the
    // epoch-2 file is durable but the pointer still names epoch 1.
    let mut plan = FaultPlan {
        crash_before_latest: true,
        ..FaultPlan::none()
    };
    store.save_with(&checkpoints[1], &mut plan).unwrap_err();
    let pointer = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
    assert_eq!(pointer.trim(), CheckpointStore::file_name(1));

    let out = store.load_latest();
    let (_, ckpt) = out
        .checkpoint
        .expect("newest file must win over the pointer");
    assert_eq!(ckpt.epochs_done, 2);
    assert!(
        out.warnings.iter().any(|w| w.contains("LATEST")),
        "{:?}",
        out.warnings
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_pointer_write_keeps_old_pointer_and_new_checkpoint() {
    let dir = temp_dir("pointer-fail");
    let store = CheckpointStore::open(&dir, 5).unwrap();
    let (_, _, checkpoints) = fixtures();
    store.save(&checkpoints[0]).unwrap();
    let mut plan = FaultPlan {
        latest_write_fail_at: Some(2),
        ..FaultPlan::none()
    };
    store.save_with(&checkpoints[1], &mut plan).unwrap_err();

    // Pointer still valid (the old one), checkpoint data newer; the
    // scan resolves the disagreement in favour of the data.
    let pointer = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
    assert_eq!(pointer.trim(), CheckpointStore::file_name(1));
    let out = store.load_latest();
    assert_eq!(out.checkpoint.unwrap().1.epochs_done, 2);
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_checkpoints_corrupt_resumes_fresh_with_warnings() {
    let (store, dir) = populated_store("all-corrupt");
    for (path, _) in store.checkpoint_files() {
        fs::write(&path, b"garbage\n").unwrap();
    }
    let out = store.load_latest();
    assert!(out.checkpoint.is_none());
    assert_eq!(out.warnings.len(), 3, "{:?}", out.warnings);

    // The trainer-level API degrades to a fresh start, not a panic.
    let (ds, config, _) = fixtures();
    let (trainer, notes) = Trainer::resume_from(config, &ds.train, &ds.val, 622, &store).unwrap();
    assert_eq!(trainer.epochs_done(), 0);
    assert!(
        notes.iter().any(|n| n.contains("starting fresh")),
        "{notes:?}"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_checkpoint_with_wrong_config_is_an_error_not_a_fallback() {
    let (store, dir) = populated_store("wrong-config");
    let (ds, config, _) = fixtures();
    let mut other = config.clone();
    other.learning_rate *= 2.0;
    let err = Trainer::resume_from(&other, &ds.train, &ds.val, 623, &store).unwrap_err();
    assert!(
        matches!(err, t2vec_core::T2VecError::Checkpoint(_)),
        "{err}"
    );
    fs::remove_dir_all(&dir).ok();
}
