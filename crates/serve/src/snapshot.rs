//! Crash-safe persistence for the embedding store: framed snapshots
//! plus an append-only journal.
//!
//! ## Snapshots
//!
//! One snapshot per file, `snap-NNNNNN.json` (NNNNNN = sequence
//! number), framed under the magic `t2vec-snap v2` and saved, retained
//! and recovered by the [`t2vec_core::durable`] directory protocol —
//! the one model checkpoints use, fault-injection harness included.
//! Entries are sorted by ascending id (the store's canonical dump
//! order), so a snapshot of given contents is byte-identical no matter
//! the shard count or insert interleaving that produced them.
//!
//! **Format v2** adds an optional `ann` field carrying the ANN tier's
//! learned state ([`crate::ann::AnnState`]: centroids + quantizer
//! ranges + probe budgets). Posting lists and i8 codes are *not*
//! persisted — they are a pure function of (state, entries) and are
//! rebuilt on restore. v1 files (magic `t2vec-snap v1`, no `ann`
//! field) still open and simply restore no tier; the journal format is
//! unchanged across versions.
//!
//! ## Journal format
//!
//! One upsert per line:
//!
//! ```text
//! xxxxxxxx <compact JSON Entry>
//! ```
//!
//! where `xxxxxxxx` is the CRC-32 of everything after the single
//! separating space. Replay validates each record and stops at the
//! first torn or corrupt one (everything after a corruption is
//! untrusted — the conservative read of an append-only log), reporting
//! what it dropped as warnings, never a panic.

use crate::ann::AnnState;
use crate::store::Entry;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use t2vec_core::durable::fault::FaultPlan;
use t2vec_core::durable::{self, crc32, DurableDir};
use t2vec_core::T2VecError;
use t2vec_obs as obs;

/// Version tag of the on-disk snapshot format this build writes.
pub const SNAP_FORMAT_VERSION: u32 = 2;

/// Oldest format version this build still reads (v1 = pre-ANN).
pub const SNAP_MIN_VERSION: u32 = 1;

/// Magic string opening every snapshot trailer line this build writes.
const TRAILER_MAGIC: &str = "t2vec-snap v2";

/// Trailer magic of format v1 files (still accepted on read).
const TRAILER_MAGIC_V1: &str = "t2vec-snap v1";

/// File-name prefix of the data files.
const PREFIX: &str = "snap-";

/// Default journal file name inside a persistence directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// A point-in-time dump of the embedding store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// On-disk format version ([`SNAP_FORMAT_VERSION`]).
    pub version: u32,
    /// Monotonic sequence number (also the file number).
    pub seq: u64,
    /// Vector dimension of every entry.
    pub dim: usize,
    /// Entries sorted by ascending id.
    pub entries: Vec<Entry>,
    /// Learned ANN-tier state (format v2; absent in v1 files, hence the
    /// default — a v1 snapshot opens with no tier).
    #[serde(default)]
    pub ann: Option<AnnState>,
}

/// Serialises a snapshot to its framed byte form.
///
/// # Errors
/// Propagates serialisation failures (none occur for this data model).
pub fn snapshot_to_bytes(snap: &StoreSnapshot) -> Result<Vec<u8>, T2VecError> {
    Ok(durable::frame(TRAILER_MAGIC, &serde_json::to_string(snap)?))
}

/// Parses and validates a framed snapshot.
///
/// # Errors
/// [`T2VecError::Checkpoint`] when the frame is corrupt (see
/// [`durable::unframe`]) or the version is unsupported;
/// [`T2VecError::Serde`] when the payload is not a valid
/// `StoreSnapshot`.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<StoreSnapshot, T2VecError> {
    let payload = durable::unframe(bytes, &[TRAILER_MAGIC, TRAILER_MAGIC_V1])?;
    let snap: StoreSnapshot = serde_json::from_slice(payload)?;
    if !(SNAP_MIN_VERSION..=SNAP_FORMAT_VERSION).contains(&snap.version) {
        return Err(T2VecError::Checkpoint(format!(
            "unsupported format version {} (this build reads \
             {SNAP_MIN_VERSION}..={SNAP_FORMAT_VERSION})",
            snap.version
        )));
    }
    Ok(snap)
}

/// The result of [`SnapshotStore::load_latest`]: the newest valid
/// snapshot (if any survives validation) plus a warning per anomaly.
#[derive(Debug)]
pub struct SnapshotOutcome {
    /// The newest snapshot that passed validation, with its path.
    pub snapshot: Option<(PathBuf, StoreSnapshot)>,
    /// Human-readable descriptions of everything skipped or repaired.
    pub warnings: Vec<String>,
}

/// A directory of store snapshots with atomic writes, a `LATEST`
/// pointer, and retention of the last *K* files: a [`DurableDir`]
/// whose payload is a [`StoreSnapshot`] numbered by `seq`.
#[derive(Debug, Clone)]
pub struct SnapshotStore(DurableDir);

impl SnapshotStore {
    /// Opens (creating if needed) a snapshot directory retaining the
    /// last `keep` snapshots; errors as [`DurableDir::open`].
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, T2VecError> {
        DurableDir::open(dir, keep, PREFIX).map(Self)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        self.0.dir()
    }

    /// File name for the snapshot with sequence number `seq`.
    pub fn file_name(seq: u64) -> String {
        DurableDir::file_name(PREFIX, seq)
    }

    /// Saves `snap` atomically (see [`DurableDir::save_with`]) and
    /// returns the final path.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on any filesystem failure. A failed save
    /// never corrupts previously saved snapshots.
    pub fn save(&self, snap: &StoreSnapshot) -> Result<PathBuf, T2VecError> {
        self.save_with(snap, &mut FaultPlan::none())
    }

    /// [`SnapshotStore::save`] with injected faults — the fault suite's
    /// crash simulator; errors as [`DurableDir::save_with`].
    pub fn save_with(
        &self,
        snap: &StoreSnapshot,
        plan: &mut FaultPlan,
    ) -> Result<PathBuf, T2VecError> {
        let _span = obs::span!(target: "serve.snapshot", "save"; seq = snap.seq);
        let bytes = snapshot_to_bytes(snap)?;
        obs::counter!("serve.snapshot.saves").incr();
        obs::counter!("serve.snapshot.bytes_written").add(bytes.len() as u64);
        self.0.save_with(snap.seq, &bytes, plan)
    }

    /// All snapshot files in the directory, oldest first, with their
    /// sequence numbers. Temp files and foreign names are ignored.
    pub fn snapshot_files(&self) -> Vec<(PathBuf, u64)> {
        self.0.files()
    }

    /// Recovers the newest valid snapshot (see
    /// [`DurableDir::load_latest`]): corrupt files are skipped with a
    /// warning, the `LATEST` pointer is advisory.
    pub fn load_latest(&self) -> SnapshotOutcome {
        let (snapshot, warnings) = self
            .0
            .load_latest(|path| snapshot_from_bytes(&fs::read(path)?));
        SnapshotOutcome { snapshot, warnings }
    }
}

/// An append-only upsert log: the durability layer between snapshots.
///
/// Each accepted record is flushed to the OS before `append` returns
/// (surviving a process crash; callers wanting medium-failure
/// durability can layer fsync policies on top — the snapshot cadence
/// bounds the loss window either way). [`Journal::replay`] validates
/// record CRCs and stops at the first torn or corrupt line.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: fs::File,
}

impl Journal {
    /// Opens (creating if needed) the journal at `path` for appending.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the file cannot be opened.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, T2VecError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        Ok(Self { path, file })
    }

    /// Appends one upsert record and flushes it.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on write failure, [`T2VecError::Serde`] on
    /// serialisation failure.
    pub fn append(&mut self, entry: &Entry) -> Result<(), T2VecError> {
        let payload = serde_json::to_string(entry)?;
        debug_assert!(!payload.contains('\n'), "record must be a single line");
        let line = format!("{:08x} {payload}\n", crc32(payload.as_bytes()));
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        obs::counter!("serve.journal.appends").incr();
        obs::counter!("serve.journal.bytes_written").add(line.len() as u64);
        Ok(())
    }

    /// Truncates the journal (called after a successful snapshot — the
    /// snapshot now carries everything the journal did).
    ///
    /// # Errors
    /// [`T2VecError::Io`] on failure.
    pub fn truncate(&mut self) -> Result<(), T2VecError> {
        self.file.set_len(0)?;
        self.file.seek(std::io::SeekFrom::Start(0))?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Replays a journal file into `(entries, warnings)`: every valid
    /// record in order, stopping at the first torn or corrupt line
    /// (records after a corruption are untrusted and dropped, with a
    /// warning). A missing file replays to nothing.
    pub fn replay(path: &Path) -> (Vec<Entry>, Vec<String>) {
        let (entries, warnings, _) = replay_prefix(path);
        (entries, warnings)
    }

    /// [`Journal::replay`], then resumes appending *directly after the
    /// prefix replay accepted*: anything behind it — a torn tail, a
    /// flipped record and whatever followed — is cut off (and the cut
    /// fsynced) first. Appending behind rejected bytes instead would
    /// hide every later acknowledged record from the next recovery,
    /// which stops at the same bad line.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the file cannot be opened or truncated.
    pub fn recover(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<Entry>, Vec<String>), T2VecError> {
        let journal = Self::open(path)?;
        let (entries, warnings, accepted) = replay_prefix(&journal.path);
        if accepted < journal.file.metadata()?.len() {
            journal.file.set_len(accepted)?;
            journal.file.sync_all()?;
        }
        Ok((journal, entries, warnings))
    }
}

/// The replay loop: entries and warnings as [`Journal::replay`] returns
/// them, plus the byte length of the accepted prefix (whole,
/// newline-terminated, CRC-valid records only).
fn replay_prefix(path: &Path) -> (Vec<Entry>, Vec<String>, u64) {
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    let mut accepted = 0u64;
    let file = match fs::File::open(path) {
        Ok(f) => f,
        Err(e) => {
            if e.kind() != std::io::ErrorKind::NotFound {
                warnings.push(format!("journal {} unreadable: {e}", path.display()));
            }
            return (entries, warnings, accepted);
        }
    };
    let mut reader = std::io::BufReader::new(file);
    let mut line = Vec::new();
    let mut lineno = 0usize;
    let dropped = loop {
        lineno += 1;
        line.clear();
        match reader.read_until(b'\n', &mut line) {
            Ok(0) => return (entries, warnings, accepted),
            Ok(_) => match line.strip_suffix(b"\n").map(parse_record) {
                Some(Ok(entry)) => {
                    entries.extend(entry);
                    accepted += line.len() as u64;
                }
                Some(Err(msg)) => break format!("{msg}; dropping this and later records"),
                None => break "record lacks its newline (torn write); dropping it".to_string(),
            },
            Err(e) => break format!("read failed ({e}); dropping the tail"),
        }
    };
    let at = path.display();
    warnings.push(format!("journal {at} line {lineno}: {dropped}"));
    (entries, warnings, accepted)
}

/// Parses one journal line; `Ok(None)` for an empty line (the file's
/// trailing newline), `Err` with a reason for anything torn or corrupt.
fn parse_record(line: &[u8]) -> Result<Option<Entry>, String> {
    if line.is_empty() {
        return Ok(None);
    }
    let text = std::str::from_utf8(line).map_err(|_| "record is not UTF-8".to_string())?;
    let (crc_hex, payload) = text
        .split_once(' ')
        .ok_or_else(|| "record lacks a crc/payload separator (torn write?)".to_string())?;
    let stated = u32::from_str_radix(crc_hex, 16)
        .map_err(|_| format!("record crc field `{crc_hex}` is not hex"))?;
    let actual = crc32(payload.as_bytes());
    if stated != actual {
        return Err(format!(
            "record checksum mismatch: stated {stated:08x}, payload hashes to {actual:08x} \
             (torn or flipped write)"
        ));
    }
    let entry: Entry =
        serde_json::from_str(payload).map_err(|e| format!("record payload invalid: {e}"))?;
    Ok(Some(entry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_core::durable::LATEST_FILE;

    fn entries(n: u64) -> Vec<Entry> {
        (0..n)
            .map(|id| Entry {
                id,
                vec: vec![id as f32, -(id as f32 + 1.0), 0.5],
            })
            .collect()
    }

    fn snap(seq: u64, n: u64) -> StoreSnapshot {
        StoreSnapshot {
            version: SNAP_FORMAT_VERSION,
            seq,
            dim: 3,
            entries: entries(n),
            ann: None,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("t2vec-snap-unit-{}-{name}", std::process::id()));
        fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn framed_roundtrip_is_byte_identical() {
        let s = snap(3, 10);
        let bytes = snapshot_to_bytes(&s).unwrap();
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(snapshot_to_bytes(&back).unwrap(), bytes);
    }

    #[test]
    fn v1_snapshot_still_opens_with_no_ann_state() {
        // A format-v1 file verbatim: v1 trailer magic, no `ann` field.
        let payload = format!(
            "{{\"version\":1,\"seq\":7,\"dim\":3,\"entries\":{}}}",
            serde_json::to_string(&entries(2)).unwrap()
        );
        let trailer = format!(
            "t2vec-snap v1 crc32={:08x} len={}",
            crc32(payload.as_bytes()),
            payload.len()
        );
        let snap = snapshot_from_bytes(format!("{payload}\n{trailer}\n").as_bytes())
            .expect("v1 files must keep opening");
        assert_eq!(snap.version, 1);
        assert_eq!(snap.entries, entries(2));
        assert!(snap.ann.is_none(), "v1 has no tier to restore");
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let bytes = snapshot_to_bytes(&snap(1, 4)).unwrap();
        assert!(snapshot_from_bytes(&bytes[..bytes.len() / 2]).is_err());
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        assert!(snapshot_from_bytes(&flipped).is_err());
        assert!(snapshot_from_bytes(b"").is_err());
        assert!(snapshot_from_bytes(b"junk\nmore junk\n").is_err());
    }

    #[test]
    fn store_saves_updates_latest_and_retains_k() {
        let dir = temp_dir("retention");
        let store = SnapshotStore::open(&dir, 2).unwrap();
        for seq in 1..=4 {
            store.save(&snap(seq, seq)).unwrap();
        }
        let files = store.snapshot_files();
        assert_eq!(
            files.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec![3, 4]
        );
        let latest = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
        assert_eq!(latest.trim(), SnapshotStore::file_name(4));
        let out = store.load_latest();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.snapshot.unwrap().1.seq, 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = temp_dir("empty");
        let store = SnapshotStore::open(&dir, 3).unwrap();
        let out = store.load_latest();
        assert!(out.snapshot.is_none());
        // A fresh directory is the normal first boot, not damage.
        assert!(out.warnings.is_empty(), "fresh dir must not warn");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_roundtrip_and_truncate() {
        let dir = temp_dir("journal");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::open(&path).unwrap();
        for e in entries(5) {
            j.append(&e).unwrap();
        }
        let (replayed, warnings) = Journal::replay(&path);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(replayed, entries(5));
        j.truncate().unwrap();
        let (replayed, warnings) = Journal::replay(&path);
        assert!(replayed.is_empty() && warnings.is_empty());
        // Appends after a truncate keep working.
        j.append(&entries(1)[0]).unwrap();
        assert_eq!(Journal::replay(&path).0.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_missing_file_replays_empty() {
        let (e, w) = Journal::replay(Path::new("/nonexistent/journal.log"));
        assert!(e.is_empty() && w.is_empty());
    }

    #[test]
    fn journal_torn_tail_recovers_prefix() {
        let dir = temp_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::open(&path).unwrap();
        for e in entries(3) {
            j.append(&e).unwrap();
        }
        drop(j);
        // Simulate a crash mid-append: append half a record, no newline.
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(b"deadbeef {\"id\":99,\"ve").unwrap();
        drop(raw);
        let (replayed, warnings) = Journal::replay(&path);
        assert_eq!(replayed, entries(3), "intact prefix must replay");
        assert_eq!(warnings.len(), 1, "torn tail must warn: {warnings:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_mid_file_bitflip_drops_suffix_without_panic() {
        let dir = temp_dir("bitflip");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut j = Journal::open(&path).unwrap();
        for e in entries(4) {
            j.append(&e).unwrap();
        }
        drop(j);
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte in the second record.
        let second_line_start = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[second_line_start + 12] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (replayed, warnings) = Journal::replay(&path);
        assert_eq!(replayed, entries(1), "only the record before the flip");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
