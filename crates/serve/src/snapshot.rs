//! Crash-safe persistence for the embedding store: framed snapshots
//! plus an append-only journal, both raw little-endian — the durable
//! bytes *are* the vectors.
//!
//! ## Snapshots
//!
//! One snapshot per file, `snap-NNNNNN.bin` (NNNNNN = sequence number),
//! framed under the magic `t2vec-snap v3` and saved, retained and
//! recovered by the [`t2vec_core::durable`] directory protocol — the
//! one model checkpoints use, fault-injection harness included.
//! Entries are sorted by ascending id (the store's canonical dump
//! order), so a snapshot of given contents is byte-identical no matter
//! the shard count or insert interleaving that produced them.
//!
//! **Format v3** (the only one this build writes). The frame's payload,
//! every integer and float little-endian:
//!
//! ```text
//! offset  size          field
//!      0  4             version, u32 (= 3)
//!      4  4             flags, u32: bit 0 = ANN state present,
//!                                   bit 1 = its quantizer present
//!      8  8             seq, u64
//!     16  8             dim, u64
//!     24  8             entries, u64
//!     32  8             nlist, u64   (ANN cells; 0 without state)
//!     40  8             nprobe, u64  (u64::MAX = every cell)
//!     48  8             rerank, u64  (u64::MAX = every candidate)
//!     56  entries·(8 + 4·dim)   rows: id u64 | f32 × dim, ascending id
//!      …  nlist·4·dim           centroids, row-major f32   (flag bit 0)
//!      …  3·4·dim               quantizer lo | scale | bias (flag bit 1)
//! ```
//!
//! followed by the frame trailer `\nt2vec-snap v3 crc32=… len=…\n`
//! ([`t2vec_core::durable::frame`]). The ANN slabs are the tier's
//! learned state ([`crate::ann::AnnState`]); posting lists, i8 codes
//! and their norms are *not* persisted — they are a pure function of
//! (state, entries) and are rebuilt on restore. The decoder checks every
//! count against the bytes that remain before it allocates for it, and
//! refuses quantizer slabs no trained quantizer can hold (a non-finite
//! value, a negative scale) rather than reopen the tier unquantized.
//!
//! **Formats v1 and v2** (read only; `snap-NNNNNN.json`) are one line
//! of compact JSON — `{"version","seq","dim","entries":[{"id","vec"}…]}`
//! plus, in v2, an `"ann"` object — under the trailers `t2vec-snap v1`
//! / `t2vec-snap v2`. They still open (a v1 file restores no tier) and
//! count toward retention until newer snapshots retire them.
//!
//! ## Journal
//!
//! **Format v2** (the only one this build writes): the 17-byte file
//! magic `t2vec-journal v2\n`, then one record per upsert:
//!
//! ```text
//! offset   size    field
//!      0   4       len, u32 = 8 + 4·dim (the bytes between len and crc)
//!      4   8       id, u64
//!     12   4·dim   vec, f32 × dim
//! 4 + len  4       crc32 of bytes 0 .. 4 + len, u32
//! ```
//!
//! Each record reaches the file in a single `write`. Replay validates
//! every record and stops at the first torn or corrupt one (everything
//! after a corruption is untrusted — the conservative read of an
//! append-only log), reporting what it dropped as warnings, never a
//! panic; a `len` that runs past the end of the file is a torn tail,
//! not an allocation.
//!
//! **Format v1** (read only) is one text line per upsert,
//! `xxxxxxxx <compact JSON Entry>\n`, `xxxxxxxx` the CRC-32 of
//! everything after the single separating space. [`Journal::recover`]
//! reads such a file once and rewrites its accepted records as v2.

use crate::ann::AnnState;
use crate::store::Entry;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use t2vec_core::ann::ScalarQuantizer;
use t2vec_core::durable::fault::FaultPlan;
use t2vec_core::durable::{self, crc32, DurableDir};
use t2vec_core::T2VecError;
use t2vec_obs as obs;

/// Version tag of the on-disk snapshot format this build writes.
pub const SNAP_FORMAT_VERSION: u32 = 3;

/// Oldest format version this build still reads (v1 = pre-ANN).
pub const SNAP_MIN_VERSION: u32 = 1;

/// Magic string opening every snapshot trailer line this build writes.
const TRAILER_MAGIC: &str = "t2vec-snap v3";

/// Trailer magics of the JSON formats (still accepted on read).
const TRAILER_MAGIC_V2: &str = "t2vec-snap v2";
const TRAILER_MAGIC_V1: &str = "t2vec-snap v1";

/// Byte length of the fixed v3 header.
const HEADER_LEN: usize = 56;

/// v3 header flag: the payload ends with ANN state.
const FLAG_ANN: u32 = 1;

/// v3 header flag: the ANN state includes quantizer ranges.
const FLAG_QUANTIZER: u32 = 2;

/// File-name prefix of the data files.
const PREFIX: &str = "snap-";

/// Default journal file name inside a persistence directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// How long a journal file seen linked is trusted before an append
/// checks again that it still has a name on disk. One check costs an
/// `fstat` (~1 µs, as much as the append's `write`), so a bulk load pays
/// it about once a millisecond instead of once a record.
pub const JOURNAL_LINK_CHECK: Duration = Duration::from_millis(1);

/// The bytes every v2 journal file starts with.
const JOURNAL_MAGIC: &[u8] = b"t2vec-journal v2\n";

/// A point-in-time dump of the embedding store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// On-disk format version: [`SNAP_FORMAT_VERSION`] in a snapshot to
    /// be saved, the file's own in one that was read.
    pub version: u32,
    /// Monotonic sequence number (also the file number).
    pub seq: u64,
    /// Vector dimension of every entry.
    pub dim: usize,
    /// Entries sorted by ascending id.
    pub entries: Vec<Entry>,
    /// Learned ANN-tier state (absent in v1 files, hence the default —
    /// a v1 snapshot opens with no tier).
    #[serde(default)]
    pub ann: Option<AnnState>,
}

/// Appends `values` as little-endian bytes.
fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes little-endian floats; `bytes.len()` is a multiple of four.
fn get_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Decodes the little-endian `u64` at the head of `bytes`.
fn get_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(word)
}

/// Decodes the little-endian `u32` at the head of `bytes`.
fn get_u32(bytes: &[u8]) -> u32 {
    let mut word = [0u8; 4];
    word.copy_from_slice(&bytes[..4]);
    u32::from_le_bytes(word)
}

/// Serialises a snapshot to its framed byte form (format v3, whatever
/// `snap.version` says: a snapshot read from an older file re-encodes
/// as the current one).
///
/// # Errors
/// [`T2VecError::InvalidInput`] when an entry, a centroid or the
/// quantizer disagrees with `snap.dim` — the format stores `dim` once.
pub fn snapshot_to_bytes(snap: &StoreSnapshot) -> Result<Vec<u8>, T2VecError> {
    let dim = snap.dim;
    let ragged = |what: String| {
        T2VecError::InvalidInput(format!("snapshot {}: {what} is not {dim}-dim", snap.seq))
    };
    if let Some(e) = snap.entries.iter().find(|e| e.vec.len() != dim) {
        return Err(ragged(format!("entry {}", e.id)));
    }
    let mut flags = 0;
    let (mut nlist, mut nprobe, mut rerank) = (0, 0, 0);
    if let Some(ann) = &snap.ann {
        if ann.centroids.iter().any(|c| c.len() != dim) {
            return Err(ragged("an ANN centroid".into()));
        }
        if ann.quantizer.as_ref().is_some_and(|q| q.dim() != dim) {
            return Err(ragged("the ANN quantizer".into()));
        }
        flags = FLAG_ANN;
        if ann.quantizer.is_some() {
            flags |= FLAG_QUANTIZER;
        }
        (nlist, nprobe, rerank) = (ann.centroids.len(), ann.nprobe, ann.rerank);
    }
    // An upper bound (the three quantizer slabs may be absent).
    let floats = snap.entries.len() * dim + nlist * dim + 3 * dim;
    let mut out = Vec::with_capacity(HEADER_LEN + snap.entries.len() * 8 + floats * 4);
    out.extend_from_slice(&SNAP_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&flags.to_le_bytes());
    for word in [snap.seq, dim as u64, snap.entries.len() as u64] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    for word in [nlist, nprobe, rerank] {
        out.extend_from_slice(&(word as u64).to_le_bytes());
    }
    for e in &snap.entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        put_f32s(&mut out, &e.vec);
    }
    if let Some(ann) = &snap.ann {
        for c in &ann.centroids {
            put_f32s(&mut out, c);
        }
        if let Some(q) = &ann.quantizer {
            for slab in [q.lo(), q.scale(), q.bias()] {
                put_f32s(&mut out, slab);
            }
        }
    }
    Ok(durable::frame(TRAILER_MAGIC, &out))
}

/// Parses and validates a framed snapshot of any supported format.
///
/// # Errors
/// [`T2VecError::Checkpoint`] when the frame is corrupt (see
/// [`durable::unframe`]), the version is unsupported or a v3 payload's
/// counts disagree with its length; [`T2VecError::Serde`] when a v1/v2
/// payload is not a valid `StoreSnapshot`.
pub fn snapshot_from_bytes(bytes: &[u8]) -> Result<StoreSnapshot, T2VecError> {
    let magics = [TRAILER_MAGIC, TRAILER_MAGIC_V2, TRAILER_MAGIC_V1];
    let (magic, payload) = durable::unframe(bytes, &magics)?;
    let snap: StoreSnapshot = if magic == TRAILER_MAGIC {
        decode_v3(payload).map_err(T2VecError::Checkpoint)?
    } else {
        serde_json::from_slice(payload)?
    };
    if !(SNAP_MIN_VERSION..=SNAP_FORMAT_VERSION).contains(&snap.version) {
        return Err(T2VecError::Checkpoint(format!(
            "unsupported format version {} (this build reads \
             {SNAP_MIN_VERSION}..={SNAP_FORMAT_VERSION})",
            snap.version
        )));
    }
    Ok(snap)
}

/// Decodes a v3 payload (see the module docs for the layout). Every
/// slab is cut from what remains, so a count the bytes cannot back is
/// an error before anything is allocated for it.
fn decode_v3(payload: &[u8]) -> Result<StoreSnapshot, String> {
    if payload.len() < HEADER_LEN {
        return Err(format!(
            "payload of {} bytes is shorter than the {HEADER_LEN}-byte header",
            payload.len()
        ));
    }
    let (header, mut rest) = payload.split_at(HEADER_LEN);
    let flags = get_u32(&header[4..]);
    if flags & !(FLAG_ANN | FLAG_QUANTIZER) != 0 || flags == FLAG_QUANTIZER {
        return Err(format!("unknown header flags {flags:#x}"));
    }
    let count = |at: usize, what: &str| {
        let n = get_u64(&header[at..]);
        usize::try_from(n).map_err(|_| format!("{what} {n} does not fit this host"))
    };
    let (dim, entries, nlist) = (
        count(16, "dimension")?,
        count(24, "entry count")?,
        count(32, "cell count")?,
    );
    let row_len = dim.checked_mul(4).filter(|n| n.checked_add(8).is_some());
    let row_len = row_len.ok_or_else(|| format!("dimension {dim} overflows a row length"))?;
    let id_row_len = row_len + 8;
    let mut take = |count: usize, each: usize, what: &str| {
        let slab = count.checked_mul(each).filter(|&n| n <= rest.len());
        let slab = slab.ok_or_else(|| {
            format!(
                "header promises {count} {what} of {each} bytes, {} remain",
                rest.len()
            )
        })?;
        let (head, tail) = rest.split_at(slab);
        rest = tail;
        Ok::<_, String>(head)
    };
    let rows = take(entries, id_row_len, "entries")?;
    let mut snap = StoreSnapshot {
        version: get_u32(header),
        seq: get_u64(&header[8..]),
        dim,
        entries: Vec::new(),
        ann: None,
    };
    if flags & FLAG_ANN != 0 {
        if dim == 0 {
            return Err("ANN state over zero-dim vectors".into());
        }
        let centroids = take(nlist, row_len, "centroids")?;
        // A quantized tier must not reopen as an f32-row one: slabs the
        // quantizer rejects are an error, not "no quantizer".
        let quantizer = if flags & FLAG_QUANTIZER != 0 {
            let mut slab = |what| take(1, row_len, what).map(get_f32s);
            let q = ScalarQuantizer::from_parts(
                slab("quantizer minima")?,
                slab("quantizer scales")?,
                slab("quantizer biases")?,
            );
            Some(q.ok_or("quantizer slabs hold a non-finite or negative value")?)
        } else {
            None
        };
        // The budgets saturate: "every cell" survives a 32-bit host.
        let budget = |at: usize| usize::try_from(get_u64(&header[at..])).unwrap_or(usize::MAX);
        snap.ann = Some(AnnState {
            nprobe: budget(40),
            rerank: budget(48),
            centroids: centroids.chunks_exact(row_len).map(get_f32s).collect(),
            quantizer,
        });
    }
    if !rest.is_empty() {
        return Err(format!("{} bytes follow the last slab", rest.len()));
    }
    snap.entries = rows
        .chunks_exact(id_row_len)
        .map(|row| Entry {
            id: get_u64(row),
            vec: get_f32s(&row[8..]),
        })
        .collect();
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
        DurableDir::open(dir, keep, PREFIX, "bin").map(Self)
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        self.0.dir()
    }

    /// File name this build gives the snapshot with sequence number
    /// `seq`.
    pub fn file_name(seq: u64) -> String {
        DurableDir::file_name(PREFIX, seq, "bin")
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

    /// All snapshot files in the directory — `.bin` and the older
    /// `.json` alike — oldest first, with their sequence numbers. Temp
    /// files and foreign names are ignored.
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
/// Each accepted record is handed to the OS, in one `write`, before
/// `append` returns (surviving a process crash; callers wanting
/// medium-failure durability can layer fsync policies on top — the
/// snapshot cadence bounds the loss window either way). Once the file
/// has been unlinked (its directory removed, say), appends fail rather
/// than write where no replay can find it — all of them from the first
/// that comes [`JOURNAL_LINK_CHECK`] after the file was last seen linked.
/// [`Journal::replay`] validates record CRCs and stops at the first
/// torn or corrupt record.
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    /// The record being appended, reused across appends.
    buf: Vec<u8>,
    /// When `file` was last seen to have a name on disk.
    linked_at: Instant,
}

impl Journal {
    /// Opens the v2 journal at `path` for appending, creating it (file
    /// magic only) if it is missing or empty.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the file cannot be opened;
    /// [`T2VecError::Checkpoint`] when it holds anything but a v2
    /// journal — appending behind foreign bytes would hide the new
    /// records from every later replay. [`Journal::recover`] opens such
    /// a file: it migrates a v1 journal and repairs a damaged one.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, T2VecError> {
        let path = path.into();
        let mut journal = Self::open_unchecked(&path)?;
        let mut magic = [0u8; JOURNAL_MAGIC.len()];
        if journal.file.metadata()?.len() == 0 {
            journal.file.write_all(JOURNAL_MAGIC)?;
        } else if journal.file.read_exact(&mut magic).is_err() || magic != JOURNAL_MAGIC {
            return Err(T2VecError::Checkpoint(format!(
                "{} is not a v2 journal; Journal::recover migrates or repairs it",
                path.display()
            )));
        }
        Ok(journal)
    }

    /// Opens `path` for reading and appending, whatever it holds.
    fn open_unchecked(path: &Path) -> Result<Self, T2VecError> {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let file = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        Ok(Self {
            file,
            buf: Vec::new(),
            linked_at: Instant::now(),
        })
    }

    /// Appends one upsert record and hands it to the OS.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on write failure or when the journal file no
    /// longer has a name on disk (on Unix, checked after the write at
    /// most once per [`JOURNAL_LINK_CHECK`] while the file stays linked,
    /// and at every append once it is not),
    /// [`T2VecError::InvalidInput`] for a vector too long for the
    /// record's `u32` length.
    pub fn append(&mut self, entry: &Entry) -> Result<(), T2VecError> {
        self.buf.clear();
        put_record(&mut self.buf, entry)?;
        self.file.write_all(&self.buf)?;
        self.file.flush()?;
        #[cfg(unix)]
        if self.linked_at.elapsed() >= JOURNAL_LINK_CHECK {
            use std::os::unix::fs::MetadataExt;
            if self.file.metadata()?.nlink() == 0 {
                return Err(T2VecError::Io(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "journal file was unlinked; the record would be lost",
                )));
            }
            self.linked_at = Instant::now();
        }
        obs::counter!("serve.journal.appends").incr();
        obs::counter!("serve.journal.bytes_written").add(self.buf.len() as u64);
        Ok(())
    }

    /// Truncates the journal to its file magic (called after a
    /// successful snapshot — the snapshot now carries everything the
    /// journal did).
    ///
    /// # Errors
    /// [`T2VecError::Io`] on failure.
    pub fn truncate(&mut self) -> Result<(), T2VecError> {
        // An empty file in between (a crash here) reopens as a fresh
        // journal.
        self.file.set_len(0)?;
        self.file.write_all(JOURNAL_MAGIC)?;
        self.file.sync_all()?;
        Ok(())
    }

    /// Replays a journal file (v2, or v1 text) into `(entries,
    /// warnings)`: every valid record in order, stopping at the first
    /// torn or corrupt one (records after a corruption are untrusted
    /// and dropped, with a warning). A missing file replays to nothing.
    pub fn replay(path: &Path) -> (Vec<Entry>, Vec<String>) {
        match read_or_empty(path) {
            Ok(bytes) => {
                let (entries, warnings, _) = replay_bytes(&bytes, path);
                (entries, warnings)
            }
            Err(e) => (
                Vec::new(),
                vec![format!("journal {} unreadable: {e}", path.display())],
            ),
        }
    }

    /// [`Journal::replay`], then resumes appending *directly after the
    /// prefix replay accepted*: anything behind it — a torn tail, a
    /// flipped record and whatever followed — is cut off (and the cut
    /// fsynced) first. Appending behind rejected bytes instead would
    /// hide every later acknowledged record from the next recovery,
    /// which stops at the same bad record. A v1 text journal is
    /// replaced, atomically, by its accepted records in v2 form.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the file cannot be read, opened,
    /// truncated or replaced.
    pub fn recover(
        path: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<Entry>, Vec<String>), T2VecError> {
        let path = path.into();
        let bytes = read_or_empty(&path)?;
        let (entries, warnings, accepted) = replay_bytes(&bytes, &path);
        let Some(accepted) = accepted else {
            let mut migrated = JOURNAL_MAGIC.to_vec();
            for e in &entries {
                put_record(&mut migrated, e)?;
            }
            durable::replace_file(&path, &migrated)?;
            obs::info!(target: "serve.journal", "v1 journal rewritten as v2";
                records = entries.len(),
            );
            return Ok((Self::open_unchecked(&path)?, entries, warnings));
        };
        let mut journal = Self::open_unchecked(&path)?;
        if accepted < bytes.len() {
            journal.file.set_len(accepted as u64)?;
            journal.file.sync_all()?;
        }
        if accepted == 0 {
            journal.file.write_all(JOURNAL_MAGIC)?;
        }
        Ok((journal, entries, warnings))
    }
}

/// The journal file's bytes; a missing file reads as empty.
fn read_or_empty(path: &Path) -> std::io::Result<Vec<u8>> {
    match fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        other => other,
    }
}

/// Appends `entry` to `out` as one v2 record (see the module docs).
fn put_record(out: &mut Vec<u8>, entry: &Entry) -> Result<(), T2VecError> {
    let len = entry
        .vec
        .len()
        .checked_mul(4)
        .and_then(|n| n.checked_add(8));
    let len = len.and_then(|n| u32::try_from(n).ok()).ok_or_else(|| {
        T2VecError::InvalidInput(format!(
            "a {}-dim vector does not fit a journal record",
            entry.vec.len()
        ))
    })?;
    let start = out.len();
    out.reserve(len as usize + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&entry.id.to_le_bytes());
    put_f32s(out, &entry.vec);
    let crc = crc32(&out[start..]);
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// Decodes the v2 record at the head of `rest` into the entry and the
/// bytes it occupied; `Err` with a reason for anything torn or corrupt.
/// `len` is checked against what remains before anything is allocated.
fn get_record(rest: &[u8]) -> Result<(Entry, usize), String> {
    if rest.len() < 4 {
        return Err("record header is torn".into());
    }
    let len = get_u32(rest) as usize;
    if len < 8 || !len.is_multiple_of(4) {
        return Err(format!("record length {len} is not 8 + 4·dim"));
    }
    // The record is `rest[..end]`, its checksum the four bytes behind.
    let end = len.checked_add(4).filter(|&end| end <= rest.len() - 4);
    let Some(end) = end else {
        return Err(format!(
            "record of {len} bytes runs past the end of the file (torn write)"
        ));
    };
    let (stated, actual) = (get_u32(&rest[end..]), crc32(&rest[..end]));
    if stated != actual {
        return Err(format!(
            "record checksum mismatch: stated {stated:08x}, record hashes to {actual:08x} \
             (torn or flipped write)"
        ));
    }
    let entry = Entry {
        id: get_u64(&rest[4..]),
        vec: get_f32s(&rest[12..end]),
    };
    Ok((entry, end + 4))
}

/// The replay loop over a journal file's bytes: entries and warnings as
/// [`Journal::replay`] returns them, plus the byte length of the
/// accepted v2 prefix (file magic and whole, CRC-valid records only) —
/// `None` when the file is not v2 at all but v1 text, whose accepted
/// records [`Journal::recover`] rewrites.
fn replay_bytes(bytes: &[u8], path: &Path) -> (Vec<Entry>, Vec<String>, Option<usize>) {
    let at = path.display();
    let mut entries = Vec::new();
    let mut warnings = Vec::new();
    if !bytes.starts_with(JOURNAL_MAGIC) {
        if bytes.is_empty() {
            return (entries, warnings, Some(0));
        }
        if JOURNAL_MAGIC.starts_with(bytes) {
            warnings.push(format!("journal {at}: file magic is torn; starting afresh"));
            return (entries, warnings, Some(0));
        }
        warnings.extend(replay_v1(bytes, &mut entries).map(|w| format!("journal {at} {w}")));
        return (entries, warnings, None);
    }
    let mut accepted = JOURNAL_MAGIC.len();
    while accepted < bytes.len() {
        match get_record(&bytes[accepted..]) {
            Ok((entry, used)) => {
                entries.push(entry);
                accepted += used;
            }
            Err(reason) => {
                warnings.push(format!(
                    "journal {at} record {} (byte {accepted}): {reason}; \
                     dropping this and later records",
                    entries.len() + 1
                ));
                break;
            }
        }
    }
    (entries, warnings, Some(accepted))
}

/// Replays a v1 text journal into `entries`; the warning, if any, for
/// the line it stopped at.
fn replay_v1(bytes: &[u8], entries: &mut Vec<Entry>) -> Option<String> {
    for (i, line) in bytes.split_inclusive(|&b| b == b'\n').enumerate() {
        let dropped = match line.strip_suffix(b"\n").map(parse_v1_record) {
            Some(Ok(entry)) => {
                entries.extend(entry);
                continue;
            }
            Some(Err(msg)) => format!("{msg}; dropping this and later records"),
            None => "record lacks its newline (torn write); dropping it".to_string(),
        };
        return Some(format!("line {}: {dropped}", i + 1));
    }
    None
}

/// Parses one v1 journal line; `Ok(None)` for an empty line (the file's
/// trailing newline), `Err` with a reason for anything torn or corrupt.
fn parse_v1_record(line: &[u8]) -> Result<Option<Entry>, String> {
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

    /// The on-disk size of one journal record of `entries`' dimension.
    const RECORD_LEN: usize = 4 + 8 + 3 * 4 + 4;

    #[test]
    fn framed_roundtrip_is_byte_identical() {
        let s = snap(3, 10);
        let bytes = snapshot_to_bytes(&s).unwrap();
        let back = snapshot_from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(snapshot_to_bytes(&back).unwrap(), bytes);
        // The header, 10 rows of id + 3 floats, the trailer: nothing else.
        let trailer = "\nt2vec-snap v3 crc32=00000000 len=256\n";
        assert_eq!(bytes.len(), HEADER_LEN + 10 * (8 + 12) + trailer.len());
    }

    #[test]
    fn ragged_snapshots_are_refused_not_written() {
        let mut s = snap(1, 3);
        s.entries[1].vec.pop();
        let err = snapshot_to_bytes(&s).unwrap_err();
        assert!(matches!(err, T2VecError::InvalidInput(_)), "{err}");
    }

    /// A v3 frame around `payload` with a *valid* trailer, so only the
    /// payload decoder stands between a lying header and the allocator.
    fn reframed(payload: &[u8]) -> Vec<u8> {
        durable::frame(TRAILER_MAGIC, payload)
    }

    #[test]
    fn v3_decoder_never_trusts_a_count() {
        let bytes = snapshot_to_bytes(&snap(1, 4)).unwrap();
        let (_, payload) = durable::unframe(&bytes, &[TRAILER_MAGIC]).unwrap();
        // (offset of a header word, value): entries, dim, nlist with the
        // ANN flag set, and a dim whose row length overflows.
        let lies: [(usize, u64, u32); 5] = [
            (24, 1 << 60, 0),
            (24, 5, 0),
            (16, 1 << 40, 0),
            (16, u64::MAX / 2, 0),
            (32, 1 << 60, FLAG_ANN),
        ];
        for (at, value, flags) in lies {
            let mut p = payload.to_vec();
            p[at..at + 8].copy_from_slice(&value.to_le_bytes());
            p[4..8].copy_from_slice(&flags.to_le_bytes());
            let err = snapshot_from_bytes(&reframed(&p)).unwrap_err();
            assert!(matches!(err, T2VecError::Checkpoint(_)), "{at}: {err}");
        }
        for flags in [FLAG_QUANTIZER, 4, u32::MAX] {
            let mut p = payload.to_vec();
            p[4..8].copy_from_slice(&flags.to_le_bytes());
            assert!(snapshot_from_bytes(&reframed(&p)).is_err(), "flags {flags}");
        }
        // Short of the header, and one byte too many.
        assert!(snapshot_from_bytes(&reframed(&payload[..HEADER_LEN - 1])).is_err());
        let mut long = payload.to_vec();
        long.push(0);
        assert!(snapshot_from_bytes(&reframed(&long)).is_err());
        // An unsupported version in an otherwise valid payload.
        let mut future = payload.to_vec();
        future[0] = 4;
        assert!(snapshot_from_bytes(&reframed(&future)).is_err());
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
        // A truncated journal is a valid v2 file: the magic, nothing else.
        assert_eq!(fs::read(&path).unwrap(), JOURNAL_MAGIC);
        // Appends after a truncate keep working.
        j.append(&entries(1)[0]).unwrap();
        assert_eq!(Journal::replay(&path).0.len(), 1);
        assert_eq!(
            fs::read(&path).unwrap().len(),
            JOURNAL_MAGIC.len() + RECORD_LEN
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_record_length_is_checked_before_it_is_believed() {
        let dir = temp_dir("hostile-len");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut good = JOURNAL_MAGIC.to_vec();
        put_record(&mut good, &entries(1)[0]).unwrap();
        for len in [u32::MAX, u32::MAX - 3, 0, 4, 9, 1 << 30] {
            let mut bytes = good.clone();
            bytes.extend_from_slice(&len.to_le_bytes());
            bytes.extend_from_slice(&[0u8; 40]);
            fs::write(&path, &bytes).unwrap();
            let (replayed, warnings) = Journal::replay(&path);
            assert_eq!(replayed, entries(1), "len {len}");
            assert_eq!(warnings.len(), 1, "len {len}: {warnings:?}");
            // Recovery cuts the lie off and appends behind the prefix.
            let (mut j, recovered, _) = Journal::recover(&path).unwrap();
            assert_eq!(recovered, entries(1));
            j.append(&entries(2)[1]).unwrap();
            let (replayed, warnings) = Journal::replay(&path);
            assert!(warnings.is_empty(), "len {len}: {warnings:?}");
            assert_eq!(replayed, entries(2), "len {len}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_header_damage_is_repaired_by_recover_and_refused_by_open() {
        let dir = temp_dir("header");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        // A torn magic: a crash while the file was being created.
        fs::write(&path, &JOURNAL_MAGIC[..5]).unwrap();
        assert!(Journal::open(&path).is_err(), "open must not append to it");
        let (mut j, recovered, warnings) = Journal::recover(&path).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        j.append(&entries(1)[0]).unwrap();
        assert_eq!(Journal::replay(&path), (entries(1), Vec::new()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v1_text_journal_is_read_once_and_rewritten_as_v2() {
        let dir = temp_dir("migrate");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join(JOURNAL_FILE);
        let mut text = String::new();
        for e in entries(3) {
            let payload = serde_json::to_string(&e).unwrap();
            text.push_str(&format!("{:08x} {payload}\n", crc32(payload.as_bytes())));
        }
        text.push_str("deadbeef {\"id\":99,\"ve");
        fs::write(&path, &text).unwrap();
        assert!(Journal::open(&path).is_err(), "open must not append to v1");
        let (replayed, warnings) = Journal::replay(&path);
        assert_eq!(replayed, entries(3));
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("line 4"), "{warnings:?}");

        let (mut j, recovered, recover_warnings) = Journal::recover(&path).unwrap();
        assert_eq!(recovered, entries(3));
        assert_eq!(recover_warnings, warnings);
        j.append(&entries(4)[3]).unwrap();
        drop(j);
        let bytes = fs::read(&path).unwrap();
        assert!(bytes.starts_with(JOURNAL_MAGIC));
        assert_eq!(bytes.len(), JOURNAL_MAGIC.len() + 4 * RECORD_LEN);
        assert_eq!(Journal::replay(&path), (entries(4), Vec::new()));
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
        // Simulate a crash mid-append: half a record reached the file.
        let mut record = Vec::new();
        put_record(&mut record, &entries(100)[99]).unwrap();
        let mut raw = fs::OpenOptions::new().append(true).open(&path).unwrap();
        raw.write_all(&record[..RECORD_LEN / 2]).unwrap();
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
        bytes[JOURNAL_MAGIC.len() + RECORD_LEN + 12] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let (replayed, warnings) = Journal::replay(&path);
        assert_eq!(replayed, entries(1), "only the record before the flip");
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        fs::remove_dir_all(&dir).ok();
    }
}
