//! The durable-directory protocol: CRC-framed files, atomic saves, an
//! advisory `LATEST` pointer, retention, and newest-first recovery.
//!
//! Training checkpoints ([`crate::checkpoint`]) and the serving store's
//! snapshots are both "a directory of numbered, self-validating files
//! of which the newest valid one wins". This module is that protocol,
//! once; the two stores only say what their payload is.
//!
//! ## Frame
//!
//! ```text
//! <one line of compact JSON — the payload>
//! <magic> crc32=xxxxxxxx len=NNN
//! ```
//!
//! The trailer carries a CRC-32 (IEEE) and the byte length of the
//! payload under a caller-chosen magic (`t2vec-ckpt v1`, `t2vec-snap
//! v2`, …); a file whose trailer is missing, malformed, or disagrees
//! with the payload is rejected as corrupt.
//!
//! ## Atomic save
//!
//! [`DurableDir::save_with`] never exposes a partially written file:
//!
//! 1. write the framed bytes to a hidden temp file *in the same
//!    directory*, flush, `fsync`;
//! 2. `rename` the temp file over the final name (atomic on POSIX);
//! 3. `fsync` the directory so the rename itself is durable;
//! 4. update the `LATEST` pointer file by the same
//!    temp-fsync-rename-fsync dance;
//! 5. delete files beyond the retention budget (oldest first).
//!
//! A crash between any two steps leaves either the previous state or
//! the new state on disk, never a torn one; the [`fault`] harness aborts
//! the protocol at each of those points so the tests *demonstrate* it.
//!
//! ## Recovery
//!
//! [`DurableDir::load_latest`] trusts nothing: it scans the numbered
//! files newest first, validates each, and returns the newest that
//! passes, with a warning for everything it had to skip. The `LATEST`
//! pointer is advisory — the scan is the source of truth, so a crash
//! after step 2 still recovers the newest data. One policy for a
//! missing pointer: silent in a directory that holds no data file (the
//! first boot), a warning in one that does (the pointer was lost).

use crate::error::T2VecError;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use t2vec_obs as obs;

pub mod fault;

use fault::{FaultPlan, FaultyWriter};

/// Name of the pointer file naming the most recent data file.
pub const LATEST_FILE: &str = "LATEST";

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frames a single-line `payload` under `magic` (payload line plus
/// checksum trailer).
pub fn frame(magic: &str, payload: &str) -> Vec<u8> {
    debug_assert!(!payload.contains('\n'), "payload must be a single line");
    format!(
        "{payload}\n{magic} crc32={:08x} len={}\n",
        crc32(payload.as_bytes()),
        payload.len()
    )
    .into_bytes()
}

/// Validates a frame written under any of `magics` and returns its
/// payload bytes.
///
/// # Errors
/// [`T2VecError::Checkpoint`] when the frame is truncated, the trailer
/// is malformed, or the length or CRC disagrees with the payload.
pub fn unframe<'a>(bytes: &'a [u8], magics: &[&str]) -> Result<&'a [u8], T2VecError> {
    let corrupt = |msg: String| T2VecError::Checkpoint(msg);
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("truncated file: no payload/trailer separator".into()))?;
    let (payload, rest) = bytes.split_at(newline);
    let trailer = std::str::from_utf8(&rest[1..])
        .map_err(|_| corrupt("trailer is not UTF-8".into()))?
        .trim_end_matches('\n');
    let fields = magics
        .iter()
        .find_map(|magic| trailer.strip_prefix(magic))
        .ok_or_else(|| corrupt("missing or unrecognised trailer magic".into()))?;
    let mut stated_crc = None;
    let mut stated_len = None;
    for field in fields.split_whitespace() {
        if let Some(hex) = field.strip_prefix("crc32=") {
            stated_crc = u32::from_str_radix(hex, 16).ok();
        } else if let Some(dec) = field.strip_prefix("len=") {
            stated_len = dec.parse::<usize>().ok();
        }
    }
    let stated_crc =
        stated_crc.ok_or_else(|| corrupt("trailer lacks a valid crc32 field".into()))?;
    let stated_len = stated_len.ok_or_else(|| corrupt("trailer lacks a valid len field".into()))?;
    if stated_len != payload.len() {
        return Err(corrupt(format!(
            "length mismatch: trailer says {stated_len}, payload is {} bytes (short write?)",
            payload.len()
        )));
    }
    let actual_crc = crc32(payload);
    if stated_crc != actual_crc {
        return Err(corrupt(format!(
            "checksum mismatch: trailer says {stated_crc:08x}, payload hashes to {actual_crc:08x}"
        )));
    }
    Ok(payload)
}

/// A directory of numbered framed files with atomic writes, a `LATEST`
/// pointer, and retention of the last *K* (see module docs).
#[derive(Debug, Clone)]
pub struct DurableDir {
    dir: PathBuf,
    keep: usize,
    /// File-name prefix; file `seq` is `<prefix>NNNNNN.json`.
    prefix: &'static str,
}

impl DurableDir {
    /// Opens (creating if needed) `dir`, retaining the last `keep`
    /// files named `<prefix>NNNNNN.json`.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        keep: usize,
        prefix: &'static str,
    ) -> Result<Self, T2VecError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: keep.max(1),
            prefix,
        })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name of sequence number `seq` under `prefix`.
    pub fn file_name(prefix: &str, seq: u64) -> String {
        format!("{prefix}{seq:06}.json")
    }

    /// Saves already-framed `bytes` as file `seq` under the five-step
    /// protocol and returns the final path. `plan` injects faults: a
    /// triggered one aborts at exactly the planned point, leaving the
    /// directory as a real crash would (stray temp file,
    /// renamed-but-unpointed file, stale `LATEST`, …).
    ///
    /// # Errors
    /// [`T2VecError::Io`] for injected write failures and real
    /// filesystem failures alike; [`T2VecError::Checkpoint`] for
    /// planned crashes between protocol steps. A failed save never
    /// corrupts previously saved files.
    pub fn save_with(
        &self,
        seq: u64,
        bytes: &[u8],
        plan: &mut FaultPlan,
    ) -> Result<PathBuf, T2VecError> {
        let final_name = Self::file_name(self.prefix, seq);
        let final_path = self.dir.join(&final_name);
        let tmp_path = self.dir.join(format!(".{final_name}.tmp"));
        let chunk = plan.short_write_chunk;

        // Step 1: temp file in the same directory, fully written and
        // fsynced before it can take the final name.
        write_synced(&tmp_path, bytes, plan.write_fail_at.take(), chunk)?;
        if plan.crash_before_rename {
            return Err(T2VecError::Checkpoint(
                "injected crash before rename (temp file left behind)".into(),
            ));
        }

        // Steps 2 + 3: atomic rename, then make the rename durable.
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir);
        if plan.crash_before_latest {
            return Err(T2VecError::Checkpoint(
                "injected crash after rename, before LATEST update".into(),
            ));
        }

        // Step 4: LATEST pointer, same temp-fsync-rename protocol.
        let latest_tmp = self.dir.join(".LATEST.tmp");
        let pointer = format!("{final_name}\n");
        let fail_at = plan.latest_write_fail_at.take();
        write_synced(&latest_tmp, pointer.as_bytes(), fail_at, chunk)?;
        fs::rename(&latest_tmp, self.dir.join(LATEST_FILE))?;
        sync_dir(&self.dir);

        // Step 5: retention — drop the oldest beyond the budget.
        let files = self.files();
        for (path, seq) in &files[..files.len().saturating_sub(self.keep)] {
            fs::remove_file(path).ok();
            obs::debug!(target: "core.durable", "retention dropped old file"; seq = *seq);
        }
        Ok(final_path)
    }

    /// All data files in the directory, oldest first, with their
    /// sequence numbers. Temp files and foreign names are ignored.
    pub fn files(&self) -> Vec<(PathBuf, u64)> {
        let mut out = Vec::new();
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(seq) = name
                .to_str()
                .and_then(|s| s.strip_prefix(self.prefix))
                .and_then(|s| s.strip_suffix(".json"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((entry.path(), seq));
        }
        out.sort_by_key(|&(_, seq)| seq);
        out
    }

    /// Recovers the newest file `load` accepts, with a warning per
    /// anomaly met on the way to it (see module docs, *Recovery*).
    /// Corrupt or truncated files are skipped, never a panic.
    pub fn load_latest<T>(
        &self,
        load: impl Fn(&Path) -> Result<T, T2VecError>,
    ) -> (Option<(PathBuf, T)>, Vec<String>) {
        let mut warnings = Vec::new();
        let mut files = self.files();
        files.reverse(); // newest first
        let pointer = match fs::read_to_string(self.dir.join(LATEST_FILE)) {
            Ok(s) => Some(s.trim().to_string()),
            Err(e) if e.kind() == io::ErrorKind::NotFound && files.is_empty() => None,
            Err(e) => {
                warnings.push(format!(
                    "LATEST pointer unreadable ({e}); scanning data files instead"
                ));
                None
            }
        };
        for (path, _) in files {
            match load(&path) {
                Ok(value) => {
                    let name = path
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_default();
                    if let Some(target) = pointer.filter(|t| *t != name) {
                        warnings.push(format!(
                            "LATEST points at `{target}` but newest valid file is \
                             `{name}`; using `{name}`"
                        ));
                    }
                    return (Some((path, value)), warnings);
                }
                Err(e) => {
                    let msg = format!("skipping corrupt file {}: {e}", path.display());
                    obs::warn!(target: "core.durable", "{msg}");
                    warnings.push(msg);
                }
            }
        }
        (None, warnings)
    }
}

/// Writes `bytes` to a fresh file at `path` through the fault-injecting
/// writer, flushes and fsyncs it.
fn write_synced(
    path: &Path,
    bytes: &[u8],
    fail_at: Option<usize>,
    max_chunk: Option<usize>,
) -> io::Result<()> {
    let mut w = FaultyWriter::new(fs::File::create(path)?, fail_at, max_chunk);
    w.write_all(bytes)?;
    w.flush()?;
    w.into_inner().sync_all()
}

/// Best-effort directory fsync (makes a completed rename durable).
/// Errors are swallowed: not every platform lets a directory be opened
/// for syncing, and the rename has already happened atomically.
fn sync_dir(dir: &Path) {
    if let Ok(d) = fs::File::open(dir) {
        d.sync_all().ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(dir: &Path, keep: usize) -> DurableDir {
        DurableDir::open(dir, keep, "blob-").unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("t2vec-durable-{}-{name}", std::process::id()));
        fs::remove_dir_all(&p).ok();
        p
    }

    fn load(path: &Path) -> Result<String, T2VecError> {
        let bytes = fs::read(path)?;
        let payload = unframe(&bytes, &["blob v1"])?;
        Ok(String::from_utf8_lossy(payload).into_owned())
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrips_and_rejects_damage() {
        let bytes = frame("blob v2", "{\"a\":1}");
        assert_eq!(bytes, b"{\"a\":1}\nblob v2 crc32=561bacaf len=7\n");
        assert_eq!(
            unframe(&bytes, &["blob v2", "blob v1"]).unwrap(),
            b"{\"a\":1}"
        );
        assert!(unframe(&bytes, &["blob v1"]).is_err(), "foreign magic");
        assert!(unframe(&bytes[..bytes.len() / 2], &["blob v2"]).is_err());
        let mut flipped = bytes.clone();
        flipped[3] ^= 0x01;
        assert!(unframe(&flipped, &["blob v2"]).is_err());
        let mut bad_crc = bytes.clone();
        let pos = bytes.len() - 10;
        bad_crc[pos] = if bad_crc[pos] == b'0' { b'1' } else { b'0' };
        assert!(unframe(&bad_crc, &["blob v2"]).is_err());
        assert!(unframe(b"", &["blob v2"]).is_err());
        assert!(unframe(b"junk\nmore junk\n", &["blob v2"]).is_err());
    }

    #[test]
    fn save_updates_latest_retains_k_and_ignores_foreign_files() {
        let dir = temp_dir("retention");
        let store = open(&dir, 2);
        fs::write(dir.join("other-000009.json"), b"x").unwrap();
        for seq in 1..=4 {
            let bytes = frame("blob v1", &format!("{seq}"));
            store
                .save_with(seq, &bytes, &mut FaultPlan::none())
                .unwrap();
        }
        let seqs: Vec<u64> = store.files().iter().map(|&(_, n)| n).collect();
        assert_eq!(seqs, vec![3, 4], "retention must keep exactly the newest 2");
        let latest = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
        assert_eq!(latest.trim(), DurableDir::file_name("blob-", 4));
        let (newest, warnings) = store.load_latest(load);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(newest.unwrap().1, "4");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_writes_still_produce_valid_files() {
        // A writer that accepts only 7 bytes per call exercises the
        // write_all loop; the saved file must still validate.
        let dir = temp_dir("short-writes");
        let store = open(&dir, 2);
        let mut plan = FaultPlan {
            short_write_chunk: Some(7),
            ..FaultPlan::none()
        };
        let bytes = frame("blob v1", "a payload longer than seven bytes");
        let path = store.save_with(1, &bytes, &mut plan).unwrap();
        assert_eq!(load(&path).unwrap(), "a payload longer than seven bytes");
        fs::remove_dir_all(&dir).ok();
    }
}
