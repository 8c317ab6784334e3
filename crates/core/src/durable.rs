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
//! <payload bytes — compact one-line JSON, or raw little-endian binary>
//! \n<magic> crc32=xxxxxxxx len=NNN\n
//! ```
//!
//! The trailer carries a CRC-32 (IEEE) and the byte length of the
//! payload under a caller-chosen magic (`t2vec-ckpt v1`, `t2vec-snap
//! v3`, …). [`unframe`] locates it from the **end** of the file — the
//! trailer is the text after the last newline — so the payload may hold
//! any bytes, newlines included: one frame carries JSON checkpoints and
//! binary snapshots alike. A file whose trailer is missing, malformed,
//! or disagrees with the payload is rejected as corrupt.
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

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-wise
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero
/// bytes — eight of them fold eight input bytes per step.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc: u32 = !0;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = (u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc).to_le_bytes();
        crc = t[7][usize::from(lo[0])]
            ^ t[6][usize::from(lo[1])]
            ^ t[5][usize::from(lo[2])]
            ^ t[4][usize::from(lo[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

/// Frames `payload` under `magic`: the payload bytes, then the checksum
/// trailer on a line of its own. `magic` must not contain a newline
/// (the trailer is found as the text after the file's last one).
pub fn frame(magic: &str, payload: &[u8]) -> Vec<u8> {
    debug_assert!(!magic.contains('\n'), "magic must be a single line");
    let trailer = format!(
        "\n{magic} crc32={:08x} len={}\n",
        crc32(payload),
        payload.len()
    );
    let mut out = Vec::with_capacity(payload.len() + trailer.len());
    out.extend_from_slice(payload);
    out.extend_from_slice(trailer.as_bytes());
    out
}

/// Validates a frame written under any of `magics` and returns the
/// magic it was written under with its payload bytes.
///
/// # Errors
/// [`T2VecError::Checkpoint`] when the frame is truncated, the trailer
/// is malformed, or the length or CRC disagrees with the payload.
pub fn unframe<'a, 'm>(
    bytes: &'a [u8],
    magics: &[&'m str],
) -> Result<(&'m str, &'a [u8]), T2VecError> {
    let corrupt = |msg: String| T2VecError::Checkpoint(msg);
    let end = bytes.len() - bytes.iter().rev().take_while(|&&b| b == b'\n').count();
    let newline = bytes[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .ok_or_else(|| corrupt("truncated file: no payload/trailer separator".into()))?;
    let payload = &bytes[..newline];
    let trailer = std::str::from_utf8(&bytes[newline + 1..end])
        .map_err(|_| corrupt("trailer is not UTF-8".into()))?;
    let (magic, fields) = magics
        .iter()
        .find_map(|&magic| Some((magic, trailer.strip_prefix(magic)?)))
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
    Ok((magic, payload))
}

/// A directory of numbered framed files with atomic writes, a `LATEST`
/// pointer, and retention of the last *K* (see module docs).
#[derive(Debug, Clone)]
pub struct DurableDir {
    dir: PathBuf,
    keep: usize,
    /// File-name prefix; file `seq` is `<prefix>NNNNNN.<ext>`.
    prefix: &'static str,
    /// Extension of the files this store writes (one of [`DATA_EXTS`]).
    ext: &'static str,
}

/// Extensions a data file may carry: `json` for a JSON payload, `bin`
/// for a binary one. The directory scan, recovery and retention go by
/// sequence number across both, so a store that changed its payload
/// encoding keeps reading (and eventually retiring) its older files.
pub const DATA_EXTS: [&str; 2] = ["json", "bin"];

impl DurableDir {
    /// Opens (creating if needed) `dir`, retaining the last `keep`
    /// data files and writing new ones as `<prefix>NNNNNN.<ext>`.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the directory cannot be created.
    pub fn open(
        dir: impl Into<PathBuf>,
        keep: usize,
        prefix: &'static str,
        ext: &'static str,
    ) -> Result<Self, T2VecError> {
        debug_assert!(DATA_EXTS.contains(&ext), "unscanned extension {ext}");
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: keep.max(1),
            prefix,
            ext,
        })
    }

    /// The directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File name of sequence number `seq` under `prefix` and `ext`.
    pub fn file_name(prefix: &str, seq: u64, ext: &str) -> String {
        format!("{prefix}{seq:06}.{ext}")
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
        let final_name = Self::file_name(self.prefix, seq, self.ext);
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
        let pointer = format!("{final_name}\n");
        let fail_at = plan.latest_write_fail_at.take();
        replace_file_with(
            &self.dir.join(LATEST_FILE),
            pointer.as_bytes(),
            fail_at,
            chunk,
        )?;

        // Step 5: retention — drop the oldest beyond the budget.
        let files = self.files();
        for (path, seq) in &files[..files.len().saturating_sub(self.keep)] {
            fs::remove_file(path).ok();
            obs::debug!(target: "core.durable", "retention dropped old file"; seq = *seq);
        }
        Ok(final_path)
    }

    /// All data files in the directory (either of [`DATA_EXTS`]),
    /// oldest first, with their sequence numbers. Temp files and
    /// foreign names are ignored.
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
                .and_then(|s| s.rsplit_once('.'))
                .filter(|(_, ext)| DATA_EXTS.contains(ext))
                .and_then(|(seq, _)| seq.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((entry.path(), seq));
        }
        // Path as the tie-break: two encodings of one sequence number
        // (a corrupt old file re-saved in the new encoding) list in a
        // fixed order.
        out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
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

/// Replaces the file at `path` with `bytes` atomically: a hidden temp
/// file in the same directory, fully written and fsynced, renamed over
/// `path`, then the directory fsynced. A crash leaves the old file or
/// the new one, never a mixture.
///
/// # Errors
/// Any filesystem failure; `path` is untouched unless the rename ran.
pub fn replace_file(path: &Path, bytes: &[u8]) -> io::Result<()> {
    replace_file_with(path, bytes, None, None)
}

/// [`replace_file`] through the fault-injecting writer.
fn replace_file_with(
    path: &Path,
    bytes: &[u8],
    fail_at: Option<usize>,
    max_chunk: Option<usize>,
) -> io::Result<()> {
    let name = path.file_name().unwrap_or_default().to_string_lossy();
    let tmp = path.with_file_name(format!(".{name}.tmp"));
    write_synced(&tmp, bytes, fail_at, max_chunk)?;
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(())
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
        DurableDir::open(dir, keep, "blob-", "json").unwrap()
    }

    fn temp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("t2vec-durable-{}-{name}", std::process::id()));
        fs::remove_dir_all(&p).ok();
        p
    }

    fn load(path: &Path) -> Result<String, T2VecError> {
        let bytes = fs::read(path)?;
        let (_, payload) = unframe(&bytes, &["blob v1"])?;
        Ok(String::from_utf8_lossy(payload).into_owned())
    }

    /// The bit-at-a-time loop `crc32` replaced: the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = !0;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_matches_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        /// Every length class of the eight-byte loop and its tail.
        #[test]
        fn crc32_equals_the_bitwise_oracle(
            bytes in proptest::collection::vec(0u8..=255, 0..70),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }

    #[test]
    fn frame_roundtrips_and_rejects_damage() {
        let bytes = frame("blob v2", b"{\"a\":1}");
        assert_eq!(bytes, b"{\"a\":1}\nblob v2 crc32=561bacaf len=7\n");
        assert_eq!(
            unframe(&bytes, &["blob v2", "blob v1"]).unwrap(),
            ("blob v2", &b"{\"a\":1}"[..])
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
    fn frame_carries_binary_payloads_with_newlines() {
        // The trailer is found from the end, so newlines in the payload
        // — leading, trailing, doubled — are payload.
        for payload in [&b"\n\x00\xff\n\nblob v1 crc32=0 len=0\n"[..], b"", b"\n"] {
            let bytes = frame("blob v1", payload);
            assert_eq!(unframe(&bytes, &["blob v1"]).unwrap().1, payload);
            for cut in 0..bytes.len() - 1 {
                assert!(unframe(&bytes[..cut], &["blob v1"]).is_err(), "cut {cut}");
            }
            let mut extended = bytes.clone();
            extended.push(0);
            assert!(unframe(&extended, &["blob v1"]).is_err());
        }
    }

    #[test]
    fn save_updates_latest_retains_k_and_ignores_foreign_files() {
        let dir = temp_dir("retention");
        let store = open(&dir, 2);
        fs::write(dir.join("other-000009.json"), b"x").unwrap();
        for seq in 1..=4 {
            let bytes = frame("blob v1", format!("{seq}").as_bytes());
            store
                .save_with(seq, &bytes, &mut FaultPlan::none())
                .unwrap();
        }
        let seqs: Vec<u64> = store.files().iter().map(|&(_, n)| n).collect();
        assert_eq!(seqs, vec![3, 4], "retention must keep exactly the newest 2");
        let latest = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
        assert_eq!(latest.trim(), DurableDir::file_name("blob-", 4, "json"));
        let (newest, warnings) = store.load_latest(load);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(newest.unwrap().1, "4");

        // A store that now writes `.bin` numbers, recovers and retires
        // across both extensions.
        let store = DurableDir::open(&dir, 2, "blob-", "bin").unwrap();
        let path = store
            .save_with(5, &frame("blob v1", b"5"), &mut FaultPlan::none())
            .unwrap();
        assert_eq!(path, dir.join("blob-000005.bin"));
        let names: Vec<PathBuf> = store.files().into_iter().map(|(p, _)| p).collect();
        assert_eq!(
            names,
            vec![dir.join("blob-000004.json"), dir.join("blob-000005.bin")]
        );
        let (newest, warnings) = store.load_latest(load);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(newest.unwrap().1, "5");
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
        let bytes = frame("blob v1", b"a payload longer than seven bytes");
        let path = store.save_with(1, &bytes, &mut plan).unwrap();
        assert_eq!(load(&path).unwrap(), "a payload longer than seven bytes");
        fs::remove_dir_all(&dir).ok();
    }
}
