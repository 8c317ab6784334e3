//! Fault-tolerant training checkpoints.
//!
//! A [`Checkpoint`] bundles *everything* the training loop needs to
//! continue bitwise-identically after a crash: the model (parameter
//! matrices **and** their Adam moment state), the exact position in the
//! trainer's random stream, the epoch/iteration counters, the
//! early-stopping bookkeeping, and a hash of the configuration so a
//! checkpoint can never be resumed under different hyper-parameters.
//!
//! ## On disk
//!
//! One checkpoint per file, `ckpt-NNNNNN.json` (NNNNNN = epochs done),
//! framed under the magic `t2vec-ckpt v1` and saved, retained and
//! recovered by the [`crate::durable`] directory protocol — atomic
//! temp-fsync-rename saves, an advisory `LATEST` pointer, newest-first
//! corrupt-skipping recovery. Floats inside the payload round-trip
//! bit-for-bit through the JSON layer (shortest-roundtrip `f64`
//! printing; the one non-finite value, the pre-first-validation
//! `best_val = +inf`, travels as raw `f32` bits).

use crate::config::T2VecConfig;
use crate::durable::fault::FaultPlan;
use crate::durable::{self, DurableDir};
use crate::error::T2VecError;
use crate::model::EpochStats;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use t2vec_nn::Seq2Seq;
use t2vec_obs as obs;
use t2vec_tensor::rng::RngState;

/// Version tag of the on-disk checkpoint format.
pub const FORMAT_VERSION: u32 = 1;

/// Magic string opening every trailer line.
const TRAILER_MAGIC: &str = "t2vec-ckpt v1";

/// File-name prefix of the data files.
const PREFIX: &str = "ckpt-";

/// The complete resumable state of an interrupted training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// On-disk format version ([`FORMAT_VERSION`]).
    pub version: u32,
    /// FNV-1a hash of the canonical-JSON configuration; resuming under
    /// a different configuration is refused.
    pub config_hash: u64,
    /// Seed the run's setup phase (vocabulary, pre-training, pair
    /// generation) was derived from. Resume re-derives the setup from
    /// this seed — not from whatever seed the resuming caller supplies
    /// — so the pair corpus is bit-identical to the original run's.
    pub setup_seed: u64,
    /// Epochs fully completed (also the checkpoint's file number).
    pub epochs_done: usize,
    /// Optimiser steps taken so far.
    pub iterations: usize,
    /// Consecutive validations without improvement (early stopping).
    pub stagnant: usize,
    /// Best validation loss so far, as raw `f32` bits (`+inf` before
    /// the first validation, which JSON cannot carry as a float).
    pub best_val_bits: u32,
    /// Per-epoch loss curve up to this point.
    pub history: Vec<EpochStats>,
    /// Exact position of the trainer's random stream.
    pub rng: RngState,
    /// The live model — parameters plus Adam moment matrices.
    pub model: Seq2Seq,
    /// The best-validation parameters kept for early stopping (absent
    /// until the first validation improves on `+inf`).
    pub best_model: Option<Seq2Seq>,
}

impl Checkpoint {
    /// Best validation loss so far.
    pub fn best_val(&self) -> f32 {
        f32::from_bits(self.best_val_bits)
    }

    /// Whether this checkpoint was produced under `config`.
    pub fn matches_config(&self, config: &T2VecConfig) -> bool {
        self.config_hash == config_hash(config)
    }
}

/// FNV-1a hash of the configuration's canonical JSON — the fingerprint
/// stored in every checkpoint.
pub fn config_hash(config: &T2VecConfig) -> u64 {
    let json = serde_json::to_string(config).expect("config serialisation is infallible");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// Serialises a checkpoint to its framed byte form (payload line plus
/// checksum trailer).
///
/// # Errors
/// Propagates serialisation failures (none occur for this data model).
pub fn to_bytes(ckpt: &Checkpoint) -> Result<Vec<u8>, T2VecError> {
    Ok(durable::frame(
        TRAILER_MAGIC,
        serde_json::to_string(ckpt)?.as_bytes(),
    ))
}

/// Parses and validates a framed checkpoint.
///
/// # Errors
/// [`T2VecError::Checkpoint`] when the frame is corrupt (see
/// [`durable::unframe`]) or the format version is unsupported;
/// [`T2VecError::Serde`] when the payload is not a valid `Checkpoint`.
pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint, T2VecError> {
    let (_, payload) = durable::unframe(bytes, &[TRAILER_MAGIC])?;
    let ckpt: Checkpoint = serde_json::from_slice(payload)?;
    if ckpt.version != FORMAT_VERSION {
        return Err(T2VecError::Checkpoint(format!(
            "unsupported format version {} (this build reads {FORMAT_VERSION})",
            ckpt.version
        )));
    }
    Ok(ckpt)
}

/// Reads and validates a framed checkpoint from any reader (the tests
/// drive this through [`durable::fault::FaultyReader`] to prove torn reads are
/// reported as errors, never panics).
///
/// # Errors
/// [`T2VecError::Io`] on read failure, otherwise as [`from_bytes`].
pub fn read_checkpoint<R: Read>(mut r: R) -> Result<Checkpoint, T2VecError> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes)?;
    from_bytes(&bytes)
}

/// The result of [`CheckpointStore::load_latest`]: the newest valid
/// checkpoint (if any survives validation) plus a warning per anomaly
/// encountered on the way to it.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The newest checkpoint that passed validation, with its path.
    pub checkpoint: Option<(PathBuf, Checkpoint)>,
    /// Human-readable descriptions of everything skipped or repaired
    /// (corrupt files, a missing/stale `LATEST` pointer, …).
    pub warnings: Vec<String>,
}

/// A directory of checkpoints with atomic writes, a `LATEST` pointer,
/// and retention of the last *K* files: a [`DurableDir`] whose payload
/// is a [`Checkpoint`] numbered by `epochs_done`.
#[derive(Debug, Clone)]
pub struct CheckpointStore(DurableDir);

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory retaining the
    /// last `keep` checkpoints; errors as [`DurableDir::open`].
    pub fn open(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, T2VecError> {
        DurableDir::open(dir, keep, PREFIX, "json").map(Self)
    }

    /// File name for the checkpoint taken after `epochs_done` epochs.
    pub fn file_name(epochs_done: usize) -> String {
        DurableDir::file_name(PREFIX, epochs_done as u64, "json")
    }

    /// Saves `ckpt` atomically (see [`DurableDir::save_with`]) and
    /// returns the final path.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on any filesystem failure. A failed save
    /// never corrupts previously saved checkpoints.
    pub fn save(&self, ckpt: &Checkpoint) -> Result<PathBuf, T2VecError> {
        self.save_with(ckpt, &mut FaultPlan::none())
    }

    /// [`CheckpointStore::save`] with injected faults — the test
    /// harness's crash simulator; errors as [`DurableDir::save_with`].
    pub fn save_with(
        &self,
        ckpt: &Checkpoint,
        plan: &mut FaultPlan,
    ) -> Result<PathBuf, T2VecError> {
        let _span = obs::span!(target: "core.checkpoint", "save"; epoch = ckpt.epochs_done);
        let bytes = to_bytes(ckpt)?;
        obs::counter!("ckpt.saves").incr();
        obs::counter!("ckpt.bytes_written").add(bytes.len() as u64);
        let path = self.0.save_with(ckpt.epochs_done as u64, &bytes, plan)?;
        obs::debug!(target: "core.checkpoint", "checkpoint saved";
            epoch = ckpt.epochs_done,
            bytes = bytes.len(),
        );
        Ok(path)
    }

    /// All checkpoint files in the directory, oldest first, with their
    /// epoch numbers. Temp files and foreign names are ignored.
    pub fn checkpoint_files(&self) -> Vec<(PathBuf, u64)> {
        self.0.files()
    }

    /// Loads and validates one checkpoint file.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on read failure, otherwise as [`from_bytes`].
    pub fn load_file(&self, path: &Path) -> Result<Checkpoint, T2VecError> {
        let _span = obs::span!(target: "core.checkpoint", "load");
        let ckpt = read_checkpoint(fs::File::open(path)?)?;
        obs::counter!("ckpt.loads").incr();
        obs::debug!(target: "core.checkpoint", "checkpoint loaded";
            epoch = ckpt.epochs_done,
        );
        Ok(ckpt)
    }

    /// Recovers the newest valid checkpoint (see
    /// [`DurableDir::load_latest`]): corrupt files are skipped with a
    /// warning, the `LATEST` pointer is advisory.
    pub fn load_latest(&self) -> LoadOutcome {
        let (checkpoint, warnings) = self.0.load_latest(|path| self.load_file(path));
        LoadOutcome {
            checkpoint,
            warnings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::{fault, LATEST_FILE};
    use rand::RngExt;
    use t2vec_nn::Seq2SeqConfig;
    use t2vec_tensor::rng::det_rng;

    fn tiny_checkpoint(epochs_done: usize) -> Checkpoint {
        let mut rng = det_rng(40 + epochs_done as u64);
        let model = Seq2Seq::new(
            Seq2SeqConfig {
                vocab: 12,
                embed_dim: 4,
                hidden: 4,
                layers: 1,
                bidirectional: false,
            },
            &mut rng,
        );
        Checkpoint {
            version: FORMAT_VERSION,
            config_hash: config_hash(&T2VecConfig::tiny()),
            setup_seed: 40,
            epochs_done,
            iterations: epochs_done * 7,
            stagnant: 0,
            best_val_bits: if epochs_done == 0 {
                f32::INFINITY.to_bits()
            } else {
                (1.5f32 / epochs_done as f32).to_bits()
            },
            history: Vec::new(),
            rng: RngState::capture(&rng),
            model,
            best_model: None,
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("t2vec-ckpt-unit-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn framed_roundtrip_is_byte_identical() {
        let ckpt = tiny_checkpoint(3);
        let bytes = to_bytes(&ckpt).unwrap();
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(to_bytes(&back).unwrap(), bytes);
        assert_eq!(back.epochs_done, 3);
        assert_eq!(back.rng, ckpt.rng);
    }

    #[test]
    fn infinity_best_val_survives_json() {
        let ckpt = tiny_checkpoint(0);
        assert!(ckpt.best_val().is_infinite());
        let back = from_bytes(&to_bytes(&ckpt).unwrap()).unwrap();
        assert!(back.best_val().is_infinite());
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let bytes = to_bytes(&tiny_checkpoint(1)).unwrap();
        // Truncation: drops the trailer.
        assert!(matches!(
            from_bytes(&bytes[..bytes.len() / 2]),
            Err(T2VecError::Checkpoint(_))
        ));
        // Payload bit-flip: checksum mismatch.
        let mut flipped = bytes.clone();
        flipped[10] ^= 0x01;
        assert!(matches!(
            from_bytes(&flipped),
            Err(T2VecError::Checkpoint(_))
        ));
        // Trailer bit-flip in the stated CRC.
        let mut bad_trailer = bytes.clone();
        let pos = bytes.len() - 10;
        bad_trailer[pos] = if bad_trailer[pos] == b'0' { b'1' } else { b'0' };
        assert!(from_bytes(&bad_trailer).is_err());
        // Empty and garbage inputs.
        assert!(from_bytes(b"").is_err());
        assert!(from_bytes(b"not a checkpoint\nat all\n").is_err());
    }

    #[test]
    fn store_saves_updates_latest_and_retains_k() {
        let dir = temp_dir("retention");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        for epoch in 1..=4 {
            store.save(&tiny_checkpoint(epoch)).unwrap();
        }
        let files = store.checkpoint_files();
        assert_eq!(
            files.iter().map(|&(_, n)| n).collect::<Vec<_>>(),
            vec![3, 4],
            "retention must keep exactly the newest 2"
        );
        let latest = fs::read_to_string(dir.join(LATEST_FILE)).unwrap();
        assert_eq!(latest.trim(), CheckpointStore::file_name(4));
        let out = store.load_latest();
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        assert_eq!(out.checkpoint.unwrap().1.epochs_done, 4);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_loads_nothing() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::open(&dir, 3).unwrap();
        let out = store.load_latest();
        assert!(out.checkpoint.is_none());
        // A fresh directory is the normal first boot, not damage.
        assert!(out.warnings.is_empty(), "{:?}", out.warnings);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let tiny = T2VecConfig::tiny();
        let mut other = T2VecConfig::tiny();
        other.hidden *= 2;
        assert_eq!(config_hash(&tiny), config_hash(&T2VecConfig::tiny()));
        assert_ne!(config_hash(&tiny), config_hash(&other));
        let ckpt = tiny_checkpoint(1);
        assert!(ckpt.matches_config(&tiny));
        assert!(!ckpt.matches_config(&other));
    }

    #[test]
    fn faulty_reader_surfaces_io_error_not_panic() {
        let dir = temp_dir("faulty-read");
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let path = store.save(&tiny_checkpoint(1)).unwrap();
        let file = fs::File::open(&path).unwrap();
        let err = read_checkpoint(fault::FaultyReader::new(file, Some(64))).unwrap_err();
        assert!(matches!(err, T2VecError::Io(_)), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_rng_resumes_stream() {
        let mut rng = det_rng(77);
        for _ in 0..5 {
            let _: u64 = rng.random();
        }
        let ckpt = Checkpoint {
            rng: RngState::capture(&rng),
            ..tiny_checkpoint(2)
        };
        let back = from_bytes(&to_bytes(&ckpt).unwrap()).unwrap();
        let mut restored = back.rng.restore();
        for _ in 0..8 {
            assert_eq!(rng.random::<u64>(), restored.random::<u64>());
        }
    }
}
