//! Hostile bytes against the binary decoders (snapshot v3, journal v2):
//! valid files are truncated, bit-flipped and extended at random, and
//! the decoder must answer `Err` — or, for the journal, a valid accepted
//! prefix — never panic, never allocate for a count the bytes cannot
//! back, and never yield an entry that was not written. A body with
//! impossible quantizer values under a valid CRC is an `Err` too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fs;
use std::path::PathBuf;
use t2vec_core::ann::ScalarQuantizer;
use t2vec_core::durable::{frame, unframe};
use t2vec_serve::ann::AnnState;
use t2vec_serve::snapshot::{snapshot_from_bytes, snapshot_to_bytes, SNAP_FORMAT_VERSION};
use t2vec_serve::{Entry, Journal, StoreSnapshot};

fn floats(rng: &mut StdRng, n: usize) -> Vec<f32> {
    (0..n).map(|_| rng.random_range(-4.0f32..4.0)).collect()
}

fn entries(rng: &mut StdRng, n: usize, dim: usize) -> Vec<Entry> {
    (0..n as u64)
        .map(|i| Entry {
            id: i * 3 + rng.random_range(0u64..3),
            vec: floats(rng, dim),
        })
        .collect()
}

/// A snapshot of arbitrary shape: 0–8 entries of 1–6 dims, with no ANN
/// state, a plain one or a quantized one.
fn arbitrary_snapshot(seed: u64) -> StoreSnapshot {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.random_range(1usize..7);
    let n = rng.random_range(0usize..9);
    let ann = match rng.random_range(0u8..3) {
        0 => None,
        kind => Some(AnnState {
            nprobe: rng.random_range(1usize..5),
            rerank: if rng.random_range(0u8..2) == 0 {
                usize::MAX
            } else {
                rng.random_range(1usize..200)
            },
            centroids: (0..rng.random_range(1usize..4))
                .map(|_| floats(&mut rng, dim))
                .collect(),
            quantizer: (kind == 2)
                .then(|| ScalarQuantizer::train(&[floats(&mut rng, dim), floats(&mut rng, dim)])),
        }),
    };
    StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        seq: rng.random_range(1u64..1_000_000),
        dim,
        entries: entries(&mut rng, n, dim),
        ann,
    }
}

/// `bytes` damaged one way: cut short, one bit flipped, or extended
/// (with newlines — which a frame tolerates — or with noise).
fn damaged(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.random_range(0u8..4) {
        0 => out.truncate(rng.random_range(0..bytes.len())),
        1 => out[rng.random_range(0..bytes.len())] ^= 1 << rng.random_range(0u32..8),
        2 => out.extend(vec![b'\n'; rng.random_range(1usize..4)]),
        _ => out.extend((0..rng.random_range(1usize..40)).map(|_| rng.random_range(0u8..=255))),
    }
    out
}

fn temp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("t2vec-hostile-{}-{name}", std::process::id()));
    fs::remove_dir_all(&p).ok();
    fs::create_dir_all(&p).unwrap();
    p
}

/// Damage a CRC cannot see: a v3 body written with a NaN or negative
/// quantizer scale (or a NaN bias) under a valid frame. The decoder must
/// refuse it, not reopen the quantized tier as an f32-row one.
#[test]
fn v3_quantizer_slabs_with_impossible_values_are_an_error() {
    const MAGIC: &str = "t2vec-snap v3";
    let mut rng = StdRng::seed_from_u64(7);
    let dim = 4;
    let snap = StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        seq: 9,
        dim,
        entries: entries(&mut rng, 3, dim),
        ann: Some(AnnState {
            nprobe: 1,
            rerank: 16,
            centroids: vec![floats(&mut rng, dim)],
            quantizer: Some(ScalarQuantizer::train(&[
                floats(&mut rng, dim),
                floats(&mut rng, dim),
            ])),
        }),
    };
    let written = snapshot_to_bytes(&snap).unwrap();
    let (_, payload) = unframe(&written, &[MAGIC]).unwrap();
    // The body ends with the lo | scale | bias slabs, dim floats each.
    let scale_at = payload.len() - 2 * 4 * dim;
    let bias_at = payload.len() - 4 * dim;
    for (at, value) in [
        (scale_at, f32::NAN),
        (scale_at + 4, -0.5),
        (scale_at + 8, f32::INFINITY),
        (bias_at, f32::NAN),
    ] {
        let mut body = payload.to_vec();
        body[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let framed = frame(MAGIC, &body);
        assert!(
            snapshot_from_bytes(&framed).is_err(),
            "{value} at byte {at} decoded"
        );
    }
    // The untouched body, re-framed, still decodes to what was written.
    assert_eq!(snapshot_from_bytes(&frame(MAGIC, payload)).unwrap(), snap);
}

proptest! {
    #[test]
    fn damaged_v3_snapshots_decode_to_err_or_to_what_was_written(seed in 0u64..u64::MAX) {
        let snap = arbitrary_snapshot(seed);
        let bytes = snapshot_to_bytes(&snap).unwrap();
        prop_assert_eq!(&snapshot_from_bytes(&bytes).unwrap(), &snap);
        let mut rng = StdRng::seed_from_u64(!seed);
        for _ in 0..24 {
            if let Ok(decoded) = snapshot_from_bytes(&damaged(&bytes, &mut rng)) {
                // Damage the frame cannot see (trailing newlines, the
                // case of a CRC hex digit) leaves the payload intact.
                prop_assert_eq!(&decoded, &snap);
            }
        }
    }

    #[test]
    fn damaged_v2_journals_replay_to_a_prefix_and_recover_repairs_them(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dir = temp_dir("journal");
        let path = dir.join("journal.log");
        let dim = rng.random_range(1usize..7);
        let n = rng.random_range(0usize..7);
        let written = entries(&mut rng, n, dim);
        let mut journal = Journal::open(&path).unwrap();
        for e in &written {
            journal.append(e).unwrap();
        }
        drop(journal);
        let bytes = fs::read(&path).unwrap();
        prop_assert_eq!(Journal::replay(&path), (written.clone(), Vec::new()));
        for _ in 0..12 {
            fs::write(&path, damaged(&bytes, &mut rng)).unwrap();
            let (replayed, _) = Journal::replay(&path);
            prop_assert!(written.starts_with(&replayed), "{replayed:?} of {written:?}");
            // Recovery accepts the same prefix, and leaves a journal
            // that takes an append and replays it without complaint.
            let (mut journal, recovered, _) = Journal::recover(&path).unwrap();
            prop_assert_eq!(&recovered, &replayed);
            let fresh = Entry { id: u64::MAX, vec: floats(&mut rng, dim) };
            journal.append(&fresh).unwrap();
            let (mut expected, (replayed, warnings)) = (recovered, Journal::replay(&path));
            expected.push(fresh);
            prop_assert_eq!(replayed, expected);
            prop_assert!(warnings.is_empty(), "{warnings:?}");
        }
        fs::remove_dir_all(&dir).ok();
    }
}
