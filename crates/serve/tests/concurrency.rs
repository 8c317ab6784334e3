//! Concurrency stress suite for the serving layer (ISSUE 7 satellite):
//! N writers + M readers against the sharded store must not deadlock or
//! panic, every acknowledged insert must be visible to subsequent
//! queries, and the final store contents must be byte-for-byte
//! independent of thread count and interleaving.
//!
//! The store-level tests use cheap synthetic vectors so the suite can
//! run 50+ consecutive times; the service-level soak shares one tiny
//! trained model across the binary's tests (`OnceLock`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use t2vec_core::{T2Vec, T2VecConfig};
use t2vec_serve::{EmbeddingStore, ServeConfig, SimilarityService};
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::{Dataset, DatasetBuilder};

const DIM: usize = 16;

/// A deterministic synthetic vector per id — no RNG state, so every
/// thread/test derives the same bytes for the same id.
fn vec_for(id: u64, dim: usize) -> Vec<f32> {
    (0..dim as u64)
        .map(|lane| {
            let mut x = id
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(lane.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            x ^= x >> 31;
            x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 27;
            (x as f32 / u64::MAX as f32) * 2.0 - 1.0
        })
        .collect()
}

/// Inserts ids `0..total` from `writers` threads (striped assignment)
/// while `readers` threads run kNN queries over the live store, then
/// returns the store for post-run assertions.
fn stress_run(writers: usize, readers: usize, total: u64, shards: usize) -> EmbeddingStore {
    let store = EmbeddingStore::new(DIM, shards);
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for w in 0..writers {
            let store = &store;
            let done = &done;
            s.spawn(move || {
                // Stripe: writer w owns ids w, w+writers, w+2*writers, …
                let mut id = w as u64;
                while id < total {
                    let v = vec_for(id, DIM);
                    assert!(store.insert(id, &v), "id {id} written twice");
                    // Acked-insert visibility: the id must be readable
                    // the moment insert returns.
                    assert_eq!(store.get(id).as_deref(), Some(v.as_slice()));
                    id += writers as u64;
                }
                done.fetch_add(1, Ordering::Release);
            });
        }
        for r in 0..readers {
            let store = &store;
            let done = &done;
            s.spawn(move || {
                let mut probe = r as u64;
                while done.load(Ordering::Acquire) < writers {
                    let q = vec_for(probe.wrapping_mul(31), DIM);
                    let hits = store.knn(&q, 5);
                    // Results must always be sorted and free of NaN
                    // corruption, whatever writes raced the scan.
                    for pair in hits.windows(2) {
                        assert!(pair[0].1 <= pair[1].1, "unsorted kNN under load");
                    }
                    // A hit acked before the scan must stay retrievable.
                    if let Some((id, _)) = hits.first() {
                        assert!(store.get(*id).is_some());
                    }
                    probe += 1;
                }
            });
        }
    });
    store
}

#[test]
fn writers_and_readers_no_deadlock_all_acked_visible() {
    let total = 800;
    let store = stress_run(4, 3, total, 8);
    assert_eq!(store.len(), total as usize);
    for id in 0..total {
        assert_eq!(
            store.get(id),
            Some(vec_for(id, DIM)),
            "id {id} lost or corrupted"
        );
    }
}

#[test]
fn final_contents_independent_of_interleaving() {
    // Same id set, wildly different thread counts and reader pressure:
    // the canonical byte dump must be identical.
    let a = stress_run(2, 1, 600, 8);
    let b = stress_run(8, 4, 600, 8);
    assert_eq!(a.canonical_bytes(), b.canonical_bytes());
    assert_eq!(a.shard_lens(), b.shard_lens());
}

#[test]
fn racing_upserts_of_identical_values_converge() {
    // Every writer upserts the whole id range (same value per id), so
    // whoever wins each race the final state is forced.
    let store = EmbeddingStore::new(DIM, 4);
    std::thread::scope(|s| {
        for _ in 0..6 {
            let store = &store;
            s.spawn(move || {
                for id in 0..200u64 {
                    store.insert(id, &vec_for(id, DIM));
                }
            });
        }
    });
    assert_eq!(store.len(), 200);
    let reference = EmbeddingStore::new(DIM, 4);
    for id in 0..200u64 {
        reference.insert(id, &vec_for(id, DIM));
    }
    assert_eq!(store.canonical_bytes(), reference.canonical_bytes());
}

struct Fixture {
    data: Dataset,
    model: Arc<T2Vec>,
}

/// One tiny trained model shared by every service-level test in this
/// binary (training dominates the suite's runtime).
fn fixture() -> &'static Fixture {
    static SHARED: OnceLock<Fixture> = OnceLock::new();
    SHARED.get_or_init(|| {
        let mut rng = det_rng(77);
        let city = City::tiny(&mut rng);
        let data = DatasetBuilder::new(&city)
            .trips(60)
            .min_len(8)
            .build(&mut rng);
        let config = T2VecConfig::tiny();
        let model = T2Vec::train(&config, &data.train, &mut rng).expect("tiny training");
        Fixture {
            data,
            model: Arc::new(model),
        }
    })
}

#[test]
fn service_soak_concurrent_insert_then_query_self() {
    let f = fixture();
    let service = SimilarityService::new(Arc::clone(&f.model), ServeConfig::default());
    let trajs: Vec<_> = f.data.test.iter().map(|t| t.points.clone()).collect();
    assert!(trajs.len() >= 4, "tiny dataset too small for the soak");
    std::thread::scope(|s| {
        for (w, chunk) in trajs.chunks(trajs.len().div_ceil(4)).enumerate() {
            let service = &service;
            s.spawn(move || {
                for (i, traj) in chunk.iter().enumerate() {
                    let id = (w * 1000 + i) as u64;
                    service.insert(id, traj).expect("insert");
                    // The batcher must hand back exactly the model's
                    // encoding, and the store must serve it right away:
                    // querying your own trajectory finds distance zero.
                    let hits = service.query(traj, 1);
                    assert_eq!(hits.first().map(|h| h.1), Some(0.0));
                    assert_eq!(
                        service.store().get(id),
                        Some(service.model().encode(traj)),
                        "stored vector differs from the model encoding"
                    );
                }
            });
        }
    });
    assert_eq!(service.len(), trajs.len());
}

#[test]
fn service_batched_queries_match_unbatched_model() {
    // Whatever batches the admission layer happened to form, results
    // must be bitwise what the raw model produces.
    let f = fixture();
    let service = SimilarityService::new(
        Arc::clone(&f.model),
        ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        },
    );
    let trajs: Vec<_> = f
        .data
        .test
        .iter()
        .take(12)
        .map(|t| t.points.clone())
        .collect();
    let encoded: Vec<Vec<f32>> = std::thread::scope(|s| {
        let handles: Vec<_> = trajs
            .iter()
            .map(|t| {
                let service = &service;
                s.spawn(move || service.encode(t))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (t, got) in trajs.iter().zip(&encoded) {
        assert_eq!(got, &f.model.encode(t), "batched encode diverged");
    }
}

#[test]
fn service_persistence_roundtrip_across_restart() {
    let f = fixture();
    let dir = std::env::temp_dir().join(format!("t2vec-serve-roundtrip-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let trajs: Vec<_> = f
        .data
        .test
        .iter()
        .take(8)
        .map(|t| t.points.clone())
        .collect();
    let bytes_before;
    {
        let (service, warnings) =
            SimilarityService::open(Arc::clone(&f.model), ServeConfig::default(), &dir)
                .expect("open fresh dir");
        assert!(warnings.is_empty(), "fresh dir warned: {warnings:?}");
        for (i, t) in trajs.iter().enumerate() {
            service.insert(i as u64, t).expect("insert");
        }
        service.snapshot().expect("snapshot").expect("persistent");
        // Post-snapshot inserts live only in the journal.
        for (i, t) in trajs.iter().enumerate() {
            service.insert(1000 + i as u64, t).expect("insert");
        }
        bytes_before = service.store().canonical_bytes();
    }
    let (recovered, warnings) = SimilarityService::open(
        Arc::clone(&f.model),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        &dir,
    )
    .expect("reopen");
    assert!(warnings.is_empty(), "clean restart warned: {warnings:?}");
    assert_eq!(
        recovered.store().canonical_bytes(),
        bytes_before,
        "snapshot + journal replay must reproduce the exact store"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_format_directory_opens_migrates_and_retires() {
    // What a build before the binary formats left behind: a v2 JSON
    // snapshot, and a v1 text journal whose last record is torn.
    use t2vec_core::durable::crc32;
    use t2vec_serve::{Entry, StoreSnapshot};
    let f = fixture();
    let dim = f.model.repr_dim();
    let dir = std::env::temp_dir().join(format!("t2vec-serve-migrate-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let entry = |id| Entry {
        id,
        vec: vec_for(id, dim),
    };
    let payload = serde_json::to_string(&StoreSnapshot {
        version: 2,
        seq: 1,
        dim,
        entries: (0..6).map(entry).collect(),
        ann: None,
    })
    .unwrap();
    let crc = crc32(payload.as_bytes());
    let framed = format!(
        "{payload}\nt2vec-snap v2 crc32={crc:08x} len={}\n",
        payload.len()
    );
    std::fs::write(dir.join("snap-000001.json"), framed).unwrap();
    std::fs::write(dir.join("LATEST"), "snap-000001.json\n").unwrap();
    let journal_path = dir.join(t2vec_serve::snapshot::JOURNAL_FILE);
    let mut journal = String::new();
    for id in [3, 6, 7] {
        let record = serde_json::to_string(&entry(id)).unwrap();
        journal.push_str(&format!("{:08x} {record}\n", crc32(record.as_bytes())));
    }
    journal.push_str("deadbeef {\"id\":12,\"ve");
    std::fs::write(&journal_path, journal).unwrap();

    let want = EmbeddingStore::new(dim, 3);
    for id in 0..8 {
        want.insert(id, &vec_for(id, dim));
    }
    let config = ServeConfig {
        snapshot_keep: 2,
        ..ServeConfig::default()
    };
    let open = || SimilarityService::open(Arc::clone(&f.model), config, &dir).expect("open");

    // Same contents and the same single warning as the JSON build gave.
    let (service, warnings) = open();
    assert_eq!(service.store().canonical_bytes(), want.canonical_bytes());
    let torn = format!(
        "journal {} line 4: record lacks its newline (torn write); dropping it",
        journal_path.display()
    );
    assert_eq!(warnings, vec![torn]);
    // The journal is v2 from here on: an append lands behind the
    // migrated records and the next open replays all of them.
    service.insert_vec(8, vec_for(8, dim)).expect("insert");
    want.insert(8, &vec_for(8, dim));
    drop(service);
    assert!(std::fs::read(&journal_path)
        .unwrap()
        .starts_with(b"t2vec-journal v2\n"));
    let (service, warnings) = open();
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(service.store().canonical_bytes(), want.canonical_bytes());

    // Snapshots are written as `.bin`; the `.json` file keeps counting
    // toward retention until two newer ones retire it.
    let names = |dir: &std::path::Path| {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("snap-"))
            .collect();
        names.sort();
        names
    };
    service.snapshot().expect("snapshot").expect("persistent");
    assert_eq!(names(&dir), ["snap-000001.json", "snap-000002.bin"]);
    service.snapshot().expect("snapshot").expect("persistent");
    assert_eq!(names(&dir), ["snap-000002.bin", "snap-000003.bin"]);
    drop(service);
    let (service, warnings) = open();
    assert!(warnings.is_empty(), "{warnings:?}");
    assert_eq!(service.store().canonical_bytes(), want.canonical_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn insert_acked_after_a_damaged_journal_recovery_survives_the_next_one() {
    // Recovery stops at the first bad journal record. Appending behind
    // the bad bytes would make the *next* recovery stop there again and
    // drop every insert acknowledged in between.
    let f = fixture();
    let dim = f.model.repr_dim();
    // A v2 record: len u32 | id u64 | f32 × dim | crc32.
    let record = 4 + 8 + 4 * dim + 4;
    type Damage = fn(&mut Vec<u8>, usize);
    let cases: [(&str, Damage); 2] = [
        // Half a record: its length, id and some floats reached the
        // file, the rest and the checksum did not.
        ("torn-tail", |journal, record| {
            let last = journal.len() - record;
            journal.extend_from_within(last..last + record / 2);
        }),
        // One bit in the vector of the second of the four records.
        ("bit-flip", |journal, record| {
            let second = journal.len() - 3 * record;
            journal[second + 20] ^= 0x40;
        }),
    ];
    for (name, damage) in cases {
        let dir = std::env::temp_dir().join(format!("t2vec-serve-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let open = || {
            SimilarityService::open(Arc::clone(&f.model), ServeConfig::default(), &dir)
                .expect("open")
        };
        {
            let (service, _) = open();
            for id in 0..4 {
                service.insert_vec(id, vec_for(id, dim)).expect("insert");
            }
        }
        let journal_path = dir.join(t2vec_serve::snapshot::JOURNAL_FILE);
        let mut journal = std::fs::read(&journal_path).unwrap();
        damage(&mut journal, record);
        std::fs::write(&journal_path, &journal).unwrap();

        let survivors = {
            let (service, warnings) = open();
            assert!(!warnings.is_empty(), "{name}: damage must be reported");
            service
                .insert_vec(500, vec_for(500, dim))
                .expect("insert after recovery");
            service.store().canonical_bytes()
        };
        let (service, warnings) = open();
        assert!(
            warnings.is_empty(),
            "{name}: journal not repaired: {warnings:?}"
        );
        assert_eq!(service.store().get(500), Some(vec_for(500, dim)), "{name}");
        assert_eq!(service.store().canonical_bytes(), survivors, "{name}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn invalid_insert_vec_is_refused_before_store_and_journal() {
    // A NaN that reached the store aborted the next `build_ann` in
    // quantizer training, on the caller's thread (ISSUE 15); a vector
    // of the wrong length panicked in the store's own assert.
    let f = fixture();
    let dim = f.model.repr_dim();
    let dir = std::env::temp_dir().join(format!("t2vec-serve-nonfinite-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        ann: Some(t2vec_serve::AnnConfig::new(4)),
        ..ServeConfig::default()
    };
    let (service, _) = SimilarityService::open(Arc::clone(&f.model), config, &dir).expect("open");
    for id in 0..40 {
        service.insert_vec(id, vec_for(id, dim)).expect("insert");
    }
    let journal_path = dir.join(t2vec_serve::snapshot::JOURNAL_FILE);
    let store_before = service.store().canonical_bytes();
    let journal_before = std::fs::read(&journal_path).unwrap();
    for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut v = vec_for(7, dim);
        v[dim / 2] = bad;
        // Both an overwrite of a stored id and a fresh one.
        for id in [7, 1_000] {
            let err = service.insert_vec(id, v.clone()).unwrap_err();
            assert!(
                matches!(err, t2vec_core::T2VecError::InvalidInput(_)),
                "{bad}: {err}"
            );
        }
    }
    for wrong_dim in [0, dim - 1, dim + 1] {
        for id in [7, 1_000] {
            let err = service.insert_vec(id, vec![0.5; wrong_dim]).unwrap_err();
            assert!(
                matches!(err, t2vec_core::T2VecError::InvalidInput(_)),
                "{wrong_dim} dims: {err}"
            );
        }
    }
    assert_eq!(service.store().canonical_bytes(), store_before);
    assert_eq!(std::fs::read(&journal_path).unwrap(), journal_before);
    assert!(
        service.build_ann(),
        "the tier must build after the refusals"
    );
    assert_eq!(service.query_vec(&vec_for(7, dim), 1)[0].0, 7);
    std::fs::remove_dir_all(&dir).ok();
}
