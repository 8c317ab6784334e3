//! Request tracing through the serving stack (ISSUE 9 tentpole).
//!
//! Two contracts are proven here:
//!
//! 1. **Span trees survive batching.** Every request (query or insert)
//!    traced at `debug` yields a *complete* tree in the event stream:
//!    the request root, its `encode` child on the request thread, the
//!    `batch_member` span the runner of its pass opens under that child
//!    (on the request's own thread or another caller's), the store scan
//!    child, and exactly one `serve.explain` event — with every parent
//!    id resolving inside the captured stream.
//! 2. **Observability never changes a result byte.** The same workload
//!    run with tracing off and with tracing at `debug` (sink installed,
//!    flight recorder armed) produces bitwise-identical store contents
//!    and kNN results, at 1 and at 4 worker threads.
//!
//! The obs configuration is process-global, so every test here takes
//! `CONFIG_LOCK` first (the pattern of `crates/obs/tests/events.rs`,
//! which also recovers the guard from a poisoned lock).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex, OnceLock};
use t2vec_core::{T2Vec, T2VecConfig};
use t2vec_obs::{self as obs, Event, EventKind, FieldValue, Filter, MemorySink};
use t2vec_serve::{BatcherConfig, ServeConfig, SimilarityService};
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::DatasetBuilder;

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

struct Fixture {
    pool: Vec<Vec<Point>>,
    model: Arc<T2Vec>,
}

/// One tiny trained model + trajectory pool shared by every test in
/// this binary (training dominates the suite's runtime).
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
            pool: data.test.iter().map(|t| t.points.clone()).collect(),
            model: Arc::new(model),
        }
    })
}

/// A small bucket, so that the requests concurrent callers queue while
/// every engine is busy leave in several batches, some full and some not:
/// the cross-thread stitch is exercised by multi-member batches of both
/// kinds as well as singletons.
fn serve_config() -> ServeConfig {
    ServeConfig {
        batcher: BatcherConfig { max_batch: 4 },
        ..ServeConfig::default()
    }
}

/// Runs the shared workload: preload the pool under ids `0..n`, then
/// query every trajectory (k=5) from `workers` threads. Returns the
/// store's canonical bytes and each query's hits, in pool order.
fn run_workload(workers: usize) -> (Vec<u8>, Vec<Vec<(u64, f32)>>) {
    let f = fixture();
    let service = SimilarityService::new(Arc::clone(&f.model), serve_config());
    std::thread::scope(|s| {
        let handles: Vec<_> = f
            .pool
            .chunks(f.pool.len().div_ceil(workers))
            .enumerate()
            .map(|(w, chunk)| {
                let service = &service;
                let base = w * f.pool.len().div_ceil(workers);
                s.spawn(move || {
                    for (i, traj) in chunk.iter().enumerate() {
                        service.insert((base + i) as u64, traj).expect("insert");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("insert worker");
        }
    });
    let hits: Vec<Vec<(u64, f32)>> = std::thread::scope(|s| {
        let handles: Vec<_> = f
            .pool
            .chunks(f.pool.len().div_ceil(workers))
            .map(|chunk| {
                let service = &service;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|traj| service.query(traj, 5))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("query worker"))
            .collect()
    });
    (service.store().canonical_bytes(), hits)
}

#[test]
fn every_request_reconstructs_a_complete_cross_thread_span_tree() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = fixture();
    let sink = Arc::new(MemorySink::new());
    obs::set_filter(Filter::parse("debug"));
    obs::set_sinks(vec![sink.clone()]);

    let service = SimilarityService::new(Arc::clone(&f.model), serve_config());
    let n_inserts = 8.min(f.pool.len());
    let n_queries = 6.min(f.pool.len());
    std::thread::scope(|s| {
        // Concurrent requesters so the batcher really merges members.
        for (i, traj) in f.pool.iter().take(n_inserts).enumerate() {
            let service = &service;
            s.spawn(move || service.insert(i as u64, traj).expect("insert"));
        }
    });
    std::thread::scope(|s| {
        for traj in f.pool.iter().take(n_queries) {
            let service = &service;
            s.spawn(move || {
                let (hits, explain) = service.knn_explained(traj, 3);
                assert_eq!(hits.len(), explain.results);
                assert!(explain.exact_fallback, "no ANN tier configured");
            });
        }
    });
    drop(service); // every request returned: all member spans closed

    let events = sink.events();
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());

    // Index every span by id; remember enters and exits separately.
    let mut enters: BTreeMap<u64, &Event> = BTreeMap::new();
    let mut exited: BTreeSet<u64> = BTreeSet::new();
    for e in &events {
        match e.kind {
            EventKind::SpanEnter => {
                enters.insert(e.span_id, e);
            }
            EventKind::SpanExit => {
                exited.insert(e.span_id);
            }
            _ => {}
        }
    }
    // Every entered span exited, every parent reference resolves.
    for (id, e) in &enters {
        assert!(
            exited.contains(id),
            "span {id} ({}) never exited",
            e.message
        );
        if e.parent_span != 0 {
            assert!(
                enters.contains_key(&e.parent_span),
                "span {id} ({}) has unseen parent {}",
                e.message,
                e.parent_span
            );
        }
    }

    let children = |parent: u64, name: &str| -> Vec<&Event> {
        enters
            .values()
            .filter(|e| e.parent_span == parent && e.message == name)
            .copied()
            .collect()
    };
    let roots: Vec<&Event> = enters
        .values()
        .filter(|e| e.parent_span == 0 && e.target == "serve.service")
        .copied()
        .collect();
    assert_eq!(
        roots.len(),
        n_inserts + n_queries,
        "one request root per insert/query"
    );
    let mut request_traces = BTreeSet::new();
    for root in &roots {
        request_traces.insert(root.trace_id);
        // service → batcher: the encode child, and under it the member
        // span the runner of its pass opened.
        let encode = children(root.span_id, "encode");
        assert_eq!(
            encode.len(),
            1,
            "root {} needs one encode child",
            root.message
        );
        let members = children(encode[0].span_id, "batch_member");
        assert_eq!(
            members.len(),
            1,
            "encode under {} needs its cross-thread member span",
            root.message
        );
        assert_eq!(members[0].trace_id, root.trace_id);
        match root.message.as_str() {
            "query" => {
                // service → store: the scan child, plus exactly one
                // explain event attached to this trace.
                assert_eq!(children(root.span_id, "store_knn").len(), 1);
                let explains: Vec<&Event> = events
                    .iter()
                    .filter(|e| {
                        e.kind == EventKind::Event
                            && e.target == "serve.explain"
                            && e.trace_id == root.trace_id
                    })
                    .collect();
                assert_eq!(explains.len(), 1, "one explain per query");
                assert_eq!(explains[0].span_id, root.span_id);
                assert_eq!(
                    explains[0].field("exact_fallback"),
                    Some(&FieldValue::Bool(true))
                );
            }
            "insert" => {}
            other => panic!("unexpected request root {other:?}"),
        }
    }
    // Engine passes run as their own roots on the runner's thread; their
    // `members` fields must jointly cover every request trace.
    let mut covered = BTreeSet::new();
    for e in enters.values() {
        if e.target == "nn.engine" && e.message == "encode_batch" {
            assert_eq!(e.parent_span, 0, "engine batch is its own root");
            if let Some(FieldValue::Str(m)) = e.field("members") {
                covered.extend(m.split(',').filter_map(|t| t.parse::<u64>().ok()));
            }
        }
    }
    for t in &request_traces {
        assert!(covered.contains(t), "trace {t} missing from engine members");
    }
}

#[test]
fn snapshot_bytes_identical_under_tracing() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = fixture();
    let run = |observed: bool, tag: &str| -> Vec<u8> {
        let dir =
            std::env::temp_dir().join(format!("t2vec-serve-tracing-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = Arc::new(MemorySink::new());
        if observed {
            obs::set_filter(Filter::parse("debug"));
            obs::set_sinks(vec![sink.clone()]);
            obs::flight::arm(128);
        }
        let (service, warnings) =
            SimilarityService::open(Arc::clone(&f.model), serve_config(), &dir).expect("open");
        assert!(warnings.is_empty(), "{warnings:?}");
        for (i, traj) in f.pool.iter().take(6).enumerate() {
            service.insert(i as u64, traj).expect("insert");
        }
        let snap = service.snapshot().expect("snapshot").expect("persistent");
        drop(service);
        if observed {
            assert!(!sink.is_empty(), "observed run must actually record");
            obs::flight::disarm();
            obs::set_sinks(Vec::new());
            obs::set_filter(Filter::off());
        }
        let bytes = std::fs::read(snap).expect("read snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());
    let off = run(false, "off");
    let on = run(true, "on");
    assert_eq!(off, on, "snapshot bytes diverged under tracing");
}

#[test]
fn tracing_at_debug_changes_no_result_byte() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // Baseline: observability fully off.
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());
    for workers in [1usize, 4] {
        let (bytes_off, hits_off) = run_workload(workers);

        // Observed: debug filter, sink capturing everything, flight
        // recorder armed.
        let sink = Arc::new(MemorySink::new());
        obs::set_filter(Filter::parse("debug"));
        obs::set_sinks(vec![sink.clone()]);
        obs::flight::arm(256);
        let (bytes_on, hits_on) = run_workload(workers);
        assert!(!sink.is_empty(), "observed run must actually record");
        obs::flight::disarm();
        obs::set_sinks(Vec::new());
        obs::set_filter(Filter::off());

        assert_eq!(
            bytes_off, bytes_on,
            "store bytes diverged under tracing ({workers} workers)"
        );
        assert_eq!(
            hits_off, hits_on,
            "kNN results diverged under tracing ({workers} workers)"
        );
    }
}
