//! Request tracing through the serving stack (ISSUE 9 tentpole).
//!
//! Two contracts are proven here:
//!
//! 1. **Every request has a complete span tree.** Every request (query
//!    or insert) traced at `debug`, from concurrent callers sharing the
//!    engine pool, yields a *complete* tree in the event stream: the
//!    request root, its `encode` child, the engine's `encode_batch`
//!    span under that child (the pass runs on the request's own thread),
//!    the store scan child, and exactly one `serve.explain` event — all
//!    in the request's trace, with every parent id resolving inside the
//!    captured stream.
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
use t2vec_serve::{ServeConfig, SimilarityService};
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

/// Runs the shared workload: preload the pool under ids `0..n`, then
/// query every trajectory (k=5) from `workers` threads. Returns the
/// store's canonical bytes and each query's hits, in pool order.
fn run_workload(workers: usize) -> (Vec<u8>, Vec<Vec<(u64, f32)>>) {
    let f = fixture();
    let service = SimilarityService::new(Arc::clone(&f.model), ServeConfig::default());
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
fn every_request_reconstructs_a_complete_span_tree() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let f = fixture();
    let sink = Arc::new(MemorySink::new());
    obs::set_filter(Filter::parse("debug"));
    obs::set_sinks(vec![sink.clone()]);

    let service = SimilarityService::new(Arc::clone(&f.model), ServeConfig::default());
    let n_inserts = 8.min(f.pool.len());
    let n_queries = 6.min(f.pool.len());
    std::thread::scope(|s| {
        // Eight concurrent requesters, more than the engines at 1, 2 or
        // 4 threads, so some may wait for one.
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
    drop(service);

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
        // service → engine pool: the encode child, and under it the
        // engine pass, all in the request's trace.
        let encode = children(root.span_id, "encode");
        assert_eq!(
            encode.len(),
            1,
            "root {} needs one encode child",
            root.message
        );
        assert_eq!(encode[0].trace_id, root.trace_id);
        let pass = children(encode[0].span_id, "encode_batch");
        assert_eq!(
            pass.len(),
            1,
            "encode under {} needs its engine pass",
            root.message
        );
        assert_eq!(pass[0].target, "nn.engine");
        assert_eq!(pass[0].trace_id, root.trace_id);
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
    assert_eq!(request_traces.len(), roots.len(), "one trace per request");
    // Every engine pass served exactly one request.
    let passes = enters
        .values()
        .filter(|e| e.target == "nn.engine" && e.message == "encode_batch")
        .count();
    assert_eq!(passes, roots.len(), "one engine pass per request");
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
            SimilarityService::open(Arc::clone(&f.model), ServeConfig::default(), &dir)
                .expect("open");
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
