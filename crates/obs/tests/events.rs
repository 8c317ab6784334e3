//! End-to-end event flow: macros → filter → sinks.
//!
//! These tests mutate the process-global obs configuration, so every
//! test takes `CONFIG_LOCK` first — the default multi-threaded test
//! runner would otherwise interleave `set_sinks` calls. The lock guards
//! no data, and every test sets the configuration it needs, so the
//! others recover the guard from a test that failed holding it: one
//! fault reports as one failure.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use t2vec_obs::{self as obs, EventKind, FieldValue, Filter, JsonlSink, Level, MemorySink};

static CONFIG_LOCK: Mutex<()> = Mutex::new(());

fn with_memory_sink<R>(spec: &str, f: impl FnOnce(&MemorySink) -> R) -> R {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let sink = Arc::new(MemorySink::new());
    obs::set_filter(Filter::parse(spec));
    obs::set_sinks(vec![sink.clone()]);
    let out = f(&sink);
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());
    out
}

#[test]
fn macros_respect_filter_and_carry_fields() {
    with_memory_sink("info,noisy=error", |sink| {
        obs::info!(target: "app", "hello {}", 42; answer = 42u64, label = "x");
        obs::debug!(target: "app", "filtered out");
        obs::info!(target: "noisy.component", "also filtered");
        obs::error!(target: "noisy.component", "kept");

        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "hello 42");
        assert_eq!(events[0].level, Level::Info);
        assert_eq!(events[0].field("answer"), Some(&FieldValue::U64(42)));
        assert_eq!(
            events[0].field("label"),
            Some(&FieldValue::Str("x".to_string()))
        );
        assert_eq!(events[1].level, Level::Error);
    });
}

#[test]
fn spans_nest_and_time() {
    with_memory_sink("debug", |sink| {
        {
            let _outer = obs::span!(target: "app", "outer"; size = 3usize);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = obs::span!(target: "app", "inner");
            }
        }
        let events = sink.events();
        let kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::SpanEnter, // outer
                EventKind::SpanEnter, // inner
                EventKind::SpanExit,  // inner
                EventKind::SpanExit,  // outer
            ]
        );
        assert_eq!(events[0].depth, 0);
        assert_eq!(events[1].depth, 1);
        let outer_exit = &events[3];
        assert_eq!(outer_exit.message, "outer");
        assert!(outer_exit.elapsed_ns.unwrap() >= 2_000_000);
        assert!(events[2].elapsed_ns.unwrap() <= outer_exit.elapsed_ns.unwrap());
    });
}

#[test]
fn spans_are_inert_when_filtered() {
    with_memory_sink("info", |sink| {
        let g = obs::span!(target: "app", "invisible");
        assert!(!g.is_enabled());
        drop(g);
        assert!(sink.is_empty());
    });
}

#[test]
fn disabled_means_no_dispatch() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::at(Level::Trace));
    // No sinks -> fast path off even with a permissive filter.
    assert!(!obs::enabled("app", Level::Error));
    obs::set_filter(Filter::off());
}

#[test]
fn buffered_jsonl_sink_loses_nothing_on_teardown() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs_buffered.jsonl");
    // A flush policy that never triggers on its own during this test
    // (count threshold far above the volume, interval ~forever), so
    // everything rides on the teardown flush.
    let sink = JsonlSink::with_policy(&path, 1_000_000, u64::MAX).expect("create sink");
    obs::set_filter(Filter::parse("trace"));
    obs::set_sinks(vec![Arc::new(sink)]);
    const N: usize = 1_000;
    for i in 0..N {
        obs::info!(target: "app.buffered", "event {}", i; i = i);
    }
    // Swap the sinks out: `set_sinks` flushes the outgoing sink, then
    // dropping the last Arc flushes again — the same path an orderly
    // process exit takes through `obs::flush()`.
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());
    let text = std::fs::read_to_string(&path).expect("read jsonl");
    assert_eq!(text.lines().count(), N, "a buffered event was lost");
    for line in text.lines() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
    }
}

#[test]
fn panic_hook_dumps_flight_rings() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs_flight_crash.jsonl");
    let _ = std::fs::remove_file(&path);
    obs::set_filter(Filter::parse("debug"));
    obs::flight::arm(32);
    obs::flight::install_panic_hook(&path);
    // A worker records a few events, then dies. The hook must write the
    // crash file even though no sink was ever installed — the flight
    // recorder is the post-mortem for exactly that situation.
    let result = std::thread::Builder::new()
        .name("doomed".into())
        .spawn(|| {
            for i in 0..10u64 {
                obs::debug!(target: "app.flight", "pre-crash {}", i; i = i);
            }
            panic!("deliberate crash for the flight recorder");
        })
        .unwrap()
        .join();
    assert!(result.is_err(), "worker must panic");
    obs::flight::disarm();
    obs::set_filter(Filter::off());
    let text = std::fs::read_to_string(&path).expect("crash dump written");
    assert!(
        text.lines().any(|l| l.contains("app.flight")),
        "dump must contain the doomed thread's events"
    );
    for line in text.lines() {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("bad flight line {line:?}: {e}"));
    }
}

#[test]
fn a_root_dropped_inside_a_span_gives_the_context_back() {
    with_memory_sink("debug", |sink| {
        // A service call made inside a caller's span opens its request
        // root there; once it closes, the caller's later spans must
        // parent under the caller's span again.
        let outer = obs::span!(target: "app", "outer");
        {
            let request = obs::span_root!(target: "app", "request");
            assert_eq!(obs::context::current(), request.context());
        }
        assert_eq!(obs::context::current(), outer.context());
        drop(obs::span!(target: "app", "after"));
        let outer_id = outer.context().span_id;
        drop(outer);
        assert_eq!(obs::context::current(), obs::SpanContext::NONE);

        let events = sink.events();
        let after = events
            .iter()
            .find(|e| e.kind == EventKind::SpanEnter && e.message == "after")
            .expect("enter record of after");
        assert_eq!(after.parent_span, outer_id);
    });
}

#[test]
fn jsonl_sink_produces_parseable_lines() {
    let _guard = CONFIG_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("obs_events.jsonl");
    let sink = Arc::new(JsonlSink::create(&path).expect("create jsonl sink"));
    obs::set_filter(Filter::parse("trace"));
    obs::set_sinks(vec![sink]);

    obs::info!(target: "app", "msg with \"quotes\" and \\ backslash"; n = 7u64, x = 1.5f64);
    {
        let _g = obs::span!(target: "app", "phase");
    }
    obs::metrics::counter("test.events.jsonl").add(3);
    obs::metrics::emit();
    obs::flush();
    obs::set_sinks(Vec::new());
    obs::set_filter(Filter::off());

    let text = std::fs::read_to_string(&path).expect("read jsonl");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "expected event + 2 span + metrics lines");
    let mut kinds = Vec::new();
    for line in &lines {
        let v: serde_json::Value =
            serde_json::from_str(line).unwrap_or_else(|e| panic!("bad JSONL line {line:?}: {e}"));
        match v {
            serde_json::Value::Object(pairs) => {
                let kind = pairs
                    .iter()
                    .find(|(k, _)| k == "kind")
                    .map(|(_, v)| format!("{v:?}"));
                kinds.push(kind.unwrap_or_default());
            }
            other => panic!("line is not an object: {other:?}"),
        }
    }
    let joined = kinds.join(" ");
    assert!(joined.contains("span_enter"));
    assert!(joined.contains("span_exit"));
    assert!(joined.contains("metric"));
    assert!(text.contains("test.events.jsonl"));
}
