//! Flight recorder: per-thread lock-free ring buffers retaining the
//! last N events, dumpable to a crash file on panic or on demand.
//!
//! Every event that passes the filter is copied into the recording
//! thread's ring (`record` is called from [`crate::dispatch`] before
//! the sinks run). Each ring slot is a fixed block of `AtomicU64`s
//! guarded by a per-slot sequence word (a seqlock): the writer bumps
//! the sequence to odd, stores the payload, then bumps it to even with
//! `Release`; [`dump`] reads the sequence with `Acquire` on both sides
//! of the payload read and discards the slot if it was odd or changed.
//! The record path is wait-free — no locks, no allocation after the
//! ring exists — so it is safe to call from any instrumented hot path,
//! and a concurrent dump can never block or corrupt a writer.
//!
//! Messages and targets are truncated to a fixed byte budget per slot
//! (the recorder is a black box for post-mortems, not an archival
//! sink). Dumps serialise every surviving slot across every thread
//! that ever recorded, sorted by timestamp, as JSONL — written with
//! the same atomic protocol snapshots use (temp file + fsync + rename)
//! so a half-written crash file is never observed under the final
//! name.
//!
//! The recorder is subordinate to the global filter: it sees exactly
//! the events the sinks see. Arming it counts as having a destination,
//! so events flow into the rings even with no sinks installed
//! (see `recompute_gate`).

use crate::{Event, EventKind, Level};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Ring capacity (slots per thread) used when arming without an
/// explicit capacity (`T2VEC_FLIGHT=1`/`on`).
pub const DEFAULT_CAPACITY: usize = 1024;

/// Byte budget for the message text in one slot.
const MSG_BYTES: usize = 48;
/// Byte budget for the target in one slot.
const TGT_BYTES: usize = 32;
const MSG_WORDS: usize = MSG_BYTES / 8;
const TGT_WORDS: usize = TGT_BYTES / 8;

/// One recorded event, fixed-size, all-atomic so the seqlock protocol
/// needs no `unsafe` and no locks.
struct Slot {
    /// Seqlock word: odd while a write is in progress; each completed
    /// write leaves it at a new even value.
    seq: AtomicU64,
    ts_ns: AtomicU64,
    /// Packed: kind (8 bits) | level (8) | depth (16) | msg_len (16) | tgt_len (16).
    meta: AtomicU64,
    trace_id: AtomicU64,
    span_id: AtomicU64,
    parent_span: AtomicU64,
    /// `u64::MAX` encodes "no elapsed time" (not a span exit).
    elapsed_ns: AtomicU64,
    msg: [AtomicU64; MSG_WORDS],
    tgt: [AtomicU64; TGT_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            ts_ns: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            trace_id: AtomicU64::new(0),
            span_id: AtomicU64::new(0),
            parent_span: AtomicU64::new(0),
            elapsed_ns: AtomicU64::new(u64::MAX),
            msg: std::array::from_fn(|_| AtomicU64::new(0)),
            tgt: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

fn kind_code(kind: EventKind) -> u64 {
    match kind {
        EventKind::Event => 0,
        EventKind::SpanEnter => 1,
        EventKind::SpanExit => 2,
        EventKind::Metric => 3,
    }
}

fn kind_from_code(code: u64) -> EventKind {
    match code {
        1 => EventKind::SpanEnter,
        2 => EventKind::SpanExit,
        3 => EventKind::Metric,
        _ => EventKind::Event,
    }
}

fn pack_bytes(words: &[AtomicU64], bytes: &[u8]) {
    for (i, w) in words.iter().enumerate() {
        let mut buf = [0u8; 8];
        let start = i * 8;
        if start < bytes.len() {
            let end = (start + 8).min(bytes.len());
            buf[..end - start].copy_from_slice(&bytes[start..end]);
        }
        w.store(u64::from_le_bytes(buf), Ordering::Relaxed);
    }
}

fn unpack_bytes(words: &[u64], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Truncate `s` to at most `max` bytes on a char boundary.
fn clamp_utf8(s: &str, max: usize) -> &str {
    if s.len() <= max {
        return s;
    }
    let mut end = max;
    while end > 0 && !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// One thread's ring. The owning thread is the only writer; dumps read
/// concurrently via the per-slot seqlock.
struct FlightRing {
    /// Stable label for the dump (`thread-name` or `ThreadId(..)`).
    label: String,
    slots: Box<[Slot]>,
    /// Total events ever written; next slot is `head % capacity`.
    head: AtomicU64,
}

impl FlightRing {
    fn new(label: String, capacity: usize) -> FlightRing {
        FlightRing {
            label,
            slots: (0..capacity.max(1)).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn write(&self, event: &Event) {
        let idx = self.head.load(Ordering::Relaxed) as usize % self.slots.len();
        let slot = &self.slots[idx];
        // Odd = in progress. Release on the closing store publishes the
        // payload to any reader that sees the new even value.
        let seq0 = slot.seq.load(Ordering::Relaxed);
        slot.seq.store(seq0 | 1, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);

        let msg = clamp_utf8(&event.message, MSG_BYTES);
        let tgt = clamp_utf8(event.target, TGT_BYTES);
        slot.ts_ns.store(event.ts_ns, Ordering::Relaxed);
        slot.meta.store(
            kind_code(event.kind)
                | (event.level as u64) << 8
                | (event.depth.min(0xffff) as u64) << 16
                | (msg.len() as u64) << 32
                | (tgt.len() as u64) << 48,
            Ordering::Relaxed,
        );
        slot.trace_id.store(event.trace_id, Ordering::Relaxed);
        slot.span_id.store(event.span_id, Ordering::Relaxed);
        slot.parent_span.store(event.parent_span, Ordering::Relaxed);
        slot.elapsed_ns
            .store(event.elapsed_ns.unwrap_or(u64::MAX), Ordering::Relaxed);
        pack_bytes(&slot.msg, msg.as_bytes());
        pack_bytes(&slot.tgt, tgt.as_bytes());

        slot.seq
            .store((seq0 | 1).wrapping_add(1), Ordering::Release);
        self.head.fetch_add(1, Ordering::Relaxed);
    }

    /// Seqlock read of one slot; `None` if empty, torn or in-flight.
    fn read_slot(&self, idx: usize) -> Option<FlightEntry> {
        let slot = &self.slots[idx];
        let seq_before = slot.seq.load(Ordering::Acquire);
        if seq_before == 0 || seq_before & 1 == 1 {
            return None;
        }
        let ts_ns = slot.ts_ns.load(Ordering::Relaxed);
        let meta = slot.meta.load(Ordering::Relaxed);
        let trace_id = slot.trace_id.load(Ordering::Relaxed);
        let span_id = slot.span_id.load(Ordering::Relaxed);
        let parent_span = slot.parent_span.load(Ordering::Relaxed);
        let elapsed = slot.elapsed_ns.load(Ordering::Relaxed);
        let msg_words: Vec<u64> = slot.msg.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        let tgt_words: Vec<u64> = slot.tgt.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        std::sync::atomic::fence(Ordering::Acquire);
        if slot.seq.load(Ordering::Relaxed) != seq_before {
            return None;
        }
        let msg_len = ((meta >> 32) & 0xffff) as usize;
        let tgt_len = ((meta >> 48) & 0xffff) as usize;
        Some(FlightEntry {
            thread: self.label.clone(),
            ts_ns,
            kind: kind_from_code(meta & 0xff),
            level: Level::from_u8(((meta >> 8) & 0xff) as u8).unwrap_or(Level::Trace),
            depth: ((meta >> 16) & 0xffff) as usize,
            target: String::from_utf8_lossy(&unpack_bytes(&tgt_words, tgt_len)).into_owned(),
            message: String::from_utf8_lossy(&unpack_bytes(&msg_words, msg_len)).into_owned(),
            trace_id,
            span_id,
            parent_span,
            elapsed_ns: (elapsed != u64::MAX).then_some(elapsed),
        })
    }
}

/// One decoded flight-recorder entry (as written to the dump file).
#[derive(Debug, Clone)]
pub struct FlightEntry {
    pub thread: String,
    pub ts_ns: u64,
    pub kind: EventKind,
    pub level: Level,
    pub depth: usize,
    pub target: String,
    pub message: String,
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span: u64,
    pub elapsed_ns: Option<u64>,
}

/// 0 = disarmed; otherwise the per-thread ring capacity.
static ARMED_CAPACITY: AtomicUsize = AtomicUsize::new(0);

/// Every ring ever created, including those of exited threads (their
/// last events stay dumpable — that is the point of a crash recorder).
/// Locked only at thread-ring creation and during dumps, never on the
/// record path.
static RINGS: Mutex<Vec<Arc<FlightRing>>> = Mutex::new(Vec::new());

thread_local! {
    static MY_RING: std::cell::RefCell<Option<Arc<FlightRing>>> =
        const { std::cell::RefCell::new(None) };
}

/// Whether the recorder is armed (rings accept events).
pub fn is_armed() -> bool {
    ARMED_CAPACITY.load(Ordering::Acquire) != 0
}

/// Arm the recorder: every thread that subsequently records gets a ring
/// of `capacity` slots. Counts as an event destination, so the fast
/// gate opens even with no sinks installed.
pub fn arm(capacity: usize) {
    ARMED_CAPACITY.store(capacity.max(1), Ordering::Release);
    crate::refresh_gate();
}

/// Disarm: stop recording (existing ring contents stay dumpable).
pub fn disarm() {
    ARMED_CAPACITY.store(0, Ordering::Release);
    crate::refresh_gate();
}

/// Copy an event into the calling thread's ring. Called by
/// [`crate::dispatch`]; a single relaxed load when disarmed.
pub(crate) fn record(event: &Event) {
    let capacity = ARMED_CAPACITY.load(Ordering::Acquire);
    if capacity == 0 {
        return;
    }
    MY_RING.with(|cell| {
        let mut cell = cell.borrow_mut();
        let ring = cell.get_or_insert_with(|| {
            let t = std::thread::current();
            let label = t
                .name()
                .map(|n| n.to_string())
                .unwrap_or_else(|| format!("{:?}", t.id()));
            let ring = Arc::new(FlightRing::new(label, capacity));
            RINGS
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(Arc::clone(&ring));
            ring
        });
        ring.write(event);
    });
}

/// Read every surviving slot across all rings, sorted by timestamp.
pub fn entries() -> Vec<FlightEntry> {
    let rings: Vec<Arc<FlightRing>> = RINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    let mut out = Vec::new();
    for ring in rings {
        for idx in 0..ring.slots.len() {
            if let Some(entry) = ring.read_slot(idx) {
                out.push(entry);
            }
        }
    }
    out.sort_by(|a, b| a.ts_ns.cmp(&b.ts_ns).then(a.thread.cmp(&b.thread)));
    out
}

fn entry_json(e: &FlightEntry) -> String {
    let mut line = String::with_capacity(160);
    line.push_str("{\"thread\":\"");
    crate::sink::push_escaped(&mut line, &e.thread);
    line.push_str("\",\"ts_ns\":");
    line.push_str(&e.ts_ns.to_string());
    line.push_str(",\"kind\":\"");
    line.push_str(e.kind.as_str());
    line.push_str("\",\"level\":\"");
    line.push_str(e.level.as_str());
    line.push_str("\",\"target\":\"");
    crate::sink::push_escaped(&mut line, &e.target);
    line.push_str("\",\"msg\":\"");
    crate::sink::push_escaped(&mut line, &e.message);
    line.push('"');
    if e.depth > 0 {
        line.push_str(&format!(",\"depth\":{}", e.depth));
    }
    if e.trace_id != 0 {
        line.push_str(&format!(",\"trace\":{}", e.trace_id));
    }
    if e.span_id != 0 {
        line.push_str(&format!(",\"span\":{}", e.span_id));
    }
    if e.parent_span != 0 {
        line.push_str(&format!(",\"parent\":{}", e.parent_span));
    }
    if let Some(ns) = e.elapsed_ns {
        line.push_str(&format!(",\"elapsed_ns\":{ns}"));
    }
    line.push('}');
    line
}

/// Dump every ring to `path` as JSONL, via the snapshot §9 atomic-write
/// protocol (temp file in the same directory + fsync + rename) so a
/// crash mid-dump never leaves a torn file under the final name.
/// Returns the number of entries written.
pub fn dump<P: AsRef<Path>>(path: P) -> io::Result<usize> {
    let path = path.as_ref();
    let entries = entries();
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    std::fs::create_dir_all(&parent)?;
    let tmp = parent.join(format!(
        ".flight-{}-{}.tmp",
        std::process::id(),
        crate::now_ns()
    ));
    {
        let mut f = std::fs::File::create(&tmp)?;
        let mut buf = String::with_capacity(entries.len() * 160);
        for e in &entries {
            buf.push_str(&entry_json(e));
            buf.push('\n');
        }
        f.write_all(buf.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Ok(dir) = std::fs::File::open(&parent) {
        let _ = dir.sync_all();
    }
    Ok(entries.len())
}

/// Crash-file path used by the panic hook.
static DUMP_PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Install (once) a panic hook that dumps the rings to `path`, then
/// chains to the previously installed hook. Calling again only updates
/// the path.
pub fn install_panic_hook<P: Into<PathBuf>>(path: P) {
    *DUMP_PATH.lock().unwrap_or_else(|e| e.into_inner()) = Some(path.into());
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let path = DUMP_PATH.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(path) = path {
                match dump(&path) {
                    Ok(n) => {
                        let _ = writeln!(
                            io::stderr(),
                            "t2vec-obs: flight recorder dumped {n} events to {}",
                            path.display()
                        );
                    }
                    Err(err) => {
                        let _ = writeln!(io::stderr(), "t2vec-obs: flight dump failed: {err}");
                    }
                }
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(msg: &str, ts: u64) -> Event {
        Event {
            kind: EventKind::Event,
            level: Level::Debug,
            target: "flight.test",
            message: msg.to_string(),
            fields: Vec::new(),
            elapsed_ns: None,
            depth: 1,
            ts_ns: ts,
            trace_id: 7,
            span_id: 9,
            parent_span: 3,
        }
    }

    #[test]
    fn ring_wraps_and_survives_roundtrip() {
        let ring = FlightRing::new("t".into(), 4);
        for i in 0..10u64 {
            ring.write(&ev(&format!("event-{i}"), i));
        }
        let mut got: Vec<FlightEntry> = (0..4).filter_map(|i| ring.read_slot(i)).collect();
        got.sort_by_key(|e| e.ts_ns);
        // Capacity 4, 10 writes: only the last 4 remain.
        assert_eq!(got.len(), 4);
        assert_eq!(got[0].message, "event-6");
        assert_eq!(got[3].message, "event-9");
        assert_eq!(got[0].trace_id, 7);
        assert_eq!(got[0].span_id, 9);
        assert_eq!(got[0].parent_span, 3);
        assert_eq!(got[0].depth, 1);
        assert_eq!(got[0].target, "flight.test");
    }

    #[test]
    fn long_messages_truncate_on_char_boundary() {
        let ring = FlightRing::new("t".into(), 2);
        let long = "é".repeat(40); // 80 bytes of 2-byte chars
        ring.write(&ev(&long, 1));
        let entry = ring.read_slot(0).unwrap();
        assert!(entry.message.len() <= MSG_BYTES);
        assert!(entry.message.chars().all(|c| c == 'é'));
        assert_eq!(clamp_utf8("abc", 10), "abc");
        assert_eq!(clamp_utf8("日本語", 4), "日");
    }

    #[test]
    fn concurrent_writer_and_reader_never_tear() {
        let ring = Arc::new(FlightRing::new("t".into(), 8));
        let w = Arc::clone(&ring);
        let writer = std::thread::spawn(move || {
            for i in 0..20_000u64 {
                w.write(&ev(&format!("msg-{i:05}"), i));
            }
        });
        // Read concurrently; every successfully read slot must be
        // internally consistent (message matches its timestamp).
        for _ in 0..2_000 {
            for idx in 0..8 {
                if let Some(e) = ring.read_slot(idx) {
                    assert_eq!(e.message, format!("msg-{:05}", e.ts_ns));
                }
            }
        }
        writer.join().unwrap();
    }

    #[test]
    fn entry_json_shape() {
        let e = FlightEntry {
            thread: "worker-1".into(),
            ts_ns: 42,
            kind: EventKind::SpanExit,
            level: Level::Debug,
            depth: 2,
            target: "serve.store".into(),
            message: "knn".into(),
            trace_id: 5,
            span_id: 6,
            parent_span: 4,
            elapsed_ns: Some(1000),
        };
        let line = entry_json(&e);
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"kind\":\"span_exit\""));
        assert!(line.contains("\"trace\":5"));
        assert!(line.contains("\"elapsed_ns\":1000"));
    }
}
