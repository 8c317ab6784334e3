//! Pure-std observability for the t2vec workspace.
//!
//! Three pillars, all dependency-free:
//!
//! * **Structured logging** — leveled events with a static target
//!   (`"nn.train"`, `"core.ckpt"`, …), a formatted message and typed
//!   key/value fields, filtered by a [`Filter`] parsed from the
//!   `T2VEC_LOG` environment variable (`"info"`,
//!   `"warn,core.ckpt=debug"`, …).
//! * **Spans** — RAII guards ([`Span`]) that emit an enter event and an
//!   exit event carrying the elapsed wall-clock nanoseconds, with a
//!   per-thread nesting depth.
//! * **Metrics** — a process-global registry of named counters, gauges
//!   and log-scale histograms (see [`metrics`]).
//!
//! Events flow to pluggable [`Sink`]s: [`StderrSink`] (human-readable),
//! [`JsonlSink`] (one JSON object per line, machine-readable) and
//! [`MemorySink`] (test capture).
//!
//! # The determinism invariant
//!
//! Instrumented code must uphold one rule: **wall-clock time only ever
//! flows *into* the event stream, never into computation**. Sinks and
//! filters may observe timing; nothing downstream of a sink may feed a
//! model weight, an RNG, a report field that participates in canonical
//! JSON, or any control-flow decision in the numeric pipeline. Metric
//! *values* derived from deterministic data (MAC counts, token counts,
//! candidate-set sizes) are fine; latencies are confined to sinks.
//! `tests/obs_invariance.rs` at the workspace root enforces this by
//! running the paper harness with observability off and at `trace`
//! verbosity across a thread matrix and asserting byte-identical
//! reports and checkpoints.
//!
//! Everything is a no-op (one relaxed atomic load) until a filter and at
//! least one sink are installed, so library crates can instrument
//! unconditionally.

pub mod context;
pub mod flight;
pub mod metrics;
pub mod quantiles;
mod sink;

pub use context::SpanContext;
pub use sink::{JsonlSink, MemorySink, StderrSink};

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
use std::time::Instant;

/// Severity of an event. Lower numeric value = more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
    Trace = 5,
}

impl Level {
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    /// Parse a level token. `"off"` yields `None`; unknown tokens also
    /// yield `None` (callers treat both as "no logging").
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
        }
    }

    pub(crate) fn from_u8(v: u8) -> Option<Level> {
        match v {
            1 => Some(Level::Error),
            2 => Some(Level::Warn),
            3 => Some(Level::Info),
            4 => Some(Level::Debug),
            5 => Some(Level::Trace),
            _ => None,
        }
    }
}

/// A typed field value attached to an event or metric snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    Str(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

macro_rules! impl_field_from {
    ($($ty:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$ty> for FieldValue {
            fn from(v: $ty) -> Self { FieldValue::$variant(v as $conv) }
        })*
    };
}

impl_field_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64,
    i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64, i64 => I64 as i64,
    isize => I64 as i64,
    f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What kind of record an [`Event`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A plain log event.
    Event,
    /// A span was entered.
    SpanEnter,
    /// A span was exited; `elapsed_ns` is set.
    SpanExit,
    /// A metrics-registry snapshot entry (see [`metrics::emit`]).
    Metric,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Event => "event",
            EventKind::SpanEnter => "span_enter",
            EventKind::SpanExit => "span_exit",
            EventKind::Metric => "metric",
        }
    }
}

/// One record flowing through the sinks.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
    pub level: Level,
    /// Static dotted component name, e.g. `"tensor.par"` or `"core.ckpt"`.
    pub target: &'static str,
    /// Human-readable message (span name for span records, metric name
    /// for metric records).
    pub message: String,
    pub fields: Vec<(&'static str, FieldValue)>,
    /// Wall-clock nanoseconds a span was open; only on [`EventKind::SpanExit`].
    pub elapsed_ns: Option<u64>,
    /// Span nesting depth on the emitting thread at record time.
    pub depth: usize,
    /// Monotonic nanoseconds since the first obs call in this process.
    pub ts_ns: u64,
    /// Trace this record belongs to (0 = none). Span records carry their
    /// own trace; plain events carry the enclosing span's.
    pub trace_id: u64,
    /// For span enter/exit records: the span's own id. For plain events
    /// and metrics: the enclosing span's id (0 = none).
    pub span_id: u64,
    /// For span enter/exit records: the parent span's id (0 = root).
    /// Always 0 on plain events — they attach via `span_id`.
    pub parent_span: u64,
}

impl Event {
    /// Look up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Destination for events. Implementations must be thread-safe; `record`
/// is called from whichever thread emitted the event.
pub trait Sink: Send + Sync {
    fn record(&self, event: &Event);
    fn flush(&self) {}
}

/// Level filter: a default level plus `target=level` prefix directives,
/// as parsed from `T2VEC_LOG`.
#[derive(Debug, Clone)]
pub struct Filter {
    /// 0 = off, else Level as u8.
    default: u8,
    /// Longest-prefix-wins directives, sorted by descending prefix length.
    directives: Vec<(String, u8)>,
}

impl Filter {
    /// Filter that rejects everything.
    pub const fn off() -> Filter {
        Filter {
            default: 0,
            directives: Vec::new(),
        }
    }

    /// Filter that accepts everything up to `level` for all targets.
    pub fn at(level: Level) -> Filter {
        Filter {
            default: level as u8,
            directives: Vec::new(),
        }
    }

    /// Parse a spec like `"info"`, `"off"`, `"warn,core.ckpt=debug"` or
    /// `"debug,tensor=trace,eval=info"`. Malformed tokens never panic in
    /// library context — they are dropped — but each one is reported in
    /// the returned warning list so [`init_from_env`] can surface them
    /// instead of silently accepting a typo'd spec.
    ///
    /// Rejected (with a warning): directives with an empty target
    /// (`"=debug"`), directives with an unknown level (`"core=loud"`),
    /// and bare words that are neither a level nor `"off"`.
    pub fn parse_with_warnings(spec: &str) -> (Filter, Vec<String>) {
        let mut default = 0u8;
        let mut directives: Vec<(String, u8)> = Vec::new();
        let mut warnings = Vec::new();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            if let Some((target, level)) = token.split_once('=') {
                let target = target.trim();
                let level = level.trim();
                if target.is_empty() {
                    warnings.push(format!("directive {token:?} has an empty target"));
                    continue;
                }
                // `target=off` is a meaningful directive (silence one
                // subtree); anything else unknown is a typo.
                let lv = match Level::parse(level) {
                    Some(l) => l as u8,
                    None if level.eq_ignore_ascii_case("off") => 0,
                    None => {
                        warnings.push(format!(
                            "directive {token:?} has unknown level {level:?} \
                             (expected error|warn|info|debug|trace|off)"
                        ));
                        continue;
                    }
                };
                directives.push((target.to_string(), lv));
            } else if let Some(lv) = Level::parse(token) {
                default = lv as u8;
            } else if token.eq_ignore_ascii_case("off") {
                default = 0;
            } else {
                warnings.push(format!(
                    "unknown token {token:?} (expected a level or target=level)"
                ));
            }
        }
        directives.sort_by(|a, b| b.0.len().cmp(&a.0.len()).then(a.0.cmp(&b.0)));
        (
            Filter {
                default,
                directives,
            },
            warnings,
        )
    }

    /// [`Filter::parse_with_warnings`] discarding the warning list.
    pub fn parse(spec: &str) -> Filter {
        Filter::parse_with_warnings(spec).0
    }

    /// The most verbose level this filter can ever pass (as u8, 0 = off).
    pub fn max_level(&self) -> u8 {
        self.directives
            .iter()
            .map(|(_, lv)| *lv)
            .fold(self.default, u8::max)
    }

    /// Raise the default level to at least `level`, keeping directives.
    pub fn raise_to(&mut self, level: Level) {
        if self.default < level as u8 {
            self.default = level as u8;
        }
    }

    /// Longest matching directive wins; a directive matches its exact
    /// target and dot-separated descendants (`core` governs `core` and
    /// `core.ckpt`, never `corette`).
    fn level_for(&self, target: &str) -> u8 {
        for (prefix, lv) in &self.directives {
            if target == prefix.as_str()
                || (target.starts_with(prefix.as_str())
                    && target.as_bytes().get(prefix.len()) == Some(&b'.'))
            {
                return *lv;
            }
        }
        self.default
    }

    /// Would an event at `level` for `target` pass this filter?
    pub fn enabled(&self, target: &str, level: Level) -> bool {
        level as u8 <= self.level_for(target)
    }
}

// ---------------------------------------------------------------------------
// Global state
// ---------------------------------------------------------------------------

/// Fast-path gate: the max level any installed sink could receive.
/// 0 (off) whenever no sinks are installed or the filter is off, so the
/// instrumented hot paths pay one relaxed load and a branch.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(0);

struct Config {
    filter: Filter,
    sinks: Vec<Arc<dyn Sink>>,
}

/// Filter and sinks live under one lock so reconfiguration cannot
/// deadlock on lock ordering and readers see a consistent pair.
static CONFIG: RwLock<Config> = RwLock::new(Config {
    filter: Filter::off(),
    sinks: Vec::new(),
});

thread_local! {
    static SPAN_DEPTH: Cell<usize> = const { Cell::new(0) };
}

fn start_instant() -> Instant {
    static T0: OnceLock<Instant> = OnceLock::new();
    *T0.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the first obs call in this process.
/// Never a wall-clock date: timestamps are only for ordering/latency
/// inside one run's event stream.
pub fn now_ns() -> u64 {
    start_instant().elapsed().as_nanos() as u64
}

fn recompute_gate(cfg: &Config) {
    // An armed flight recorder counts as a destination: events must keep
    // flowing into the per-thread rings even when no sink is installed.
    let gate = if cfg.sinks.is_empty() && !flight::is_armed() {
        0
    } else {
        cfg.filter.max_level()
    };
    MAX_LEVEL.store(gate, Ordering::Release);
}

/// Re-derive the fast-path gate from the current config (called by
/// [`flight::arm`]/[`flight::disarm`], which change whether events have
/// a destination without touching filter or sinks).
pub(crate) fn refresh_gate() {
    let cfg = CONFIG.read().unwrap_or_else(|e| e.into_inner());
    recompute_gate(&cfg);
}

/// Install the level filter.
pub fn set_filter(filter: Filter) {
    let mut cfg = CONFIG.write().unwrap_or_else(|e| e.into_inner());
    cfg.filter = filter;
    recompute_gate(&cfg);
}

/// Replace the sink set. An empty vector turns observability fully off.
pub fn set_sinks(sinks: Vec<Arc<dyn Sink>>) {
    flush();
    let mut cfg = CONFIG.write().unwrap_or_else(|e| e.into_inner());
    cfg.sinks = sinks;
    recompute_gate(&cfg);
}

/// Append a sink, keeping existing ones.
pub fn add_sink(sink: Arc<dyn Sink>) {
    let mut cfg = CONFIG.write().unwrap_or_else(|e| e.into_inner());
    cfg.sinks.push(sink);
    recompute_gate(&cfg);
}

/// Flush every installed sink (JSONL sinks write whole lines already,
/// but call this before process exit or before reading a sink's file).
pub fn flush() {
    for sink in CONFIG
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .sinks
        .iter()
    {
        sink.flush();
    }
}

/// Cheap check: would an event at `level` for `target` reach any sink?
#[inline]
pub fn enabled(target: &str, level: Level) -> bool {
    if level as u8 > MAX_LEVEL.load(Ordering::Acquire) {
        return false;
    }
    CONFIG
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .filter
        .enabled(target, level)
}

/// Deliver a fully-formed event to every sink (and, when armed, the
/// flight recorder). Callers normally go through the macros or
/// [`Span`]; [`metrics::emit`] uses this directly.
pub fn dispatch(event: Event) {
    flight::record(&event);
    for sink in CONFIG
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .sinks
        .iter()
    {
        sink.record(&event);
    }
}

/// Build and deliver a plain log event (macro support; prefer the
/// `info!`/`debug!`/… macros which also do the `enabled` check). The
/// event is stamped with the thread's current span context so it
/// attaches to its enclosing span in a reconstructed trace.
pub fn dispatch_simple(
    level: Level,
    target: &'static str,
    message: String,
    fields: Vec<(&'static str, FieldValue)>,
) {
    let ctx = context::current();
    dispatch(Event {
        kind: EventKind::Event,
        level,
        target,
        message,
        fields,
        elapsed_ns: None,
        depth: SPAN_DEPTH.with(|d| d.get()),
        ts_ns: now_ns(),
        trace_id: ctx.trace_id,
        span_id: ctx.span_id,
        parent_span: 0,
    });
}

/// Configure from the environment:
///
/// * `T2VEC_LOG` — filter spec (falls back to `default_spec` when unset);
/// * `T2VEC_METRICS_OUT` — path of a JSONL file to stream events to;
/// * `T2VEC_FLIGHT` — flight-recorder ring capacity per thread
///   (`"1"`/`"on"` select the default capacity);
/// * `T2VEC_FLIGHT_DUMP` — crash-file path; arms the recorder and
///   installs a panic hook that dumps the rings there.
///
/// A stderr pretty-printer is installed whenever the filter passes
/// anything; it prints at the *requested* verbosity even if the JSONL
/// sink forces the global filter higher (a metrics file or an armed
/// flight recorder implies at least `debug` so span/metric records
/// actually reach it). Malformed filter directives are dropped and
/// reported as `obs.filter` warning events (and on stderr) instead of
/// being silently accepted.
pub fn init_from_env(default_spec: &str) {
    let spec = std::env::var("T2VEC_LOG").unwrap_or_else(|_| default_spec.to_string());
    let (mut filter, filter_warnings) = Filter::parse_with_warnings(&spec);
    let stderr_verbosity = Level::from_u8(filter.max_level());

    let mut sinks: Vec<Arc<dyn Sink>> = Vec::new();
    if let Some(v) = stderr_verbosity {
        sinks.push(Arc::new(StderrSink::with_verbosity(v)));
    }
    match std::env::var("T2VEC_METRICS_OUT") {
        Ok(path) if !path.is_empty() => match JsonlSink::create(&path) {
            Ok(s) => {
                sinks.push(Arc::new(s));
                filter.raise_to(Level::Debug);
            }
            Err(err) => {
                // Observability must never take the process down.
                use std::io::Write;
                let _ = writeln!(
                    std::io::stderr(),
                    "t2vec-obs: cannot open T2VEC_METRICS_OUT={path}: {err}"
                );
            }
        },
        _ => {}
    }

    let flight_capacity = std::env::var("T2VEC_FLIGHT").ok().and_then(|v| {
        let v = v.trim().to_ascii_lowercase();
        match v.as_str() {
            "" | "0" | "off" | "false" => None,
            "1" | "on" | "true" => Some(flight::DEFAULT_CAPACITY),
            _ => v.parse::<usize>().ok().filter(|&n| n > 0),
        }
    });
    let flight_dump = std::env::var("T2VEC_FLIGHT_DUMP")
        .ok()
        .filter(|p| !p.is_empty());
    if flight_capacity.is_some() || flight_dump.is_some() {
        flight::arm(flight_capacity.unwrap_or(flight::DEFAULT_CAPACITY));
        filter.raise_to(Level::Debug);
        if let Some(path) = flight_dump {
            flight::install_panic_hook(path);
        }
    }

    set_filter(filter);
    set_sinks(sinks);

    for w in &filter_warnings {
        use std::io::Write;
        let _ = writeln!(std::io::stderr(), "t2vec-obs: T2VEC_LOG: {w}");
        crate::warn!(target: "obs.filter", "bad filter directive: {}", w);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII span guard: emits a [`EventKind::SpanEnter`] record at `Debug`
/// on creation and a [`EventKind::SpanExit`] record with the elapsed
/// wall-clock nanoseconds on drop. Inert (no clock read, no allocation
/// beyond the pre-built field vec) when the filter rejects the target.
///
/// A live span allocates a [`SpanContext`]: [`Span::enter`] parents
/// under the thread's current context (inheriting its trace id, or
/// starting a fresh trace when there is none), [`Span::enter_root`]
/// always starts a fresh trace. While live, the span's context is the
/// thread-local current context, so nested spans and plain events
/// attach under it; drop restores the context the span displaced at
/// enter — for a root opened inside another span, that outer span —
/// *defensively* (only if current still equals this span's context),
/// which makes out-of-LIFO drops safe.
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    target: &'static str,
    name: &'static str,
    start: Instant,
    ctx: context::SpanContext,
    parent: context::SpanContext,
    /// The thread's context this span displaced at enter, restored on
    /// drop. For an ambient span that is its parent; for a root opened
    /// inside another span it is that outer span, not `NONE`.
    displaced: context::SpanContext,
}

enum SpanParent {
    /// Parent under the thread's current context, become current.
    Ambient,
    /// Start a fresh trace, become current.
    Root,
}

impl Span {
    /// Open a span parented under the thread's current context.
    pub fn enter(
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Span {
        Span::enter_inner(target, name, fields, SpanParent::Ambient)
    }

    /// Open a span that starts a fresh trace regardless of the ambient
    /// context (request entry points: one service call = one trace).
    pub fn enter_root(
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) -> Span {
        Span::enter_inner(target, name, fields, SpanParent::Root)
    }

    fn enter_inner(
        target: &'static str,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
        kind: SpanParent,
    ) -> Span {
        if !enabled(target, Level::Debug) {
            return Span { inner: None };
        }
        let parent = match kind {
            SpanParent::Ambient => context::current(),
            SpanParent::Root => context::SpanContext::NONE,
        };
        let ctx = context::SpanContext {
            trace_id: if parent.is_some() {
                parent.trace_id
            } else {
                context::next_trace_id()
            },
            span_id: context::next_span_id(),
        };
        let depth = SPAN_DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let displaced = context::current();
        context::set_current(ctx);
        dispatch(Event {
            kind: EventKind::SpanEnter,
            level: Level::Debug,
            target,
            message: name.to_string(),
            fields,
            elapsed_ns: None,
            depth,
            ts_ns: now_ns(),
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span: parent.span_id,
        });
        Span {
            inner: Some(SpanInner {
                target,
                name,
                start: Instant::now(),
                ctx,
                parent,
                displaced,
            }),
        }
    }

    /// Whether this span is live (filter passed at creation).
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The span's context ([`SpanContext::NONE`] when the filter
    /// rejected it). Capture this to hand causality across a thread
    /// hop (see [`context::attach`]).
    pub fn context(&self) -> context::SpanContext {
        self.inner
            .as_ref()
            .map(|i| i.ctx)
            .unwrap_or(context::SpanContext::NONE)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            let elapsed = inner.start.elapsed().as_nanos() as u64;
            let depth = SPAN_DEPTH.with(|d| {
                let depth = d.get().saturating_sub(1);
                d.set(depth);
                depth
            });
            context::restore_current(inner.ctx, inner.displaced);
            dispatch(Event {
                kind: EventKind::SpanExit,
                level: Level::Debug,
                target: inner.target,
                message: inner.name.to_string(),
                fields: Vec::new(),
                elapsed_ns: Some(elapsed),
                depth,
                ts_ns: now_ns(),
                trace_id: inner.ctx.trace_id,
                span_id: inner.ctx.span_id,
                parent_span: inner.parent.span_id,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Macros
// ---------------------------------------------------------------------------

/// Internal: shared body of the leveled logging macros.
#[macro_export]
macro_rules! log_at {
    ($lvl:expr, target: $target:expr, $fmt:literal $(, $arg:expr)* $(; $($k:ident = $v:expr),+ $(,)?)?) => {{
        let lvl = $lvl;
        if $crate::enabled($target, lvl) {
            $crate::dispatch_simple(
                lvl,
                $target,
                ::std::format!($fmt $(, $arg)*),
                ::std::vec![$($( (stringify!($k), $crate::FieldValue::from($v)) ),+)?],
            );
        }
    }};
}

/// `error!(target: "core.ckpt", "failed to {}", what; path = p)`
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::log_at!($crate::Level::Error, target: $target, $($rest)*)
    };
}

#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::log_at!($crate::Level::Warn, target: $target, $($rest)*)
    };
}

#[macro_export]
macro_rules! info {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::log_at!($crate::Level::Info, target: $target, $($rest)*)
    };
}

#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::log_at!($crate::Level::Debug, target: $target, $($rest)*)
    };
}

#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($rest:tt)*) => {
        $crate::log_at!($crate::Level::Trace, target: $target, $($rest)*)
    };
}

/// `let _g = span!(target: "eval.harness", "exp1"; rate = 0.3);`
#[macro_export]
macro_rules! span {
    (target: $target:expr, $name:expr $(; $($k:ident = $v:expr),+ $(,)?)?) => {
        $crate::Span::enter(
            $target,
            $name,
            ::std::vec![$($( (stringify!($k), $crate::FieldValue::from($v)) ),+)?],
        )
    };
}

/// Like [`span!`] but always starts a fresh trace: use at request entry
/// points so one service call = one trace id, regardless of what the
/// calling thread had open.
#[macro_export]
macro_rules! span_root {
    (target: $target:expr, $name:expr $(; $($k:ident = $v:expr),+ $(,)?)?) => {
        $crate::Span::enter_root(
            $target,
            $name,
            ::std::vec![$($( (stringify!($k), $crate::FieldValue::from($v)) ),+)?],
        )
    };
}

/// Per-call-site cached counter handle: `counter!("tensor.matmul.calls").incr()`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::counter($name))
    }};
}

/// Per-call-site cached gauge handle.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::gauge($name))
    }};
}

/// Per-call-site cached histogram handle.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SLOT: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        *SLOT.get_or_init(|| $crate::metrics::histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Some(Level::Info));
        assert_eq!(Level::parse("  TRACE "), Some(Level::Trace));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("bogus"), None);
        assert!(Level::Error < Level::Trace);
    }

    #[test]
    fn filter_spec_parsing_and_prefix_match() {
        let f = Filter::parse("warn,core.ckpt=debug,core=info");
        assert!(f.enabled("spatial", Level::Warn));
        assert!(!f.enabled("spatial", Level::Info));
        assert!(f.enabled("core.trainer", Level::Info));
        assert!(!f.enabled("core.trainer", Level::Debug));
        // Longest prefix wins over the shorter `core=` directive.
        assert!(f.enabled("core.ckpt", Level::Debug));
        assert_eq!(f.max_level(), Level::Debug as u8);

        let off = Filter::parse("off");
        assert_eq!(off.max_level(), 0);
        assert!(!off.enabled("anything", Level::Error));

        let mut raised = Filter::parse("warn");
        raised.raise_to(Level::Debug);
        assert!(raised.enabled("x", Level::Debug));
    }

    #[test]
    fn filter_rejects_malformed_directives_with_warnings() {
        let (f, warns) =
            Filter::parse_with_warnings("info, =debug ,core=loud,wat,serve=off,nn=TRACE");
        // The well-formed pieces still apply…
        assert!(f.enabled("anything", Level::Info));
        assert!(
            !f.enabled("serve.store", Level::Error),
            "serve=off silences"
        );
        assert!(
            f.enabled("nn.train", Level::Trace),
            "levels are case-insensitive"
        );
        // …and every malformed directive produced a warning instead of
        // being silently dropped.
        assert_eq!(warns.len(), 3, "{warns:?}");
        assert!(warns[0].contains("empty target"), "{warns:?}");
        assert!(warns[1].contains("unknown level \"loud\""), "{warns:?}");
        assert!(warns[2].contains("unknown token \"wat\""), "{warns:?}");
        // Well-formed specs warn nothing.
        assert!(Filter::parse_with_warnings("warn,core.ckpt=trace")
            .1
            .is_empty());
        assert!(Filter::parse_with_warnings("off").1.is_empty());
        assert!(Filter::parse_with_warnings("").1.is_empty());
    }

    #[test]
    fn longest_prefix_matches_on_module_boundaries() {
        let f = Filter::parse("warn,core=info,core.ckpt=debug,core.ckpt.io=error");
        // Exact and descendant matches.
        assert!(f.enabled("core", Level::Info));
        assert!(!f.enabled("core", Level::Debug));
        assert!(f.enabled("core.trainer", Level::Info));
        // Longest prefix wins at every depth.
        assert!(f.enabled("core.ckpt", Level::Debug));
        assert!(f.enabled("core.ckpt.store", Level::Debug));
        assert!(!f.enabled("core.ckpt.io", Level::Warn));
        assert!(f.enabled("core.ckpt.io", Level::Error));
        // A directive never matches mid-identifier: `corette` is not
        // under `core`, so it gets the default.
        assert!(f.enabled("corette", Level::Warn));
        assert!(!f.enabled("corette", Level::Info));
        // Same-length directives are deterministic (sorted by name).
        let g = Filter::parse("abcd=debug,abce=error");
        assert!(g.enabled("abcd", Level::Debug));
        assert!(!g.enabled("abce", Level::Warn));
    }

    #[test]
    fn field_value_conversions() {
        assert_eq!(FieldValue::from(3usize), FieldValue::U64(3));
        assert_eq!(FieldValue::from(-2i32), FieldValue::I64(-2));
        assert_eq!(FieldValue::from(1.5f32), FieldValue::F64(1.5));
        assert_eq!(FieldValue::from(true), FieldValue::Bool(true));
        assert_eq!(FieldValue::from("x"), FieldValue::Str("x".to_string()));
    }
}
