//! Request-scoped trace context: plain-u64 trace and span identifiers.
//!
//! A [`SpanContext`] names one span inside one trace. Identifiers are
//! process-local `u64`s allocated from relaxed atomic counters; `0`
//! means "none" in both positions, so the ids sit in events and
//! flight-recorder slots without `Option` wrappers.
//!
//! Each thread holds a *current* context in a thread-local cell. Spans
//! set it on enter and restore the context they displaced on drop;
//! plain events stamp whatever is current so they attach to their
//! enclosing span. Nothing hands a context to another thread: every
//! span of a served request (its root, the encode, the store query)
//! opens on the caller's thread, so the trace nests on that thread's
//! context alone.
//!
//! Identifier allocation order depends on thread scheduling, so ids are
//! observability data only: they flow into the event stream and never
//! into computation (crate-level determinism invariant).

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies one span within one trace. `trace_id == 0` means "no
/// context"; a live context always has both ids nonzero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanContext {
    /// Shared by every span belonging to one logical request.
    pub trace_id: u64,
    /// Unique per span within the process.
    pub span_id: u64,
}

impl SpanContext {
    /// The empty context (no trace, no span).
    pub const NONE: SpanContext = SpanContext {
        trace_id: 0,
        span_id: 0,
    };

    /// Whether this names a real span.
    pub fn is_some(self) -> bool {
        self.trace_id != 0
    }
}

// Ids start at 1 so 0 stays reserved for "none".
static NEXT_TRACE_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh trace id (nonzero, process-unique).
pub fn next_trace_id() -> u64 {
    NEXT_TRACE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Allocate a fresh span id (nonzero, process-unique).
pub fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

thread_local! {
    static CURRENT: Cell<SpanContext> = const { Cell::new(SpanContext::NONE) };
}

/// The current thread's active span context ([`SpanContext::NONE`] when
/// no span is open).
pub fn current() -> SpanContext {
    CURRENT.with(|c| c.get())
}

pub(crate) fn set_current(ctx: SpanContext) {
    CURRENT.with(|c| c.set(ctx));
}

/// Restore `prev` only if the current context is still `own` — the
/// defensive rule that makes an out-of-LIFO span drop (an outer span
/// dropped while an inner one is still live) leave the context the
/// inner span installed untouched.
pub(crate) fn restore_current(own: SpanContext, prev: SpanContext) {
    CURRENT.with(|c| {
        if c.get() == own {
            c.set(prev);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_unique() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert!(a != 0 && b != 0 && a != b);
        let s1 = next_span_id();
        let s2 = next_span_id();
        assert!(s1 != 0 && s2 != 0 && s1 != s2);
    }

    #[test]
    fn out_of_order_drop_is_defensive() {
        // Spans are inert unless a sink listens at their level; this
        // target is used by no other test.
        crate::set_filter(crate::Filter::parse("obs.context.test=debug"));
        crate::set_sinks(vec![std::sync::Arc::new(crate::MemorySink::new())]);
        let base = current();
        let a = crate::Span::enter("obs.context.test", "a", Vec::new());
        let b = crate::Span::enter("obs.context.test", "b", Vec::new());
        let (ctx_a, ctx_b) = (a.context(), b.context());
        assert!(ctx_a.is_some() && ctx_b.is_some());
        assert_eq!(current(), ctx_b);
        // Drop `a` first: current is `b`, not `a`, so nothing changes;
        // dropping `b` then restores `a` (the context it displaced).
        drop(a);
        assert_eq!(current(), ctx_b);
        drop(b);
        assert_eq!(current(), ctx_a);
        // Clean up the dangling `a` (its drop already ran).
        set_current(base);
        crate::set_sinks(Vec::new());
        crate::set_filter(crate::Filter::off());
    }
}
