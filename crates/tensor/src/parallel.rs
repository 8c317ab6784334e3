//! Scoped-thread helpers shared by the batch encoder, the inference
//! engine and the training loop.
//!
//! All parallelism in this workspace funnels through two primitives, and
//! both split work *between* kernel calls — across batches, buckets and
//! directions — never inside one: every matrix kernel is serial.
//!
//! * [`par_map`] — maps a function over a slice, sharding contiguous
//!   index ranges across workers and returning results in input order.
//!   Batch encoding and data-parallel gradient computation use it.
//! * [`join`] — runs two independent closures, the second on a scoped
//!   thread. The inference engine uses it for the forward and backward
//!   encoder stacks of one bucket.
//!
//! # Worker count
//!
//! The pool size is resolved once, lazily: the `T2VEC_THREADS`
//! environment variable wins if set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. Tests and embedders can
//! override it at runtime with [`set_threads`].
//!
//! # Determinism
//!
//! Work is always partitioned into *contiguous index ranges*, and both
//! helpers guarantee that each index is processed by exactly one worker
//! with the same per-index code path regardless of the worker count.
//! Callers keep every floating-point reduction inside a single index's
//! computation, so results are bit-identical for 1 and N threads.
//!
//! # Nesting
//!
//! Threads are OS threads spawned per call via [`std::thread::scope`]
//! (no persistent pool, so there is no global state to poison). To stop
//! a parallel region from recursively fanning out — e.g. a bucket
//! encoded inside [`par_map`] calls [`join`] for its two directions,
//! which would otherwise spawn a thread of its own — a thread-local flag
//! marks worker threads, and any helper invoked on a marked thread runs
//! inline.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Hard upper bound on the worker count; protects against a typo'd
/// `T2VEC_THREADS=4000` spawning thousands of OS threads.
const MAX_THREADS: usize = 64;

/// Resolved worker count; `0` means "not resolved yet".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set while the current thread is executing inside a parallel
    /// region (either as a spawned worker or as the caller running its
    /// own share); suppresses nested fan-out.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Parses a `T2VEC_THREADS`-style value: positive integer, clamped to
/// [`MAX_THREADS`]. Returns `None` for anything unusable.
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n.min(MAX_THREADS)),
        _ => None,
    }
}

fn resolve_default() -> usize {
    if let Some(n) = std::env::var("T2VEC_THREADS")
        .ok()
        .as_deref()
        .and_then(parse_threads)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The number of worker threads parallel regions will use.
///
/// Resolution order: [`set_threads`] override, then the
/// `T2VEC_THREADS` environment variable, then
/// [`std::thread::available_parallelism`]. The value is cached after
/// the first call.
pub fn num_threads() -> usize {
    let configured = CONFIGURED.load(Ordering::Relaxed);
    if configured != 0 {
        return configured;
    }
    let n = resolve_default();
    // A benign race: concurrent first calls resolve the same value.
    CONFIGURED.store(n, Ordering::Relaxed);
    n
}

/// Overrides the worker count for the whole process (clamped to
/// `1..=64`). Intended for tests and embedders that manage their own
/// thread budget.
pub fn set_threads(n: usize) {
    CONFIGURED.store(n.clamp(1, MAX_THREADS), Ordering::Relaxed);
}

/// Returns `true` on a thread that is currently inside a parallel
/// region; helpers called from such a thread run inline instead of
/// fanning out.
pub fn in_parallel_worker() -> bool {
    IN_WORKER.with(|w| w.get())
}

/// Worker count a region over `units` independent units would use right
/// now: 1 when nested or when there is at most one unit.
fn effective_workers(units: usize) -> usize {
    if in_parallel_worker() {
        return 1;
    }
    num_threads().min(units).max(1)
}

/// Splits `0..total` into `parts` contiguous, non-empty, balanced
/// ranges (sizes differ by at most one). `parts` must be `>= 1` and
/// `<= total` unless `total == 0`, in which case one empty range is
/// returned.
fn split_ranges(total: usize, parts: usize) -> Vec<Range<usize>> {
    if total == 0 {
        return std::iter::once(0..0).collect();
    }
    let parts = parts.clamp(1, total);
    let base = total / parts;
    let extra = total % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for p in 0..parts {
        let len = base + usize::from(p < extra);
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

/// Runs `body` with the nested-parallelism flag set, restoring it after.
fn with_worker_flag<T>(body: impl FnOnce() -> T) -> T {
    IN_WORKER.with(|w| {
        let prev = w.replace(true);
        let out = body();
        w.set(prev);
        out
    })
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Items are sharded as contiguous index ranges across workers; `f`
/// receives `(index, &item)`. Falls back to a plain serial map when
/// nested inside another parallel region or when only one worker is
/// available.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let workers = effective_workers(items.len());
    if workers <= 1 {
        return with_worker_flag(|| items.iter().enumerate().map(|(i, t)| f(i, t)).collect());
    }
    let ranges = split_ranges(items.len(), workers);
    let mut shards: Vec<Vec<U>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|s| {
        let f = &f;
        let map_range = move |r: Range<usize>| -> Vec<U> {
            with_worker_flag(|| r.map(|i| f(i, &items[i])).collect())
        };
        let mut ranges = ranges.into_iter();
        let head = ranges.next().expect("at least one range");
        let handles: Vec<_> = ranges.map(|r| s.spawn(move || map_range(r))).collect();
        shards.push(map_range(head));
        for h in handles {
            shards.push(h.join().expect("parallel worker panicked"));
        }
    });
    shards.into_iter().flatten().collect()
}

/// Runs two independent closures and returns both results: `b` on a
/// scoped thread and `a` on the caller when a second worker is
/// available, one after the other when nested inside another parallel
/// region or when [`num_threads`] is 1. Neither closure may depend on
/// the other, so the results cannot depend on which way it ran.
///
/// # Panics
/// Propagates a panic from either closure.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB + Send,
    RB: Send,
{
    let workers = effective_workers(2);
    if workers <= 1 {
        return with_worker_flag(|| (a(), b()));
    }
    std::thread::scope(|s| {
        let worker = s.spawn(move || with_worker_flag(b));
        let ra = with_worker_flag(a);
        match worker.join() {
            Ok(rb) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 2 "), Some(2));
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("100000"), Some(MAX_THREADS));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("two"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn split_ranges_is_a_balanced_partition() {
        for total in [1usize, 2, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = split_ranges(total, parts);
                assert_eq!(ranges.len(), parts.clamp(1, total));
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, total);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let (min, max) = ranges
                    .iter()
                    .map(|r| r.len())
                    .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
                assert!(max - min <= 1, "unbalanced: {ranges:?}");
            }
        }
    }

    #[test]
    fn split_ranges_handles_empty_input() {
        assert_eq!(split_ranges(0, 4), vec![0..0]);
    }

    #[test]
    fn par_map_preserves_input_order() {
        set_threads(4);
        let items: Vec<usize> = (0..103).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_run_inline() {
        set_threads(4);
        assert!(!in_parallel_worker());
        let nested_flags = par_map(&[0, 1, 2, 3], |_, _| {
            // Inside a region: further fan-out must collapse to serial.
            let inner = par_map(&[0, 1], |_, _| in_parallel_worker());
            inner.iter().all(|&flag| flag)
        });
        assert!(nested_flags.iter().all(|&ok| ok));
        assert!(!in_parallel_worker());
    }

    #[test]
    fn join_returns_both_results_and_marks_both_sides() {
        for threads in [1, 2] {
            set_threads(threads);
            let (a, b) = join(|| (in_parallel_worker(), 1), || (in_parallel_worker(), 2));
            assert_eq!((a, b), ((true, 1), (true, 2)));
            assert!(!in_parallel_worker());
        }
        // Nested inside a region, both closures run on the caller.
        set_threads(4);
        let ids = par_map(&[0, 1], |_, _| {
            let here = std::thread::current().id();
            let (a, b) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            a == here && b == here
        });
        assert!(ids.iter().all(|&same| same));
    }

    #[test]
    fn set_threads_clamps_and_sticks() {
        set_threads(0);
        assert_eq!(num_threads(), 1);
        set_threads(7);
        assert_eq!(num_threads(), 7);
        set_threads(4);
        assert_eq!(num_threads(), 4);
    }
}
