//! Scoped-thread helpers shared by the batch encoder, the inference
//! engine and the training loop.
//!
//! All parallelism in this workspace funnels through two primitives, and
//! both split work *between* kernel calls — across batches, buckets and
//! directions — never inside one: every matrix kernel is serial.
//!
//! * [`par_map`] — maps a function over a slice, handing out chunks of
//!   items on demand, in input order, and returning results in input
//!   order. Batch encoding and data-parallel gradient computation use it.
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
//! Which worker runs an index depends on timing, but what it computes
//! does not: both helpers guarantee that each index is processed by
//! exactly one worker with the same per-index code path regardless of
//! the worker count, and [`par_map`] puts results back together by
//! index. Callers keep every floating-point reduction inside a single
//! index's computation, so results are bit-identical for 1 and N
//! threads.
//!
//! # Nesting
//!
//! Threads are OS threads spawned per call via [`std::thread::scope`]
//! (no persistent pool, so there is no global state to poison). To stop
//! a parallel region from recursively fanning out — e.g. a bucket
//! encoded inside [`par_map`] calls [`join`] for its two directions,
//! which would otherwise spawn a thread of its own — a thread-local flag
//! marks worker threads, and any helper invoked on a marked thread runs
//! inline. [`inline`] sets the same flag around a closure, for a caller
//! whose other cores are already busy.

use std::cell::Cell;
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

/// Runs `body` on the calling thread as a nested parallel region runs
/// it: the thread is marked as a worker, so every [`par_map`] and
/// [`join`] inside stays on it. The regions mark their own workers this
/// way; a caller uses it when it already keeps the other cores busy with
/// work of its own (the admission batcher, when another engine pass is
/// in flight). The mark is lifted again also when `body` unwinds: a
/// caller that catches the panic must not stay marked, or every later
/// region on that thread would run serially.
pub fn inline<T>(body: impl FnOnce() -> T) -> T {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            IN_WORKER.with(|w| w.set(self.0));
        }
    }
    let _restore = Restore(IN_WORKER.with(|w| w.replace(true)));
    body()
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// `f` receives `(index, &item)`. Every worker, the caller included,
/// claims the next contiguous chunk of `⌈n / (4·workers)⌉` items from a
/// shared counter until none are left, so a worker that finishes early
/// takes more. Items are claimed in input order: a caller whose items
/// differ in cost puts the costliest first (as `encode_tokens_batch`
/// does with its longest-first buckets), and the cheap tail then fills
/// in behind them.
///
/// Runs as a plain serial map when nested inside another parallel
/// region or when only one worker is configured, with this thread
/// marked as a worker, as in a fan-out. A single item also runs
/// serially, but unmarked: nothing else is running, so the code it calls
/// may still use the other workers (one bucket's two encoder directions
/// through [`join`]).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let serial = || items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    if in_parallel_worker() || num_threads() == 1 {
        return inline(serial);
    }
    let n = items.len();
    if n <= 1 {
        return serial();
    }
    let workers = num_threads().min(n);
    let chunk = n.div_ceil(4 * workers);
    // `Relaxed`: the counter only hands out indices; the results reach
    // the caller through the scope's joins.
    let next = AtomicUsize::new(0);
    // Each worker returns its chunks tagged with their first index.
    let claim = || {
        inline(|| {
            let mut done: Vec<(usize, Vec<U>)> = Vec::new();
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    return done;
                }
                let end = (start + chunk).min(n);
                done.push((start, (start..end).map(|i| f(i, &items[i])).collect()));
            }
        })
    };
    let mut chunks = std::thread::scope(|s| {
        let handles: Vec<_> = (1..workers).map(|_| s.spawn(claim)).collect();
        let mut chunks = claim();
        for h in handles {
            chunks.extend(h.join().expect("parallel worker panicked"));
        }
        chunks
    });
    chunks.sort_unstable_by_key(|&(start, _)| start);
    chunks.into_iter().flat_map(|(_, c)| c).collect()
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
    if in_parallel_worker() || num_threads() == 1 {
        return inline(|| (a(), b()));
    }
    std::thread::scope(|s| {
        let worker = s.spawn(move || inline(b));
        let ra = inline(a);
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

    /// Held by the tests that need at least two workers and by those
    /// that set one, so they cannot move the process-wide thread count
    /// under each other.
    static THREAD_COUNT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn pin_threads(n: usize) -> std::sync::MutexGuard<'static, ()> {
        let guard = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(n);
        guard
    }

    #[test]
    fn idle_workers_claim_the_remaining_items() {
        // Item 0 cannot finish until items 1–3 have run, so the worker
        // that claims it must not also own any of them: a split fixed
        // before the work starts would pair it with item 1.
        let _pinned = pin_threads(2);
        let others_done = AtomicUsize::new(0);
        let out = par_map(&[0, 1, 2, 3], |i, &x| {
            if i == 0 {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
                while others_done.load(Ordering::SeqCst) < 3 {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "items 1-3 did not run while item 0 waited"
                    );
                    std::thread::yield_now();
                }
            } else {
                others_done.fetch_add(1, Ordering::SeqCst);
            }
            x * 10
        });
        assert_eq!(out, [0, 10, 20, 30]);
    }

    #[test]
    fn a_single_item_leaves_the_other_workers_free() {
        let _pinned = pin_threads(2);
        assert_eq!(par_map(&[7], |_, _| in_parallel_worker()), [false]);
        // Nested or single-threaded, the item still runs marked.
        assert_eq!(
            par_map(&[0, 1], |_, _| par_map(&[7], |_, _| in_parallel_worker())),
            [[true], [true]]
        );
        set_threads(1);
        assert_eq!(par_map(&[7], |_, _| in_parallel_worker()), [true]);
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
        let _pinned = pin_threads(1);
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
    fn inline_keeps_join_on_the_caller_and_restores_the_flag() {
        let _pinned = pin_threads(2);
        let here = std::thread::current().id();
        let (a, b) = inline(|| {
            join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            )
        });
        assert_eq!((a, b), (here, here));
        assert!(!in_parallel_worker());
        // Outside it, the same join fans out.
        let (_, b) = join(|| (), || std::thread::current().id());
        assert_ne!(b, here);
        // A panic caught outside the region leaves the thread unmarked.
        let caught = std::panic::catch_unwind(|| inline(|| panic!("pass failed")));
        assert!(caught.is_err());
        assert!(!in_parallel_worker());
        let caught = std::panic::catch_unwind(|| join(|| panic!("direction failed"), || ()));
        assert!(caught.is_err());
        assert!(!in_parallel_worker());
    }

    #[test]
    fn set_threads_clamps_and_sticks() {
        let _pinned = pin_threads(0);
        assert_eq!(num_threads(), 1);
        set_threads(7);
        assert_eq!(num_threads(), 7);
        set_threads(4);
        assert_eq!(num_threads(), 4);
    }
}
