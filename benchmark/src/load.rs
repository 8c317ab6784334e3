//! The load generator: a closed loop for saturation and a paced open
//! loop for latency.
//!
//! Serving clients are library callers that block on a reply, so
//! throughput is measured closed-loop. Latency is measured against a
//! fixed schedule of due times: each request is timed from when it was
//! due, so a stall is charged to every request it delays, and the
//! generator's own lateness is reported beside the latencies.

use crate::inputs::Op;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Client threads of both loops (the host has 2 cores).
pub const CLIENTS: usize = 2;

/// The system a load phase drives.
pub trait Target: Sync {
    /// Runs one operation. `Err` when the call returned an error or its
    /// answer failed the inline check.
    fn exec(&self, op: Op) -> Result<(), String>;
}

/// An operation fails when it returns `Err`, panics (caught here so the
/// run is still reported), or returns an answer that fails its check.
fn succeeds(target: &impl Target, op: Op) -> bool {
    matches!(
        catch_unwind(AssertUnwindSafe(|| target.exec(op))),
        Ok(Ok(()))
    )
}

/// Attempted and failed operations of one phase.
#[derive(Clone, Copy, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
}

impl Tally {
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One closed-loop round.
pub struct ClosedRound {
    /// Successful completions per second.
    pub rate: f64,
    pub tally: Tally,
    /// Operations each client took from its list, so the next round can
    /// go on where this one stopped.
    pub taken: Vec<usize>,
}

/// Each client runs its own operation list from position `from[client]`
/// (wrapping around) for `duration`.
pub fn closed_loop(
    target: &impl Target,
    streams: &[Vec<Op>],
    from: &[usize],
    duration: Duration,
) -> ClosedRound {
    let t0 = Instant::now();
    let done: Vec<Vec<(Duration, bool)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .zip(from)
            .map(|(ops, &from)| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    while t0.elapsed() < duration {
                        let op = ops[(from + done.len()) % ops.len()];
                        let ok = succeeds(target, op);
                        done.push((t0.elapsed(), ok));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .expect("closed-loop client panicked outside an operation")
            })
            .collect()
    });
    let mut tally = Tally::default();
    let mut in_time = 0usize;
    for &(at, ok) in done.iter().flatten() {
        tally.attempted += 1;
        tally.failed += usize::from(!ok);
        // The one completion per client that lands after the deadline
        // is not counted in the rate.
        in_time += usize::from(ok && at < duration);
    }
    ClosedRound {
        rate: in_time as f64 / duration.as_secs_f64(),
        tally,
        taken: done.iter().map(Vec::len).collect(),
    }
}

/// One paced request.
#[derive(Clone, Copy)]
pub struct Sample {
    pub is_query: bool,
    /// Send time minus due time: the generator's lateness.
    pub late: Duration,
    /// Completion time minus due time.
    pub latency: Duration,
    pub ok: bool,
}

/// Sends `ops[i]` at `i / rate` seconds: the clients take the next due
/// request in turn, so a slow reply delays later requests only when
/// every client is busy — and that delay is counted, because latency
/// runs from the due time.
pub fn paced(target: &impl Target, ops: &[Op], rate: f64) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes no other data.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&op) = ops.get(i) else { break };
                        let due = Duration::from_secs_f64(i as f64 / rate);
                        wait_until(t0, due);
                        let sent = t0.elapsed();
                        let ok = succeeds(target, op);
                        let done = t0.elapsed();
                        mine.push((
                            i,
                            Sample {
                                is_query: matches!(op, Op::Query(_)),
                                late: sent.saturating_sub(due),
                                latency: done.saturating_sub(due),
                                ok,
                            },
                        ));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .expect("paced client panicked outside an operation")
            })
            .collect()
    });
    samples.sort_by_key(|&(i, _)| i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// Sleeps to just before `due`, then spins: `thread::sleep` alone
/// overshoots by 50-100 us, a tenth of a `query_vec`.
fn wait_until(t0: Instant, due: Duration) {
    const SPIN: Duration = Duration::from_micros(200);
    let now = t0.elapsed();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while t0.elapsed() < due {
        std::hint::spin_loop();
    }
}
