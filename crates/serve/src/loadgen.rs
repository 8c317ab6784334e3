//! Mixed read/write load generation against a [`SimilarityService`].
//!
//! Spawns `workers` threads, each driving its own deterministic RNG
//! through `ops_per_worker` operations: with probability
//! `read_fraction` a kNN query (encode + sharded scan), otherwise an
//! encode-on-ingest insert under a fresh id. Per-operation wall-clock
//! latencies feed one unwindowed [`WindowedQuantiles`] estimator per
//! operation class (lock-free log2 buckets — the same machinery behind
//! the serving SLO gauges, with expiry disabled so a bounded run keeps
//! every sample), summarised into p50/p99 afterwards.
//!
//! Latency numbers are *measurements* — they vary by host and never
//! feed back into any result (the obs determinism rule). The *final
//! store contents* of a loadgen run are deterministic for a given
//! config: the set of (id, trajectory) inserts is fixed by the seeds,
//! and encode results don't depend on which engine ran them.

use crate::service::SimilarityService;
use serde::Serialize;
use t2vec_core::T2VecError;
use t2vec_obs::quantiles::WindowedQuantiles;
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;

/// Parameters of one load-generation run.
#[derive(Debug, Clone, Copy)]
pub struct LoadgenConfig {
    /// Concurrent client threads.
    pub workers: usize,
    /// Operations each worker performs.
    pub ops_per_worker: usize,
    /// Probability that an operation is a read (kNN query).
    pub read_fraction: f64,
    /// Neighbours per query.
    pub k: usize,
    /// Base RNG seed (worker `i` uses `seed + i`).
    pub seed: u64,
    /// First id assigned to inserted trajectories (worker `i`'s op `j`
    /// gets `id_base + i * ops_per_worker + j`, collision-free).
    pub id_base: u64,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            ops_per_worker: 250,
            read_fraction: 0.9,
            k: 10,
            seed: 7,
            id_base: 1 << 32,
        }
    }
}

/// Percentile summary of one operation class. Quantiles are log2-bucket
/// estimates (upper bound of the covering bucket — see
/// [`WindowedQuantiles::quantile`]); `max_us` is exact.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySummary {
    /// Operations measured.
    pub ops: usize,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Worst observed latency, microseconds.
    pub max_us: f64,
}

impl LatencySummary {
    /// Summarises one operation class from its quantile estimator.
    /// Estimates are clamped to the exact max (a bucket's upper bound
    /// can exceed every sample in it, which would read as p50 > max);
    /// the clamp cannot leave the true percentile's log2 bucket, since
    /// `percentile ≤ max ≤ upper bound` pins all three to one bucket
    /// whenever the clamp applies.
    fn from_quantiles(q: &WindowedQuantiles) -> Self {
        let max = q.max();
        Self {
            ops: q.count() as usize,
            p50_us: q.quantile(0.50).min(max) as f64 / 1e3,
            p99_us: q.quantile(0.99).min(max) as f64 / 1e3,
            max_us: max as f64 / 1e3,
        }
    }
}

/// The outcome of a load-generation run.
#[derive(Debug, Clone, Serialize)]
pub struct LoadReport {
    /// Concurrent client threads.
    pub workers: usize,
    /// Total operations performed.
    pub ops: usize,
    /// Query operations.
    pub reads: usize,
    /// Insert operations.
    pub writes: usize,
    /// Configured read probability.
    pub read_fraction: f64,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_s: f64,
    /// Operations per second (reads + writes over wall clock).
    pub qps: f64,
    /// Query-latency percentiles (encode + kNN).
    pub read_latency: LatencySummary,
    /// Insert-latency percentiles (encode + upsert + journal).
    pub write_latency: LatencySummary,
    /// Store size after the run.
    pub store_len_end: usize,
}

/// Runs the mixed workload; `pool` supplies both insert payloads and
/// query trajectories (sampled with replacement).
///
/// # Errors
/// The first failed insert, which also ends its worker's run (the
/// other workers finish theirs), or [`T2VecError::Panicked`] when a
/// worker panicked.
///
/// # Panics
/// Panics if `pool` is empty or `workers`/`ops_per_worker` is zero.
pub fn run(
    service: &SimilarityService,
    pool: &[Vec<Point>],
    config: &LoadgenConfig,
) -> Result<LoadReport, T2VecError> {
    assert!(!pool.is_empty(), "loadgen needs a trajectory pool");
    assert!(
        config.workers > 0 && config.ops_per_worker > 0,
        "loadgen needs at least one worker and one op"
    );
    use rand::RngExt;
    let t0 = std::time::Instant::now();
    // One unwindowed estimator per op class, shared by every worker:
    // recording is lock-free atomic bucket increments, so the hot path
    // stays contention-light without per-worker sample vectors.
    let read_q = WindowedQuantiles::unwindowed();
    let write_q = WindowedQuantiles::unwindowed();
    std::thread::scope(|s| -> Result<(), T2VecError> {
        let handles: Vec<_> = (0..config.workers)
            .map(|w| {
                let (read_q, write_q) = (&read_q, &write_q);
                s.spawn(move || -> Result<(), T2VecError> {
                    let mut rng = det_rng(config.seed + w as u64);
                    for op in 0..config.ops_per_worker {
                        let traj = &pool[rng.random_range(0..pool.len())];
                        let is_read = rng.random_bool(config.read_fraction);
                        let t = std::time::Instant::now();
                        if is_read {
                            let hits = service.query(traj, config.k);
                            std::hint::black_box(hits);
                            read_q
                                .record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        } else {
                            let id = config.id_base + (w * config.ops_per_worker + op) as u64;
                            service.insert(id, traj)?;
                            write_q
                                .record(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        // Joins every worker before reporting the first failure.
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        outcomes.into_iter().try_for_each(|outcome| {
            outcome.map_err(|payload| T2VecError::Panicked(panic_message(payload.as_ref())))?
        })
    })?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    let (reads, writes) = (read_q.count() as usize, write_q.count() as usize);
    let ops = reads + writes;
    Ok(LoadReport {
        workers: config.workers,
        ops,
        reads,
        writes,
        read_fraction: config.read_fraction,
        elapsed_s,
        qps: if elapsed_s > 0.0 {
            ops as f64 / elapsed_s
        } else {
            0.0
        },
        read_latency: LatencySummary::from_quantiles(&read_q),
        write_latency: LatencySummary::from_quantiles(&write_q),
        store_len_end: service.len(),
    })
}

/// The message a panic carried, when it carried text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-text panic payload".to_string())
}
