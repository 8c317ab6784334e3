//! The four workloads' untraced runs: set-up, timed phases, output
//! checks, end-to-end metrics.

use crate::inputs::{self, Op, OpMix, World, K};
use crate::load::{self, Sample, Tally, Target};
use crate::report::{micros, peak_rss_mb, timed, Report, Scratch, Setups};
use crate::stats::{median, percentile};
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2vec_core::model::vec_dist;
use t2vec_core::{T2Vec, Trainer};
use t2vec_serve::{AnnConfig, Entry, ServeConfig, SimilarityService};
use t2vec_spatial::point::Point;
use t2vec_trajgen::dataset::Dataset;

// ---- answer checks ----------------------------------------------------

/// The inline check every query answer passes through: `want` results,
/// finite and non-descending distances.
fn check_answer(answer: &[(u64, f32)], want: usize) -> Result<(), String> {
    if answer.len() != want {
        return Err(format!("{} results, wanted {want}", answer.len()));
    }
    if answer.iter().any(|&(_, d)| !d.is_finite()) {
        return Err("non-finite distance".into());
    }
    if answer.windows(2).any(|w| w[0].1 > w[1].1) {
        return Err("distances not ascending".into());
    }
    Ok(())
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-4 * a.abs().max(b.abs()) + 1e-7
}

/// An oracle built independently of the serving path: a full sort of
/// `vec_dist` to every dumped entry under the `total_cmp` +
/// ascending-id order. `answer` equals it when every rank holds the
/// oracle's distance and an id at that distance (the store's SIMD sum
/// and `vec_dist`'s scalar sum differ in the last bits, so exact ties
/// may swap).
fn equals_oracle(answer: &[(u64, f32)], query: &[f32], entries: &[Entry]) -> bool {
    let mut oracle: Vec<(u64, f32)> = entries
        .iter()
        .map(|e| (e.id, vec_dist(query, &e.vec)))
        .collect();
    oracle.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    // `entries` is a `dump_sorted()`: ascending ids.
    let dist_of = |id: u64| {
        let at = entries.binary_search_by_key(&id, |e| e.id).ok()?;
        Some(vec_dist(query, &entries[at].vec))
    };
    answer.len() == K.min(oracle.len())
        && answer.iter().zip(&oracle).all(|(&(id, d), &(_, want))| {
            close(d, want) && dist_of(id).is_some_and(|own| close(own, want))
        })
}

/// Share of `truth`'s ids that `got` holds.
pub fn recall(truth: &[(u64, f32)], got: &[(u64, f32)]) -> f64 {
    let hits = got
        .iter()
        .filter(|(id, _)| truth.iter().any(|(t, _)| t == id))
        .count();
    hits as f64 / truth.len().max(1) as f64
}

fn bits(answer: &[(u64, f32)]) -> Vec<(u64, u32)> {
    answer.iter().map(|&(id, d)| (id, d.to_bits())).collect()
}

// ---- train_paper ------------------------------------------------------

/// 77 train / 11 validation trips: 308 pairs of about 40 target tokens,
/// 7 s an epoch, so a run holds three epochs. (At the ISSUE's 150 trips
/// one epoch is 9 s; at 50 the batches are so few that their shapes, and
/// with them tokens/s, depend on the seed.)
const TRAIN_TRIPS: usize = 110;

/// Set-ups timed between two epochs (0.15 s).
const BETWEEN_EPOCHS: usize = 10;

pub struct TrainStage {
    pub dataset: Dataset,
    pub trainer: Trainer,
}

pub fn train_setup(seed: u64) -> Result<TrainStage, String> {
    let mut world = World::new(seed);
    let dataset = world.dataset(TRAIN_TRIPS);
    let trainer = inputs::trainer(&world, &dataset).map_err(|e| e.to_string())?;
    Ok(TrainStage { dataset, trainer })
}

pub fn train_paper(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new();
    let mut setups = Setups::new(|| train_setup(seed));
    let mut trainer = setups.start()?.trainer;

    let mut epoch_us = Vec::new();
    let mut step_us = Vec::new();
    let mut rates = Vec::new();
    let mut losses = Vec::new();
    let started = Instant::now();
    // At least three epochs, then as many as end within `seconds` at the
    // pace so far.
    let fits = |epochs: usize| {
        let elapsed = started.elapsed().as_secs_f64();
        elapsed + elapsed / epochs as f64 <= seconds
    };
    while losses.len() < 3 || fits(losses.len()) {
        if !losses.is_empty() {
            setups.again(BETWEEN_EPOCHS)?;
        }
        let (stats, took) = timed(|| trainer.step_epoch());
        let stats = stats.ok_or("trainer stopped before the run ended")?;
        let epoch = trainer
            .throughput()
            .last()
            .copied()
            .filter(|t| t.tokens > 0 && t.steps > 0)
            .ok_or("an epoch trained no token")?;
        // Per 1 000 target tokens and per optimiser step: the corpus of
        // another seed holds more or fewer tokens.
        epoch_us.push(micros(took) * 1e3 / epoch.tokens as f64);
        step_us.push(micros(took) / epoch.steps as f64);
        rates.push(epoch.tokens as f64 / took.as_secs_f64());
        losses.push(stats.train_loss);
    }
    report.lines.push(format!("epochs, tokens/s: {rates:.1?}"));
    report
        .lines
        .push(format!("epochs, us per 1000 tokens: {epoch_us:.1?}"));
    report
        .lines
        .push(format!("epochs, us per optimiser step: {step_us:.1?}"));
    let finite = losses.iter().filter(|l| l.is_finite()).count();
    report.phase(
        "epochs",
        Tally {
            attempted: losses.len(),
            failed: losses.len() - finite,
        },
    );
    report.check("every epoch's train loss is finite", finite == losses.len());
    report.check(
        &format!(
            "last epoch's train loss {} is below the first's {}",
            losses[losses.len() - 1],
            losses[0]
        ),
        losses[losses.len() - 1] < losses[0],
    );
    setups.again(BETWEEN_EPOCHS)?;
    report.metric("setup_s", setups.median());
    report.metric("work_per_s", median(&rates));
    report.metric("primary_p50_us", median(&epoch_us));
    report.metric("primary_tail_us", percentile(&epoch_us, 1.0));
    report.metric("secondary_p50_us", median(&step_us));
    report.metric("slo_met_share", finite as f64 / losses.len() as f64);
    report.metric("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

// ---- build_db ---------------------------------------------------------

/// Vectors bulk-loaded per build cycle. A quarter of `serve_by_vec`'s
/// store: at 20 000 one cycle is the whole run and a single 111 MB
/// snapshot write varies by 40 % run to run; at 4 000 a run holds
/// several cycles and reports their median.
const BUILD_N: usize = 4_000;
const BUILD_TAIL: usize = 400;
const BUILD_TRIPS: usize = 300;
const BUILD_BASES: usize = 1_000;
/// Queries on the recovered service: 0.1 s of them a cycle (200 were
/// 20 ms, one gust of the host).
const BUILD_QUERIES: usize = 1_000;

fn build_ann_config() -> AnnConfig {
    AnnConfig {
        train_sample: 1_000,
        ..AnnConfig::new(63)
    }
}

pub struct BuildStage {
    pub world: World,
    pub model: Arc<T2Vec>,
}

pub fn build_setup(seed: u64) -> Result<BuildStage, String> {
    let mut world = World::new(seed);
    let model = Arc::new(inputs::serving_model(&mut world).map_err(|e| e.to_string())?);
    Ok(BuildStage { world, model })
}

/// One operator pass: trips to a recovered, indexed, durable database.
struct Cycle {
    /// Sum of the operator's stages (the checks between them excluded).
    work: Duration,
    insert_us: Vec<f64>,
    query_us: Vec<f64>,
    inserts: Tally,
    queries: Tally,
    bytes_equal: bool,
    answers_equal: bool,
    recall: f64,
    snapshot_bytes: u64,
}

fn build_cycle(stage: &mut BuildStage, scratch: &Scratch, salt: u64) -> Result<Cycle, String> {
    let err = |e: t2vec_core::T2VecError| e.to_string();
    let trips = stage.world.trips(BUILD_TRIPS);
    let config = ServeConfig {
        ann: Some(build_ann_config()),
        ..ServeConfig::default()
    };
    let dir = scratch.fresh_dir("db").map_err(|e| e.to_string())?;
    let mut work = Duration::ZERO;
    let mut inserts = Tally::default();
    let mut insert_us = Vec::with_capacity(BUILD_N);

    let (encoded, took) = timed(|| stage.model.encode_batch(&trips));
    work += took;
    let bases = inputs::blended(&encoded, BUILD_BASES, stage.world.rng());
    let vecs = inputs::jittered(&bases, BUILD_N + BUILD_TAIL + BUILD_QUERIES, salt);
    let (load, tail) = vecs.split_at(BUILD_N);
    let (tail, queries) = tail.split_at(BUILD_TAIL);

    let (opened, took) = timed(|| SimilarityService::open(Arc::clone(&stage.model), config, &dir));
    work += took;
    let (service, _) = opened.map_err(err)?;
    for (id, v) in load.iter().enumerate() {
        let (r, took) = timed(|| service.insert_vec(id as u64, v.clone()));
        work += took;
        inserts.attempted += 1;
        match r {
            Ok(_) => insert_us.push(micros(took)),
            Err(_) => inserts.failed += 1,
        }
    }
    let (built, took) = timed(|| service.build_ann());
    work += took;
    if !built {
        return Err("build_ann built no tier".into());
    }
    let (snap, took) = timed(|| service.snapshot());
    work += took;
    let snap_path = snap
        .map_err(err)?
        .ok_or("persistent service took no snapshot")?;
    let snapshot_bytes = std::fs::metadata(&snap_path)
        .map_err(|e| e.to_string())?
        .len();
    for (i, v) in tail.iter().enumerate() {
        let (r, took) = timed(|| service.insert_vec((BUILD_N + i) as u64, v.clone()));
        work += took;
        inserts.attempted += 1;
        inserts.failed += usize::from(r.is_err());
    }
    let before_bytes = service.store().canonical_bytes();
    let before: Vec<_> = queries.iter().map(|q| service.query_vec(q, K)).collect();
    let ((), took) = timed(|| drop(service));
    work += took;
    let (reopened, took) =
        timed(|| SimilarityService::open(Arc::clone(&stage.model), config, &dir));
    work += took;
    let (service, warnings) = reopened.map_err(err)?;

    let mut queries_tally = Tally::default();
    let mut query_us = Vec::with_capacity(queries.len());
    let mut answers_equal = warnings.is_empty();
    let mut recall_sum = 0.0;
    for (q, want) in queries.iter().zip(&before) {
        let (got, took) = timed(|| service.query_vec(q, K));
        queries_tally.attempted += 1;
        if check_answer(&got, K).is_ok() {
            query_us.push(micros(took));
        } else {
            queries_tally.failed += 1;
        }
        answers_equal &= bits(&got) == bits(want);
        recall_sum += recall(&service.store().knn(q, K), &got);
    }
    if insert_us.is_empty() || query_us.is_empty() {
        return Err("a build cycle completed no insert or no query".into());
    }
    Ok(Cycle {
        work,
        insert_us,
        query_us,
        inserts,
        queries: queries_tally,
        bytes_equal: service.store().canonical_bytes() == before_bytes,
        answers_equal,
        recall: recall_sum / queries.len() as f64,
        snapshot_bytes,
    })
}

/// Tier recall@10 below this fails the run. The measured values sit at
/// 0.999-1.0 (a query's neighbours are the copies around its own
/// centre), so a tier that lost entries or centroids shows.
const RECALL_FLOOR: f64 = 0.85;

pub fn build_db(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::new();
    let mut setups = Setups::new(|| build_setup(seed));
    let mut stage = setups.start()?;
    let mut cycles = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || cycles.len() < 3 {
        // Two set-ups (0.07 s) before every cycle but the first.
        if !cycles.is_empty() {
            setups.again(2)?;
        }
        cycles.push(build_cycle(
            &mut stage,
            scratch,
            seed + cycles.len() as u64,
        )?);
    }
    let mut inserts = Tally::default();
    let mut queries = Tally::default();
    for c in &cycles {
        inserts.add(c.inserts);
        queries.add(c.queries);
    }
    report.phase(&format!("insert_vec over {} cycles", cycles.len()), inserts);
    report.phase("query_vec on the recovered service", queries);
    report.check(
        "recovered canonical_bytes equal the pre-drop bytes",
        cycles.iter().all(|c| c.bytes_equal),
    );
    report.check(
        "recovered tier answers equal the pre-drop tier's, no recovery warnings",
        cycles.iter().all(|c| c.answers_equal),
    );
    let recall = median(&cycles.iter().map(|c| c.recall).collect::<Vec<_>>());
    report.check(
        &format!("recovered tier recall@10 {recall:.4} >= {RECALL_FLOOR}"),
        recall >= RECALL_FLOOR,
    );
    report.lines.push(format!(
        "snapshot {} bytes per vector",
        cycles[0].snapshot_bytes / BUILD_N as u64
    ));
    let per_cycle =
        |stat: &dyn Fn(&Cycle) -> f64| -> Vec<f64> { cycles.iter().map(stat).collect() };
    let rates = per_cycle(&|c| (BUILD_N + BUILD_TAIL) as f64 / c.work.as_secs_f64());
    let insert_p50 = per_cycle(&|c| median(&c.insert_us));
    let insert_tail = per_cycle(&|c| percentile(&c.insert_us, 0.95));
    let query_p50 = per_cycle(&|c| median(&c.query_us));
    report.lines.push(format!("cycles, vectors/s: {rates:.1?}"));
    report
        .lines
        .push(format!("cycles, insert p50 us: {insert_p50:.1?}"));
    report
        .lines
        .push(format!("cycles, insert p95 us: {insert_tail:.1?}"));
    report
        .lines
        .push(format!("cycles, query p50 us: {query_p50:.1?}"));
    let done = inserts.attempted + queries.attempted - inserts.failed - queries.failed;
    report.metric("setup_s", setups.median());
    report.metric("work_per_s", median(&rates));
    report.metric("primary_p50_us", median(&insert_p50));
    report.metric("primary_tail_us", median(&insert_tail));
    report.metric("secondary_p50_us", median(&query_p50));
    report.metric(
        "slo_met_share",
        done as f64 / (inserts.attempted + queries.attempted) as f64,
    );
    report.metric("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

// ---- the serving workloads --------------------------------------------

/// A set-up service with its payload pool and traffic mix.
pub struct ServeStage {
    pub world: World,
    pub model: Arc<T2Vec>,
    pub service: SimilarityService,
    /// `serve_by_traj` payloads; empty on `serve_by_vec`.
    pub trips: Vec<Vec<Point>>,
    /// `serve_by_vec` payloads; empty on `serve_by_traj`.
    pub vecs: Vec<Vec<f32>>,
    pub mix: OpMix,
    pub shape: ServeShape,
}

/// The fixed parameters of a serving workload, identical on every
/// commit.
#[derive(Clone, Copy)]
pub struct ServeShape {
    /// Paced-phase rate, ops/s.
    pub rate: f64,
    /// Latency limit from due time.
    pub limit: Duration,
}

impl Target for ServeStage {
    fn exec(&self, op: Op) -> Result<(), String> {
        let by_vec = self.trips.is_empty();
        match op {
            Op::Query(i) if by_vec => check_answer(&self.service.query_vec(&self.vecs[i], K), K),
            Op::Query(i) => check_answer(&self.service.query(&self.trips[i], K), K),
            Op::Insert(id, i) if by_vec => self
                .service
                .insert_vec(id, self.vecs[i].clone())
                .map(drop)
                .map_err(|e| e.to_string()),
            Op::Insert(id, i) => self
                .service
                .insert(id, &self.trips[i])
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }
}

const TRAJ_PRELOAD: usize = 1_500;
const TRAJ_FRESH: usize = 600;

pub fn traj_setup(seed: u64) -> Result<ServeStage, String> {
    let mut world = World::new(seed);
    let model = Arc::new(inputs::serving_model(&mut world).map_err(|e| e.to_string())?);
    let trips = world.trips(TRAJ_PRELOAD + TRAJ_FRESH);
    let service = SimilarityService::new(Arc::clone(&model), ServeConfig::default());
    for (id, v) in model
        .encode_batch(&trips[..TRAJ_PRELOAD])
        .into_iter()
        .enumerate()
    {
        service
            .insert_vec(id as u64, v)
            .map_err(|e| e.to_string())?;
    }
    let fresh: Range<usize> = TRAJ_PRELOAD..TRAJ_PRELOAD + TRAJ_FRESH;
    Ok(ServeStage {
        world,
        model,
        service,
        trips,
        vecs: Vec::new(),
        mix: OpMix {
            read_fraction: 0.9,
            query_pools: vec![fresh.clone()],
            insert_pool: fresh,
            stored: TRAJ_PRELOAD as u64,
            replace_fraction: 0.0,
        },
        shape: ServeShape {
            rate: 80.0,
            limit: Duration::from_millis(20),
        },
    })
}

pub const VEC_N: usize = 20_000;
const VEC_ENCODED: usize = 500;
const VEC_BASES: usize = 2_000;
const VEC_QUERY_POOL: usize = 2_000;
const VEC_INSERT_POOL: usize = 4_000;

/// The ISSUE's tier with a 1 000-vector training sample: at 4 000 the
/// k-means fit alone is 8 s of every set-up.
fn vec_ann_config() -> AnnConfig {
    AnnConfig {
        train_sample: 1_000,
        ..AnnConfig::new(141)
    }
}

pub fn vec_setup(seed: u64, scratch: &Scratch) -> Result<ServeStage, String> {
    let mut world = World::new(seed);
    let model = Arc::new(inputs::serving_model(&mut world).map_err(|e| e.to_string())?);
    let encoded = model.encode_batch(&world.trips(VEC_ENCODED));
    let bases = inputs::blended(&encoded, VEC_BASES, world.rng());
    let vecs = inputs::jittered(&bases, VEC_N + VEC_QUERY_POOL + VEC_INSERT_POOL, seed);
    let config = ServeConfig {
        ann: Some(vec_ann_config()),
        ..ServeConfig::default()
    };
    let dir = scratch.fresh_dir("serve").map_err(|e| e.to_string())?;
    let (service, _) =
        SimilarityService::open(Arc::clone(&model), config, &dir).map_err(|e| e.to_string())?;
    for (id, v) in vecs[..VEC_N].iter().enumerate() {
        service
            .insert_vec(id as u64, v.clone())
            .map_err(|e| e.to_string())?;
    }
    if !service.build_ann() {
        return Err("build_ann built no tier".into());
    }
    // The bulk load leaves 110 MB of journal in dirty pages; written
    // back during the timed phases, they throttle the journal appends
    // and queue requests behind them (paced p97.5 of 2.6 and 7.8 ms
    // against 0.8 ms). Set-up ends when they are on disk.
    std::fs::File::open(dir.join(t2vec_serve::snapshot::JOURNAL_FILE))
        .and_then(|journal| journal.sync_all())
        .map_err(|e| format!("cannot flush the journal: {e}"))?;
    Ok(ServeStage {
        world,
        model,
        service,
        trips: Vec::new(),
        vecs,
        mix: OpMix {
            read_fraction: 0.8,
            // Half the queries are stored vectors, half jittered ones.
            query_pools: vec![0..VEC_N, VEC_N..VEC_N + VEC_QUERY_POOL],
            insert_pool: VEC_N + VEC_QUERY_POOL..VEC_N + VEC_QUERY_POOL + VEC_INSERT_POOL,
            stored: VEC_N as u64,
            // Half replace a stored id with a vector around another
            // base, so entries move between cells.
            replace_fraction: 0.5,
        },
        shape: ServeShape {
            rate: 500.0,
            limit: Duration::from_millis(4),
        },
    })
}

/// Rounds a serving run is cut into; each is a closed-loop stretch
/// then a paced stretch, so every metric samples the whole run and not
/// one end of it (the host's speed moves by a third over tens of
/// seconds). One more round runs first, unmeasured: on cold posting
/// lists and a cold batcher it read up to 40 % slow.
const ROUNDS: usize = 8;
/// Share of a round spent in the closed loop; the paced stretch gets
/// the rest.
const CLOSED_SHARE: f64 = 0.4;
/// Operations per closed-loop client list (the list wraps around).
const CLOSED_OPS: usize = 40_000;
/// The tail percentile taken in each round's paced stretch: 10 queries
/// lie beyond it on `serve_by_traj`, 59 on `serve_by_vec`. (The p95 of
/// 1 s of `serve_by_vec` spread by 0.17 of its median over ten runs.)
const TAIL: f64 = 0.90;
const ORACLE_QUERIES: usize = 100;
const RECALL_QUERIES: usize = 200;

fn latencies(samples: &[Sample], queries: bool) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && s.is_query == queries)
        .map(|s| micros(s.latency))
        .collect()
}

fn serve(mut stage: ServeStage, setup_s: f64, seconds: f64) -> Result<Report, String> {
    let mut report = Report::new();
    let shape = stage.shape;
    let streams: Vec<Vec<Op>> = (0..load::CLIENTS)
        .map(|c| {
            stage
                .mix
                .ops(CLOSED_OPS, (c * 10 * CLOSED_OPS) as u64, stage.world.rng())
        })
        .collect();
    let round_secs = seconds / (ROUNDS + 1) as f64;
    let closed_secs = Duration::from_secs_f64(round_secs * CLOSED_SHARE);
    let paced_per_round = (shape.rate * round_secs * (1.0 - CLOSED_SHARE)) as usize;
    let paced_ops = stage.mix.ops(
        paced_per_round * (ROUNDS + 1),
        (100 * CLOSED_OPS) as u64,
        stage.world.rng(),
    );

    let mut from = vec![0usize; load::CLIENTS];
    let mut closed_tally = Tally::default();
    let mut paced_tally = Tally::default();
    let mut rates = Vec::new();
    let mut samples: Vec<Vec<Sample>> = Vec::new();
    for (round, ops) in paced_ops.chunks(paced_per_round.max(1)).enumerate() {
        let closed = load::closed_loop(&stage, &streams, &from, closed_secs);
        for (from, taken) in from.iter_mut().zip(&closed.taken) {
            *from += taken;
        }
        let paced = load::paced(&stage, ops, shape.rate);
        closed_tally.add(closed.tally);
        paced_tally.add(Tally {
            attempted: paced.len(),
            failed: paced.iter().filter(|s| !s.ok).count(),
        });
        if round > 0 {
            rates.push(closed.rate);
            samples.push(paced);
        }
    }
    report.phase("closed loop, 2 clients", closed_tally);
    report
        .lines
        .push(format!("rounds, closed-loop ops/s: {rates:.1?}"));
    report.phase(
        &format!("paced at {} ops/s, timed from due time", shape.rate),
        paced_tally,
    );
    if samples.is_empty() {
        return Err("--seconds is too short for one measured round".into());
    }

    let query_us: Vec<Vec<f64>> = samples.iter().map(|r| latencies(r, true)).collect();
    let insert_us: Vec<Vec<f64>> = samples.iter().map(|r| latencies(r, false)).collect();
    if query_us.iter().chain(&insert_us).any(Vec::is_empty) {
        return Err("a paced round completed no query or no insert".into());
    }
    let per_round = |us: &[Vec<f64>], stat: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
        us.iter().map(|us| stat(us)).collect()
    };
    let query_p50 = per_round(&query_us, &median);
    let query_tail = per_round(&query_us, &|us| percentile(us, TAIL));
    let insert_p50 = per_round(&insert_us, &median);
    let met: Vec<f64> = samples
        .iter()
        .map(|round| {
            let met = round.iter().filter(|s| s.ok && s.latency <= shape.limit);
            met.count() as f64 / round.len() as f64
        })
        .collect();
    let beyond = query_us[0].len() as f64 * (1.0 - TAIL);
    report.lines.push(format!(
        "paced: {} queries and {} inserts a round; the tail is p{} of a round, {beyond:.0} samples beyond it",
        query_us[0].len(),
        insert_us[0].len(),
        TAIL * 100.0
    ));
    report
        .lines
        .push(format!("rounds, query p50 us: {query_p50:.1?}"));
    report
        .lines
        .push(format!("rounds, query tail us: {query_tail:.1?}"));
    report
        .lines
        .push(format!("rounds, insert p50 us: {insert_p50:.1?}"));
    report
        .lines
        .push(format!("rounds, share within the limit: {met:.4?}"));
    let late: Vec<f64> = samples.iter().flatten().map(|s| micros(s.late)).collect();
    let late_p99 = percentile(&late, 0.99);
    let p50 = median(&query_p50);
    report.lines.push(format!(
        "generator lateness p99 {late_p99:.1} us{}",
        if late_p99 > 0.1 * p50 {
            " — above 10 % of the query median: the paced numbers are the generator's"
        } else {
            ""
        }
    ));

    // Output checks, on the quiescent store the phases left behind.
    let entries = stage.service.store().dump_sorted();
    let by_vec = stage.trips.is_empty();
    let pool = stage.mix.query_pools[stage.mix.query_pools.len() - 1].clone();
    let oracle_ok = pool.clone().take(ORACLE_QUERIES).all(|i| {
        if by_vec {
            let q = &stage.vecs[i];
            equals_oracle(&stage.service.store().knn(q, K), q, &entries)
        } else {
            let trip = &stage.trips[i];
            let q = stage.model.encode(trip);
            equals_oracle(&stage.service.query(trip, K), &q, &entries)
        }
    });
    report.check(
        &format!(
            "{ORACLE_QUERIES} exact answers equal the vec_dist full-sort oracle over {} entries",
            entries.len()
        ),
        oracle_ok,
    );
    if by_vec {
        let mut candidates = 0;
        let recalls: Vec<f64> = pool
            .take(RECALL_QUERIES)
            .map(|i| {
                let q = &stage.vecs[i];
                let (answer, explain) = stage.service.knn_vec_explained(q, K);
                candidates += explain.candidates;
                recall(&stage.service.store().knn(q, K), &answer)
            })
            .collect();
        let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
        report.lines.push(format!(
            "tier scans {} candidates a query",
            candidates / RECALL_QUERIES
        ));
        report.check(
            &format!("tier recall@10 {mean:.4} on {RECALL_QUERIES} queries >= {RECALL_FLOOR}"),
            mean >= RECALL_FLOOR,
        );
    }

    report.metric("setup_s", setup_s);
    report.metric("work_per_s", median(&rates));
    report.metric("primary_p50_us", p50);
    report.metric("primary_tail_us", median(&query_tail));
    report.metric("secondary_p50_us", median(&insert_p50));
    report.metric("slo_met_share", median(&met));
    report.metric("peak_rss_mb", peak_rss_mb());
    Ok(report)
}

pub fn serve_by_traj(seed: u64, seconds: f64) -> Result<Report, String> {
    let mut setups = Setups::new(|| traj_setup(seed));
    serve(setups.start()?, setups.median(), seconds)
}

pub fn serve_by_vec(seed: u64, seconds: f64, scratch: &Scratch) -> Result<Report, String> {
    let mut setups = Setups::new(|| vec_setup(seed, scratch));
    serve(setups.start()?, setups.median(), seconds)
}
