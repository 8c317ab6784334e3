//! Experiment runners for every table and figure of §V.
//!
//! The runners are ordinary library functions returning structured
//! results; the `t2vec-bench` crate's `experiments` binary renders them
//! next to the paper's Porto numbers, and the integration tests assert
//! the paper's *qualitative* findings (method orderings, degradation
//! shapes) at reduced scale.

use crate::method::{DpMethod, Method, T2VecMethod, VRnnMethod};
use crate::metrics::{cross_distance_deviation, knn_ids, mean, mean_rank, precision_at_k, rank_of};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2vec_core::vrnn::{VRnn, VRnnConfig};
use t2vec_core::{T2Vec, T2VecConfig};
use t2vec_distance::{cms::Cms, edr::Edr, edwp::Edwp, lcss::Lcss};
use t2vec_spatial::point::Point;
use t2vec_spatial::transform::{alternating_split, distort, downsample};
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::{Dataset, DatasetBuilder};
use t2vec_trajgen::Trajectory;

/// Which synthetic city preset to evaluate on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CityKind {
    /// Seconds-scale city for tests.
    Tiny,
    /// The Porto-like preset (short trips).
    PortoLike,
    /// The Harbin-like preset (long trips).
    HarbinLike,
}

impl CityKind {
    /// Builds the city.
    pub fn build(self, rng: &mut impl Rng) -> City {
        match self {
            CityKind::Tiny => City::tiny(rng),
            CityKind::PortoLike => City::porto_like(rng),
            CityKind::HarbinLike => City::harbin_like(rng),
        }
    }
}

/// Workload scale knobs. The paper's scales (0.8 M training trips,
/// 100 k databases) are CLI-reachable but the defaults are CPU-friendly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scale {
    /// Trips generated in total (train + val + test).
    pub trips: usize,
    /// Minimum trip length in points.
    pub min_len: usize,
    /// Number of queries |Q|.
    pub num_queries: usize,
    /// Default extra-database size |P| (Tables IV, V).
    pub extras: usize,
    /// |P| sweep for Table III.
    pub extras_sweep: Vec<usize>,
    /// Fraction of trips used for training (the rest is validation and
    /// the evaluation pool).
    pub train_frac: f64,
    /// Fraction of trips used for validation.
    pub val_frac: f64,
    /// Base RNG seed.
    pub seed: u64,
}

impl Scale {
    /// A seconds-scale configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            trips: 80,
            min_len: 6,
            num_queries: 12,
            extras: 20,
            extras_sweep: vec![10, 20],
            train_frac: 0.7,
            val_frac: 0.1,
            seed: 7,
        }
    }

    /// The default minutes-scale configuration for the harness: a large
    /// test pool (the evaluation databases come from it) over a modest
    /// training split.
    pub fn quick() -> Self {
        Self {
            trips: 1_600,
            min_len: 12,
            num_queries: 80,
            extras: 380,
            extras_sweep: vec![100, 200, 300, 380],
            train_frac: 0.6,
            val_frac: 0.08,
            seed: 7,
        }
    }
}

/// The one corpus preparation every runner shares: the city, then
/// `scale.trips` trips split into train / validation / evaluation pool,
/// all drawn from `rng`. Callers go on to train from the same stream
/// (the tables) or from a salted seed (the golden harness).
pub(crate) fn corpus(kind: CityKind, scale: &Scale, rng: &mut StdRng) -> Dataset {
    let city = kind.build(rng);
    DatasetBuilder::new(&city)
        .trips(scale.trips)
        .min_len(scale.min_len)
        .split(scale.train_frac, scale.val_frac)
        .build(rng)
}

/// A prepared evaluation context: dataset + trained models.
pub struct Bench {
    /// The generated corpus.
    pub dataset: Dataset,
    /// The trained t2vec model.
    pub t2vec: T2Vec,
    /// The trained vRNN baseline.
    pub vrnn: VRnn,
    /// Grid cell side (drives the ε of EDR/LCSS and the CMS cell).
    pub cell_side: f64,
    /// The scale the context was prepared at.
    pub scale: Scale,
}

impl Bench {
    /// Generates the corpus and trains both learned models.
    ///
    /// # Panics
    /// Panics if training fails (insufficient data at the given scale).
    pub fn prepare(kind: CityKind, scale: Scale, config: &T2VecConfig, seed: u64) -> Self {
        let mut rng = det_rng(seed);
        let dataset = corpus(kind, &scale, &mut rng);
        let (t2vec, report) =
            T2Vec::train_with_report(config, &dataset.train, &dataset.val, &mut rng)
                .expect("t2vec training failed");
        t2vec_obs::info!(target: "eval.prepare", "t2vec trained";
            pairs = report.num_pairs,
            vocab = report.vocab_size,
            epochs = report.epochs,
            iterations = report.iterations,
            train_seconds = report.train_seconds,
            pretrain_seconds = report.pretrain_seconds,
        );
        for e in &report.history {
            t2vec_obs::debug!(target: "eval.prepare", "epoch {:>2}: train {:.4}  val {:.4}",
                e.epoch, e.train_loss, e.val_loss);
        }
        let vrnn_config = VRnnConfig {
            embed_dim: config.embed_dim,
            hidden: config.hidden,
            layers: config.layers,
            batch_size: config.batch_size,
            epochs: 3,
            learning_rate: config.learning_rate,
            grad_clip: config.grad_clip,
        };
        let vrnn = VRnn::train(&vrnn_config, t2vec.vocab(), &dataset.train, &mut rng)
            .expect("vRNN training failed");
        Self {
            dataset,
            t2vec,
            vrnn,
            cell_side: config.cell_side,
            scale,
        }
    }

    /// The six methods of the paper's comparison, in table order.
    /// ε for EDR/LCSS is half the cell side (the scale of the
    /// discretisation / GPS noise).
    pub fn methods(&self) -> Vec<Box<dyn Method + '_>> {
        let eps = self.cell_side / 2.0;
        vec![
            Box::new(DpMethod::new(Edr::new(eps))),
            Box::new(DpMethod::new(Lcss::new(eps))),
            Box::new(DpMethod::new(Cms::new(self.cell_side))),
            Box::new(VRnnMethod::new(&self.vrnn)),
            Box::new(DpMethod::new(Edwp::new())),
            Box::new(T2VecMethod::new(&self.t2vec)),
        ]
    }

    /// Table III (Experiment 1): mean rank versus database size, with
    /// the database sizes the `extras_sweep` realises.
    pub fn exp1_db_size(&self) -> (Vec<usize>, Vec<MethodRow>) {
        let scale = &self.scale;
        let (q, p) = query_pool_split(&self.dataset.test, scale.num_queries);
        let sizes = scale.extras_sweep.iter().map(|&e| e.min(p.len()) + q.len());
        let points: Vec<_> = scale.extras_sweep.iter().map(|&e| (e, 0.0, 0.0)).collect();
        let rows = mean_rank_sweep(
            &self.methods(),
            &self.dataset.test,
            scale.num_queries,
            &points,
            scale.seed + 1,
        );
        (sizes.collect(), rows)
    }

    /// Tables IV / V (Experiments 2 / 3): mean rank versus the dropping
    /// rate `r1` (`dropping`) or the distorting rate `r2`, at the default
    /// database size.
    pub fn mean_rank_vs_rate(&self, rates: &[f64], dropping: bool) -> Vec<MethodRow> {
        mean_rank_sweep(
            &self.methods(),
            &self.dataset.test,
            self.scale.num_queries,
            &rank_points(self.scale.extras, rates, dropping),
            self.scale.seed + 100,
        )
    }

    /// Table VI: cross-distance deviation of t2vec, EDwP and EDR at each
    /// rate; `dropping` selects the r1 (true) or r2 (false) panel.
    pub fn cross_similarity(
        &self,
        rates: &[f64],
        num_pairs: usize,
        dropping: bool,
    ) -> Vec<MethodRow> {
        let methods: Vec<Box<dyn Method + '_>> = vec![
            Box::new(T2VecMethod::new(&self.t2vec)),
            Box::new(DpMethod::new(Edwp::new())),
            Box::new(DpMethod::new(Edr::new(self.cell_side / 2.0))),
        ];
        cross_similarity(
            &methods,
            &self.dataset.test,
            num_pairs,
            &rate_points(rates, dropping),
            self.scale.seed + 200,
        )
    }

    /// Figure 5: k-NN precision of all six methods under degradation,
    /// one `(k, rows)` entry per requested `k`.
    pub fn knn_precision_multi(
        &self,
        ks: &[usize],
        rates: &[f64],
        dropping: bool,
        num_queries: usize,
        db_size: usize,
    ) -> Vec<(usize, Vec<MethodRow>)> {
        knn_precision_multi(
            &self.methods(),
            &self.dataset.test,
            ks,
            num_queries,
            db_size,
            &rate_points(rates, dropping),
            self.scale.seed + 300,
        )
    }
}

/// One method's sweep results: `values[i]` for the i-th sweep point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodRow {
    /// Method name.
    pub method: String,
    /// Result per sweep point (mean rank, precision, deviation, or µs
    /// depending on the experiment).
    pub values: Vec<f64>,
}

fn empty_rows(methods: &[Box<dyn Method + '_>], points: usize) -> Vec<MethodRow> {
    methods
        .iter()
        .map(|m| MethodRow {
            method: m.name(),
            values: Vec::with_capacity(points),
        })
        .collect()
}

// ---------------------------------------------------------------------
// The sweep engine: one implementation per §V protocol. Each takes the
// method roster, the evaluation pool and its sweep points; point `i`
// draws its degradation from `det_rng(seed0 + i)`. The paper tables
// ([`Bench`]) and the golden harness ([`crate::harness::run`]) differ
// only in the roster, the points and `seed0` they pass.
// ---------------------------------------------------------------------

/// The `(r1, r2)` sweep points of a rate sweep: `rates` on the dropping
/// axis (`dropping`) or on the distorting axis, the other rate at 0.
pub(crate) fn rate_points(rates: &[f64], dropping: bool) -> Vec<(f64, f64)> {
    let point = |&rate| if dropping { (rate, 0.0) } else { (0.0, rate) };
    rates.iter().map(point).collect()
}

/// [`rate_points`] as `(extras, r1, r2)` mean-rank points at one
/// distractor count.
pub(crate) fn rank_points(extras: usize, rates: &[f64], dropping: bool) -> Vec<(usize, f64, f64)> {
    let points = rate_points(rates, dropping);
    points
        .into_iter()
        .map(|(r1, r2)| (extras, r1, r2))
        .collect()
}

/// Down-samples at `r1`, then distorts at `r2` (§V-C).
fn degrade(points: &[Point], r1: f64, r2: f64, rng: &mut StdRng) -> Vec<Point> {
    distort(&downsample(points, r1, rng), r2, rng)
}

/// The point sequences of `trips`, cloned.
pub(crate) fn points_of(trips: &[Trajectory]) -> Vec<Vec<Point>> {
    trips.iter().map(|t| t.points.clone()).collect()
}

/// Splits an evaluation pool into the query trips `Q` — the first
/// `num_queries`, at most half the pool — and the distractor trips `P`
/// (everything after them), as point slices.
pub fn query_pool_split(pool: &[Trajectory], num_queries: usize) -> (Vec<&[Point]>, Vec<&[Point]>) {
    fn slices(trips: &[Trajectory]) -> Vec<&[Point]> {
        trips.iter().map(|t| t.points.as_slice()).collect()
    }
    let (q, p) = pool.split_at(num_queries.min(pool.len() / 2));
    (slices(q), slices(p))
}

/// The query/database structure of §V-C (Figure 4): `queries[i]`'s true
/// counterpart is `db[i]`; `db[num_queries..]` is the distractor set
/// `D'_P`.
pub struct MostSimilarWorkload {
    /// Transformed query trajectories `D_Q`.
    pub queries: Vec<Vec<Point>>,
    /// Transformed database `D'_Q ∪ D'_P`.
    pub db: Vec<Vec<Point>>,
}

/// Builds the workload: alternating even/odd splits of the `Q` trips
/// (query = even half, counterpart = odd half), odd halves of the `P`
/// trips as distractors, then down-sampling at `r1` and distortion at
/// `r2` applied to both sides (Experiments 2 and 3; `r1 = r2 = 0` gives
/// Experiment 1).
pub fn most_similar_workload(
    q: &[&[Point]],
    p: &[&[Point]],
    r1: f64,
    r2: f64,
    rng: &mut StdRng,
) -> MostSimilarWorkload {
    let mut queries = Vec::with_capacity(q.len());
    let mut db = Vec::with_capacity(q.len() + p.len());
    for traj in q {
        let (even, odd) = alternating_split(traj);
        queries.push(degrade(&even, r1, r2, rng));
        db.push(degrade(&odd, r1, r2, rng));
    }
    for traj in p {
        let (_, odd) = alternating_split(traj);
        db.push(degrade(&odd, r1, r2, rng));
    }
    MostSimilarWorkload { queries, db }
}

/// Mean rank of the true counterparts under `method` (lower = better).
pub fn mean_rank_of(method: &dyn Method, workload: &MostSimilarWorkload) -> f64 {
    let scorer = method.build(&workload.db);
    let ranks: Vec<usize> = workload
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| rank_of(&scorer.distances(q), i))
        .collect();
    mean_rank(&ranks)
}

/// Most-similar search (Tables III–V): mean rank of the true counterpart
/// under each method at each `(extras, r1, r2)` point — `extras`
/// distractors (capped at what the pool holds) beside the
/// [`query_pool_split`] queries, both sides degraded at `(r1, r2)`.
pub fn mean_rank_sweep(
    methods: &[Box<dyn Method + '_>],
    pool: &[Trajectory],
    num_queries: usize,
    points: &[(usize, f64, f64)],
    seed0: u64,
) -> Vec<MethodRow> {
    let (q, p) = query_pool_split(pool, num_queries);
    let mut rows = empty_rows(methods, points.len());
    for (i, &(extras, r1, r2)) in points.iter().enumerate() {
        let mut rng = det_rng(seed0 + i as u64);
        let workload = most_similar_workload(&q, &p[..extras.min(p.len())], r1, r2, &mut rng);
        for (row, method) in rows.iter_mut().zip(methods) {
            row.values.push(mean_rank_of(method.as_ref(), &workload));
        }
    }
    rows
}

/// Cross-similarity (Table VI): mean
/// [`cross_distance_deviation`] of each method at each `(r1, r2)` point
/// over the pool's first `num_pairs` pairs `(2i, 2i + 1)`, both members
/// degraded.
pub fn cross_similarity(
    methods: &[Box<dyn Method + '_>],
    pool: &[Trajectory],
    num_pairs: usize,
    points: &[(f64, f64)],
    seed0: u64,
) -> Vec<MethodRow> {
    let originals = points_of(&pool[..2 * num_pairs.min(pool.len() / 2)]);
    let mut rows = empty_rows(methods, points.len());
    for (i, &(r1, r2)) in points.iter().enumerate() {
        let mut rng = det_rng(seed0 + i as u64);
        let degraded: Vec<Vec<Point>> = originals
            .iter()
            .map(|t| degrade(t, r1, r2, &mut rng))
            .collect();
        for (row, method) in rows.iter_mut().zip(methods) {
            // Score one pair at a time through the Scorer interface.
            let dist = |pair: &[Vec<Point>]| method.build(&pair[1..]).distances(&pair[0])[0];
            let devs = originals
                .chunks_exact(2)
                .zip(degraded.chunks_exact(2))
                .filter_map(|(orig, deg)| cross_distance_deviation(dist(deg), dist(orig)));
            row.values.push(mean(devs));
        }
    }
    rows
}

/// k-NN precision (Figure 5) for several `k` at once. Ground truth is
/// each method's own k-NN on the clean data (§V-C3): the pool's first
/// `num_queries` trips (at most a third of it) against the next
/// `db_size`; queries and database are then degraded at each `(r1, r2)`
/// point and the overlap measured. Distance matrices are computed once
/// per (method, point) and shared across all `k` values.
///
/// Returns one `(k, rows)` entry per requested `k`.
pub fn knn_precision_multi(
    methods: &[Box<dyn Method + '_>],
    pool: &[Trajectory],
    ks: &[usize],
    num_queries: usize,
    db_size: usize,
    points: &[(f64, f64)],
    seed0: u64,
) -> Vec<(usize, Vec<MethodRow>)> {
    let nq = num_queries.min(pool.len() / 3);
    let queries = points_of(&pool[..nq]);
    let db = points_of(&pool[nq..nq + db_size.min(pool.len() - nq)]);
    let matrix = |method: &dyn Method, db: &[Vec<Point>], queries: &[Vec<Point>]| {
        let scorer = method.build(db);
        queries.iter().map(|q| scorer.distances(q)).collect()
    };
    let clean: Vec<Vec<Vec<f64>>> = methods
        .iter()
        .map(|m| matrix(m.as_ref(), &db, &queries))
        .collect();
    let mut out: Vec<(usize, Vec<MethodRow>)> = ks
        .iter()
        .map(|&k| (k, empty_rows(methods, points.len())))
        .collect();
    for (i, &(r1, r2)) in points.iter().enumerate() {
        let mut rng = det_rng(seed0 + i as u64);
        let mut degrade_all = |trips: &[Vec<Point>]| -> Vec<Vec<Point>> {
            trips.iter().map(|t| degrade(t, r1, r2, &mut rng)).collect()
        };
        let deg_queries = degrade_all(&queries);
        let deg_db = degrade_all(&db);
        for (mi, method) in methods.iter().enumerate() {
            let degraded: Vec<Vec<f64>> = matrix(method.as_ref(), &deg_db, &deg_queries);
            for (k, rows) in &mut out {
                let precision = mean((0..nq).map(|qi| {
                    let truth = knn_ids(&clean[mi][qi], *k);
                    precision_at_k(&truth, &knn_ids(&degraded[qi], *k))
                }));
                rows[mi].values.push(precision);
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Scalability (Figure 6).
// ---------------------------------------------------------------------

/// One scalability measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalabilityPoint {
    /// Method name.
    pub method: String,
    /// Database size.
    pub db_size: usize,
    /// Mean time to answer one k-NN query, microseconds (includes
    /// encoding the query for the representation methods — their
    /// database encoding is offline, as in the paper).
    pub query_micros: f64,
    /// One-off database preparation time, microseconds (the offline
    /// encoding phase for representation methods; ~0 for DP methods).
    pub build_micros: f64,
}

/// Figure 6: k-NN wall-clock versus database size for t2vec, EDR and
/// EDwP.
pub fn scalability(
    bench: &Bench,
    db_sizes: &[usize],
    k: usize,
    num_queries: usize,
) -> Vec<ScalabilityPoint> {
    let eps = bench.cell_side / 2.0;
    let methods: Vec<Box<dyn Method + '_>> = vec![
        Box::new(DpMethod::new(Edr::new(eps))),
        Box::new(DpMethod::new(Edwp::new())),
        Box::new(T2VecMethod::new(&bench.t2vec)),
    ];
    let test = &bench.dataset.test;
    let nq = num_queries.min(test.len() / 2);
    let queries = points_of(&test[..nq]);
    let mut out = Vec::new();
    for &size in db_sizes {
        // Cycle test trajectories to reach the requested size.
        let db: Vec<Vec<Point>> = (0..size)
            .map(|i| test[nq + i % (test.len() - nq)].points.clone())
            .collect();
        for method in &methods {
            let t_build = std::time::Instant::now();
            let scorer = method.build(&db);
            let build_micros = t_build.elapsed().as_micros() as f64;
            let t_query = std::time::Instant::now();
            for q in &queries {
                let d = scorer.distances(q);
                std::hint::black_box(knn_ids(&d, k));
            }
            let query_micros = t_query.elapsed().as_micros() as f64 / nq as f64;
            out.push(ScalabilityPoint {
                method: method.name(),
                db_size: size,
                query_micros,
                build_micros,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Loss ablation (Table VII).
// ---------------------------------------------------------------------

/// t2vec's mean rank alone at each point, for the runners that train a
/// model per row (Tables VII–IX, Figure 7).
fn t2vec_mean_ranks(
    model: &T2Vec,
    dataset: &Dataset,
    scale: &Scale,
    points: &[(usize, f64, f64)],
    salt: u64,
) -> Vec<f64> {
    let methods: [Box<dyn Method + '_>; 1] = [Box::new(T2VecMethod::new(model))];
    let pool = &dataset.test;
    let mut rows = mean_rank_sweep(&methods, pool, scale.num_queries, points, scale.seed + salt);
    rows.remove(0).values
}

/// One Table VII row: a loss variant's accuracy and cost.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// "L1" | "L2" | "L3" | "L3+CL".
    pub loss: String,
    /// Mean rank at each requested dropping rate.
    pub mean_ranks: Vec<f64>,
    /// Wall-clock training seconds.
    pub train_seconds: f64,
}

/// Table VII: trains the model under `L1`, `L2`, `L3` (all without cell
/// pre-training) and `L3 + CL`, then evaluates most-similar-search mean
/// rank at the given dropping rates.
pub fn loss_ablation(
    kind: CityKind,
    scale: &Scale,
    base: &T2VecConfig,
    rates: &[f64],
) -> Vec<AblationRow> {
    use t2vec_nn::LossKind;
    let noise = match base.loss {
        LossKind::SpatialNce { noise } => noise,
        _ => 64,
    };
    let variants: Vec<(String, LossKind, bool)> = vec![
        ("L1".into(), LossKind::Nll, false),
        ("L2".into(), LossKind::Spatial, false),
        ("L3".into(), LossKind::SpatialNce { noise }, false),
        ("L3+CL".into(), LossKind::SpatialNce { noise }, true),
    ];
    let mut rows = Vec::new();
    for (label, loss, pretrain) in variants {
        let mut config = base.clone();
        config.loss = loss;
        config.pretrain_cells = pretrain;
        if matches!(loss, LossKind::Spatial) {
            // L2 materialises logits over the whole vocabulary; the paper
            // terminated its training before convergence after 120 h
            // (Table VII). We cap it at a quarter of the epochs and report
            // the wall-clock, which exhibits the same per-iteration blow-up.
            config.max_epochs = (base.max_epochs / 4).max(1);
        }
        let mut rng = det_rng(scale.seed);
        let dataset = corpus(kind, scale, &mut rng);
        let t0 = std::time::Instant::now();
        let (model, _) = T2Vec::train_with_report(&config, &dataset.train, &dataset.val, &mut rng)
            .expect("ablation training failed");
        let train_seconds = t0.elapsed().as_secs_f64();
        let points = rank_points(scale.extras, rates, true);
        rows.push(AblationRow {
            loss: label,
            mean_ranks: t2vec_mean_ranks(&model, &dataset, scale, &points, 400),
            train_seconds,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Hyper-parameter sweeps (Tables VIII, IX; Figure 7).
// ---------------------------------------------------------------------

/// One sweep measurement for Tables VIII/IX and Figure 7.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRow {
    /// The swept value (cell size in meters, hidden units, or training
    /// trips).
    pub value: f64,
    /// Vocabulary size after hot-cell filtering (Table VIII's "#Cells";
    /// 0 where not applicable).
    pub vocab_size: usize,
    /// Mean rank at r1 = 0.5 (0.6 for Figure 7's single rate).
    pub mr_r1_a: f64,
    /// Mean rank at r1 = 0.6.
    pub mr_r1_b: f64,
    /// Mean rank at r2 = 0.5.
    pub mr_r2_a: f64,
    /// Mean rank at r2 = 0.6.
    pub mr_r2_b: f64,
    /// Training seconds.
    pub train_seconds: f64,
}

fn evaluate_config(
    kind: CityKind,
    scale: &Scale,
    config: &T2VecConfig,
    train_fraction: f64,
) -> SweepRow {
    let mut rng = det_rng(scale.seed);
    let dataset = corpus(kind, scale, &mut rng);
    let train_n = ((dataset.train.len() as f64) * train_fraction).ceil() as usize;
    let train = &dataset.train[..train_n.clamp(1, dataset.train.len())];
    let t0 = std::time::Instant::now();
    let (model, report) = T2Vec::train_with_report(config, train, &dataset.val, &mut rng)
        .expect("sweep training failed");
    let train_seconds = t0.elapsed().as_secs_f64();

    let e = scale.extras;
    let points = [(e, 0.5, 0.0), (e, 0.6, 0.0), (e, 0.0, 0.5), (e, 0.0, 0.6)];
    let mr = t2vec_mean_ranks(&model, &dataset, scale, &points, 500);
    SweepRow {
        value: 0.0,
        vocab_size: report.vocab_size,
        mr_r1_a: mr[0],
        mr_r1_b: mr[1],
        mr_r2_a: mr[2],
        mr_r2_b: mr[3],
        train_seconds,
    }
}

/// Table VIII: the impact of the grid cell size.
pub fn cell_size_sweep(
    kind: CityKind,
    scale: &Scale,
    base: &T2VecConfig,
    cell_sizes: &[f64],
) -> Vec<SweepRow> {
    cell_sizes
        .iter()
        .map(|&side| {
            let mut config = base.clone();
            config.cell_side = side;
            let mut row = evaluate_config(kind, scale, &config, 1.0);
            row.value = side;
            row
        })
        .collect()
}

/// Table IX: the impact of the hidden-layer (representation) size.
pub fn hidden_size_sweep(
    kind: CityKind,
    scale: &Scale,
    base: &T2VecConfig,
    hidden_sizes: &[usize],
) -> Vec<SweepRow> {
    hidden_sizes
        .iter()
        .map(|&h| {
            let mut config = base.clone();
            config.hidden = h;
            config.embed_dim = h;
            let mut row = evaluate_config(kind, scale, &config, 1.0);
            row.value = h as f64;
            row
        })
        .collect()
}

/// Figure 7: the impact of the training-set size (fractions of the full
/// training split), evaluated at r1 = 0.6 (the paper's setting; we also
/// record the other rates).
pub fn training_size_sweep(
    kind: CityKind,
    scale: &Scale,
    base: &T2VecConfig,
    fractions: &[f64],
) -> Vec<SweepRow> {
    fractions
        .iter()
        .map(|&f| {
            let mut row = evaluate_config(kind, scale, base, f);
            row.value = f;
            row
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_bench() -> &'static Bench {
        static SHARED: std::sync::OnceLock<Bench> = std::sync::OnceLock::new();
        SHARED
            .get_or_init(|| Bench::prepare(CityKind::Tiny, Scale::tiny(), &T2VecConfig::tiny(), 3))
    }

    #[test]
    fn workload_structure_follows_figure4() {
        let bench = tiny_bench();
        let (q, p) = query_pool_split(&bench.dataset.test, bench.scale.num_queries);
        let mut rng = det_rng(1);
        let w = most_similar_workload(&q, &p[..5], 0.0, 0.0, &mut rng);
        assert_eq!(w.queries.len(), q.len());
        assert_eq!(w.db.len(), q.len() + 5);
        // Query i and db i partition trajectory i's points.
        for (i, src) in q.iter().enumerate() {
            assert_eq!(w.queries[i].len() + w.db[i].len(), src.len());
        }
    }

    #[test]
    fn exp1_produces_all_methods_and_sane_ranks() {
        let bench = tiny_bench();
        let (sizes, rows) = bench.exp1_db_size();
        assert_eq!(sizes.len(), bench.scale.extras_sweep.len());
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(row.values.len(), sizes.len());
            for (&v, &size) in row.values.iter().zip(sizes.iter()) {
                assert!(v >= 1.0, "{}: rank below 1", row.method);
                assert!(v <= size as f64, "{}: rank beyond db size", row.method);
            }
        }
        // t2vec must beat the order-blind CMS baseline.
        let val = |name: &str| rows.iter().find(|r| r.method == name).unwrap().values[0];
        assert!(
            val("t2vec") < val("CMS"),
            "t2vec {} should beat CMS {}",
            val("t2vec"),
            val("CMS")
        );
    }

    #[test]
    fn exp2_dropping_degrades_edr_more_than_t2vec() {
        let bench = tiny_bench();
        let rows = bench.mean_rank_vs_rate(&[0.2, 0.6], true);
        let get = |name: &str| rows.iter().find(|r| r.method == name).unwrap();
        let edr = get("EDR");
        let t2v = get("t2vec");
        // EDR degrades with dropping; t2vec stays at least as good as EDR
        // at the heavy rate (the paper's headline finding).
        assert!(
            t2v.values[1] <= edr.values[1],
            "t2vec should beat EDR at r1=0.6"
        );
    }

    #[test]
    fn cross_similarity_has_finite_deviations() {
        let bench = tiny_bench();
        let rows = bench.cross_similarity(&[0.2, 0.4], 6, true);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            for &v in &row.values {
                assert!(v.is_finite() && v >= 0.0, "{}: deviation {v}", row.method);
            }
        }
    }

    #[test]
    fn knn_precision_is_perfect_without_degradation() {
        let bench = tiny_bench();
        let rows = &bench.knn_precision_multi(&[3], &[0.0], true, 5, 20)[0].1;
        for row in rows {
            assert!(
                (row.values[0] - 1.0).abs() < 1e-9,
                "{}: clean precision must be 1, got {}",
                row.method,
                row.values[0]
            );
        }
    }

    #[test]
    fn knn_precision_degrades_with_dropping() {
        let bench = tiny_bench();
        let rows = &bench.knn_precision_multi(&[3], &[0.0, 0.6], true, 5, 20)[0].1;
        for row in rows {
            assert!(row.values[1] <= row.values[0] + 1e-9, "{}", row.method);
            assert!((0.0..=1.0).contains(&row.values[1]));
        }
    }

    #[test]
    fn scalability_t2vec_scales_better_than_dp() {
        let bench = tiny_bench();
        // Wall clock under parallel test load: a load spike can only
        // inflate a run, so each point is the fastest of three runs.
        let runs: Vec<_> = (0..3)
            .map(|_| scalability(bench, &[20, 40], 5, 5))
            .collect();
        assert!(runs.iter().all(|points| points.len() == 6));
        let q = |m: &str, s: usize| {
            runs.iter()
                .map(|points| {
                    points
                        .iter()
                        .find(|p| p.method == m && p.db_size == s)
                        .unwrap()
                        .query_micros
                })
                .fold(f64::INFINITY, f64::min)
        };
        // DP query time should grow roughly linearly in DB size; check it
        // at least grows.
        assert!(q("EDwP", 40) > q("EDwP", 20) * 1.2);
        // t2vec per-query time should be much cheaper than EDwP at the
        // larger size (its O(n²) DPs per candidate vs vector scans).
        assert!(
            q("t2vec", 40) < q("EDwP", 40),
            "t2vec {} vs EDwP {}",
            q("t2vec", 40),
            q("EDwP", 40)
        );
    }
}
