//! Deterministic end-to-end harness for the paper's §V robustness
//! experiments, with golden-metric regression gates.
//!
//! The paper's central claim is *robustness*: t2vec's mean rank,
//! cross-similarity deviation and k-NN precision degrade gracefully as
//! points are dropped (`r1`) or distorted (`r2`), where point-matching
//! baselines collapse. [`run`] executes the whole pipeline from a single
//! seed — synthetic city → hot-cell vocabulary → epoch-stepped
//! [`Trainer`] → EXP1/EXP2/EXP3 sweeps for t2vec and the DTW / EDR /
//! LCSS baselines → the serving store's ANN-tier recall — and returns a
//! structured [`ExpReport`]. The sweeps are the three protocols of
//! [`crate::experiments`] ([`mean_rank_sweep`], [`cross_similarity`],
//! [`knn_precision_multi`]) — the functions the paper tables run — under
//! this module's roster, rates and seed salts.
//!
//! Two tiers of assertion gate regressions:
//!
//! * **bitwise** — [`ExpReport::to_canonical_json`] is a canonical
//!   compact JSON string. Every number in the report is produced by
//!   thread-count-invariant kernels and sequential reductions, so the
//!   string must be *identical* at `T2VEC_THREADS=1` and `4`, and must
//!   match the checked-in `GOLDEN_EXP.json`. Any change to the loss,
//!   the kernels, the RNG streams, the vocabulary, or the index shows
//!   up as a byte diff.
//! * **trend** — [`trend_violations`] re-checks the paper's qualitative
//!   findings on the report: mean rank degrades monotonically with the
//!   dropping rate, t2vec's degradation slope beats at least one
//!   point-matching baseline, and IVF recall@k stays above a seeded
//!   floor. These keep the *shape* of §V honest even when the golden
//!   file is intentionally regenerated.
//!
//! `tests/paper_experiments.rs` wires both tiers into CI; the
//! `experiments` binary's `bench_exp` subcommand regenerates the golden
//! file (see EXPERIMENTS.md).

use crate::experiments::{
    corpus, cross_similarity, knn_precision_multi, mean_rank_sweep, points_of, rank_points,
    rate_points, CityKind, MethodRow, Scale,
};
use crate::method::{DpMethod, Method, T2VecMethod};
use serde::{Deserialize, Serialize};
use t2vec_core::{T2Vec, T2VecConfig, Trainer};
use t2vec_distance::{dtw::Dtw, edr::Edr, lcss::Lcss};
use t2vec_obs as obs;
use t2vec_serve::{AnnConfig, EmbeddingStore, Entry};
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::dataset::Dataset;

/// Salt xor'ed into the dataset seed to derive the training seed, so
/// the data stream and the training stream never alias.
const TRAIN_SEED_SALT: u64 = 0x7472_6169_6e65_7221;

/// `k` of the ANN recall gate (the paper-adjacent recall@10).
const ANN_K: usize = 10;
/// Independent seeds for the IVF's k-means; recall must clear the floor
/// for *every* seed.
const ANN_SEEDS: [u64; 3] = [101, 202, 303];
/// Minimum acceptable IVF recall@[`ANN_K`] against the exact scan.
const ANN_RECALL_FLOOR: f64 = 0.6;

/// Everything [`run`] needs, in one seeded bundle.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Synthetic city preset.
    pub kind: CityKind,
    /// Dataset scale (trips, splits, query/database sizes, base seed).
    pub scale: Scale,
    /// Model configuration for the down-scaled training run.
    pub model: T2VecConfig,
    /// Degradation-rate sweep shared by all three experiments. Must
    /// start at `0.0` (the clean anchor every trend check needs) and
    /// increase strictly.
    pub rates: Vec<f64>,
    /// Trajectory pairs per rate in the cross-similarity experiment.
    pub cross_pairs: usize,
    /// `k` of the k-NN precision experiment.
    pub knn_k: usize,
    /// Queries of the k-NN precision experiment.
    pub knn_queries: usize,
    /// Database size of the k-NN precision experiment.
    pub knn_db: usize,
    /// IVF cells of the recall gate's index.
    pub ann_nlist: usize,
    /// Cells probed per query; below `ann_nlist`, so pruning is real.
    pub ann_nprobe: usize,
}

impl HarnessConfig {
    /// The seconds-scale configuration behind `GOLDEN_EXP.json` and
    /// `tests/paper_experiments.rs`. Its numbers are part of the golden
    /// contract: changing anything here requires regenerating the
    /// golden file.
    pub fn tiny() -> Self {
        Self {
            kind: CityKind::Tiny,
            scale: Scale {
                trips: 200,
                min_len: 8,
                num_queries: 24,
                extras: 76,
                extras_sweep: vec![76],
                train_frac: 0.45,
                val_frac: 0.05,
                seed: 11,
            },
            model: T2VecConfig::tiny(),
            rates: vec![0.0, 0.3, 0.6],
            cross_pairs: 12,
            knn_k: 3,
            knn_queries: 12,
            knn_db: 60,
            ann_nlist: 8,
            ann_nprobe: 3,
        }
    }

    /// A minutes-scale configuration for manual runs of the harness at
    /// a more meaningful scale (`bench_exp --scale quick`). Not part of
    /// the golden contract.
    pub fn quick() -> Self {
        Self {
            kind: CityKind::PortoLike,
            scale: Scale::quick(),
            model: T2VecConfig::small(),
            rates: vec![0.0, 0.2, 0.4, 0.6],
            cross_pairs: 100,
            knn_k: 10,
            knn_queries: 50,
            knn_db: 300,
            ann_nlist: 16,
            ann_nprobe: 4,
        }
    }
}

/// Reproducibility descriptors of the run that produced a report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeta {
    /// Base seed (dataset RNG; the training seed derives from it).
    pub seed: u64,
    /// Trips generated.
    pub trips: usize,
    /// Training / validation / test split sizes actually realised.
    pub train: usize,
    /// Validation trips.
    pub val: usize,
    /// Test (evaluation-pool) trips.
    pub test: usize,
    /// Hot-cell vocabulary size (incl. special tokens).
    pub vocab_size: usize,
    /// Training epochs completed.
    pub epochs: usize,
    /// Optimiser steps taken.
    pub iterations: usize,
    /// Final best validation loss (exact `f32` widened to `f64`).
    pub best_val_loss: f64,
}

/// One experiment's sweep: `rows[m].values[i]` is method `m`'s metric at
/// `rates[i]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepReport {
    /// The swept degradation rates.
    pub rates: Vec<f64>,
    /// One row per method.
    pub rows: Vec<MethodRow>,
}

impl SweepReport {
    /// The row for `method`, if present.
    pub fn row(&self, method: &str) -> Option<&MethodRow> {
        self.rows.iter().find(|r| r.method == method)
    }
}

/// The recall section: the serving store's ANN tier against its exact
/// scan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnnReport {
    /// Recall `k`.
    pub k: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Indexed database size.
    pub db: usize,
    /// Number of queries.
    pub queries: usize,
    /// IVF cells.
    pub nlist: usize,
    /// Cells probed per query.
    pub nprobe: usize,
    /// The recall floor the gate enforces.
    pub floor: f64,
    /// The k-means seeds, in order.
    pub seeds: Vec<u64>,
    /// Mean recall@k of the ANN tier against the exact scan, one entry
    /// per seed.
    pub recall: Vec<f64>,
    /// Mean candidates examined per query, one entry per seed (the
    /// sub-linearity the index buys; informational).
    pub mean_candidates: Vec<f64>,
}

/// The complete structured result of one harness run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExpReport {
    /// Reproducibility descriptors.
    pub meta: RunMeta,
    /// EXP1: self-similarity mean rank vs the dropping rate `r1`.
    pub exp1_dropping: SweepReport,
    /// EXP1: self-similarity mean rank vs the distorting rate `r2`.
    pub exp1_distorting: SweepReport,
    /// EXP2: cross-distance deviation vs `r1`.
    pub exp2_cross_dropping: SweepReport,
    /// EXP2: cross-distance deviation vs `r2`.
    pub exp2_cross_distorting: SweepReport,
    /// EXP3: k-NN precision vs `r1`.
    pub exp3_knn_dropping: SweepReport,
    /// EXP3: k-NN precision vs `r2`.
    pub exp3_knn_distorting: SweepReport,
    /// ANN-tier recall against the store's exact scan.
    pub ann: AnnReport,
}

impl ExpReport {
    /// The canonical byte representation of the report: compact JSON
    /// with fields in declaration order and shortest-roundtrip float
    /// formatting. Two runs are "the same" iff these strings are equal.
    pub fn to_canonical_json(&self) -> String {
        serde_json::to_string(self).expect("report serialisation cannot fail")
    }

    /// Parses a report back from [`ExpReport::to_canonical_json`] output
    /// (or a hand-edited golden file).
    ///
    /// # Errors
    /// Returns the underlying parse error on malformed JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// The harness's method roster: the three classical point-matching
/// baselines named by the regression contract, plus t2vec. ε for
/// EDR/LCSS is half the grid cell side, as everywhere in the repo.
fn methods<'a>(cell_side: f64, model: &'a T2Vec) -> Vec<Box<dyn Method + 'a>> {
    let eps = cell_side / 2.0;
    vec![
        Box::new(DpMethod::new(Dtw::new())),
        Box::new(DpMethod::new(Edr::new(eps))),
        Box::new(DpMethod::new(Lcss::new(eps))),
        Box::new(T2VecMethod::new(model)),
    ]
}

/// Recall@k of the serving store's ANN tier on the trained embeddings,
/// against the same store's exact scan, once per k-means seed.
fn ann_recall(cfg: &HarnessConfig, model: &T2Vec, dataset: &Dataset) -> AnnReport {
    let test = &dataset.test;
    let nq = cfg.knn_queries.min(test.len() / 3);
    let db_size = (test.len() - nq).min(cfg.knn_db + cfg.scale.extras);
    let db_emb = model.encode_batch(&points_of(&test[nq..nq + db_size]));
    let q_emb = model.encode_batch(&points_of(&test[..nq]));
    let mut recall = Vec::with_capacity(ANN_SEEDS.len());
    let mut mean_candidates = Vec::with_capacity(ANN_SEEDS.len());
    for seed in ANN_SEEDS {
        let entries = (0..)
            .zip(&db_emb)
            .map(|(id, v)| Entry { id, vec: v.clone() });
        let store = EmbeddingStore::from_entries(model.repr_dim(), 1, entries);
        store.build_ann(&AnnConfig {
            nprobe: cfg.ann_nprobe,
            train_seed: seed,
            train_sample: 0,
            ..AnnConfig::new(cfg.ann_nlist)
        });
        let mut hit_sum = 0.0;
        let mut cand_sum = 0.0;
        for q in &q_emb {
            let truth: std::collections::HashSet<u64> =
                store.knn(q, ANN_K).into_iter().map(|(id, _)| id).collect();
            let (got, explain) = store.knn_ann_explained(q, ANN_K);
            hit_sum +=
                got.iter().filter(|(id, _)| truth.contains(id)).count() as f64 / truth.len() as f64;
            cand_sum += explain.candidates as f64;
        }
        recall.push(hit_sum / q_emb.len() as f64);
        mean_candidates.push(cand_sum / q_emb.len() as f64);
    }
    AnnReport {
        k: ANN_K,
        dim: model.repr_dim(),
        db: db_emb.len(),
        queries: q_emb.len(),
        nlist: cfg.ann_nlist,
        nprobe: cfg.ann_nprobe,
        floor: ANN_RECALL_FLOOR,
        seeds: ANN_SEEDS.to_vec(),
        recall,
        mean_candidates,
    }
}

/// Runs the full pipeline: dataset generation, vocabulary + training
/// through the epoch-stepped [`Trainer`], all three experiment sweeps
/// and the ANN recall gate. Fully determined by `cfg` (including its
/// seeds) and thread-count invariant.
///
/// # Panics
/// Panics when training fails (insufficient data at the given scale) —
/// harness configurations are static test fixtures, so that is a bug,
/// not an input error.
pub fn run(cfg: &HarnessConfig) -> ExpReport {
    assert!(
        cfg.rates.first() == Some(&0.0),
        "rate sweep must start at the clean anchor 0.0"
    );
    let _run_span = obs::span!(target: "eval.harness", "run"; seed = cfg.scale.seed);
    let mut rng = det_rng(cfg.scale.seed);
    let dataset = {
        let _span = obs::span!(target: "eval.harness", "dataset");
        corpus(cfg.kind, &cfg.scale, &mut rng)
    };
    let (model, report) = {
        let _span = obs::span!(target: "eval.harness", "train");
        let mut trainer = Trainer::new(
            &cfg.model,
            &dataset.train,
            &dataset.val,
            cfg.scale.seed ^ TRAIN_SEED_SALT,
        )
        .expect("harness training setup failed");
        while trainer.step_epoch().is_some() {}
        let model = trainer.snapshot();
        let (_, report) = trainer.finish();
        (model, report)
    };
    let meta = RunMeta {
        seed: cfg.scale.seed,
        trips: cfg.scale.trips,
        train: dataset.train.len(),
        val: dataset.val.len(),
        test: dataset.test.len(),
        vocab_size: report.vocab_size,
        epochs: report.epochs,
        iterations: report.iterations,
        best_val_loss: f64::from(report.best_val_loss),
    };
    obs::info!(target: "eval.harness", "training complete";
        epochs = meta.epochs,
        iterations = meta.iterations,
        best_val_loss = meta.best_val_loss,
    );
    // The three protocols of `crate::experiments`, under the harness's
    // own roster and seed salts; both are part of the golden contract.
    let methods = methods(cfg.model.cell_side, &model);
    let (pool, seed, rates) = (&dataset.test, cfg.scale.seed, &cfg.rates);
    let report = |rows| SweepReport {
        rates: rates.clone(),
        rows,
    };
    let mean_rank = |name: &'static str, dropping, salt| {
        let _s = obs::span!(target: "eval.harness", name);
        let points = rank_points(cfg.scale.extras, rates, dropping);
        let rows = mean_rank_sweep(&methods, pool, cfg.scale.num_queries, &points, seed + salt);
        report(rows)
    };
    let cross = |name: &'static str, dropping, salt| {
        let _s = obs::span!(target: "eval.harness", name);
        let points = rate_points(rates, dropping);
        let rows = cross_similarity(&methods, pool, cfg.cross_pairs, &points, seed + salt);
        report(rows)
    };
    // For t2vec the clean ranking is an exact scan over the embeddings:
    // the truth the ANN section takes from the store's `knn`.
    let knn = |name: &'static str, dropping, salt| {
        let _s = obs::span!(target: "eval.harness", name);
        let points = rate_points(rates, dropping);
        let mut per_k = knn_precision_multi(
            &methods,
            pool,
            &[cfg.knn_k],
            cfg.knn_queries,
            cfg.knn_db,
            &points,
            seed + salt,
        );
        report(per_k.remove(0).1)
    };
    ExpReport {
        meta,
        exp1_dropping: mean_rank("exp1_dropping", true, 1_000),
        exp1_distorting: mean_rank("exp1_distorting", false, 2_000),
        exp2_cross_dropping: cross("exp2_cross_dropping", true, 3_000),
        exp2_cross_distorting: cross("exp2_cross_distorting", false, 4_000),
        exp3_knn_dropping: knn("exp3_knn_dropping", true, 5_000),
        exp3_knn_distorting: knn("exp3_knn_distorting", false, 6_000),
        ann: {
            let _s = obs::span!(target: "eval.harness", "ann_recall");
            ann_recall(cfg, &model, &dataset)
        },
    }
}

// ---------------------------------------------------------------------
// Trend gates.
// ---------------------------------------------------------------------

/// Names of the point-matching baselines the slope gate compares
/// against (everything in the roster except t2vec).
const BASELINES: [&str; 3] = ["DTW", "EDR", "LCSS"];

/// End-to-end degradation of a sweep row: metric at the heaviest rate
/// minus metric at the clean anchor.
fn degradation(row: &MethodRow) -> f64 {
    row.values.last().unwrap() - row.values.first().unwrap()
}

/// Checks the paper's §V qualitative findings on a report and returns a
/// human-readable description of every violated trend (empty = all
/// hold):
///
/// 1. **Monotonic degradation** (Table IV): t2vec's mean rank is
///    non-decreasing in the dropping rate, and EDR — the paper's
///    collapse case — ends the dropping sweep strictly worse than it
///    started. (LCSS is exempt from the endpoint check: its
///    `min`-length normalisation makes it *improve* under dropping at
///    harness scale, an artefact the paper's 100 k databases mask.)
/// 2. **Robustness ordering** (Tables IV/V): t2vec's end-to-end mean
///    rank degradation is strictly smaller than at least one
///    point-matching baseline's, in both the dropping and distorting
///    sweeps.
/// 3. **Precision sanity** (Figure 5): every method's k-NN precision is
///    exactly 1 at the clean anchor and never exceeds it afterwards.
/// 4. **ANN recall floor** (§VI future work 3): the ANN tier's recall@k
///    against the exact scan clears the configured floor for every
///    k-means seed.
pub fn trend_violations(report: &ExpReport) -> Vec<String> {
    let mut violations = Vec::new();

    // 1. Monotonic mean-rank degradation under dropping.
    if let Some(t2v) = report.exp1_dropping.row("t2vec") {
        for w in t2v.values.windows(2) {
            if w[1] < w[0] {
                violations.push(format!(
                    "exp1_dropping: t2vec mean rank not monotone ({} -> {})",
                    w[0], w[1]
                ));
            }
        }
    } else {
        violations.push("exp1_dropping: missing t2vec row".into());
    }
    match report.exp1_dropping.row("EDR") {
        Some(edr) if degradation(edr) <= 0.0 => violations.push(format!(
            "exp1_dropping: EDR no longer collapses under dropping ({:?})",
            edr.values
        )),
        Some(_) => {}
        None => violations.push("exp1_dropping: missing EDR row".into()),
    }

    // 2. t2vec's degradation slope beats at least one baseline.
    for (label, sweep) in [
        ("exp1_dropping", &report.exp1_dropping),
        ("exp1_distorting", &report.exp1_distorting),
    ] {
        let Some(t2v) = sweep.row("t2vec") else {
            violations.push(format!("{label}: missing t2vec row"));
            continue;
        };
        let t2v_slope = degradation(t2v);
        let beaten = BASELINES
            .iter()
            .filter_map(|b| sweep.row(b))
            .any(|row| degradation(row) > t2v_slope);
        if !beaten {
            violations.push(format!(
                "{label}: t2vec degradation {t2v_slope} beats no point-matching baseline"
            ));
        }
    }

    // 3. k-NN precision anchored at 1 and never above it.
    for (label, sweep) in [
        ("exp3_knn_dropping", &report.exp3_knn_dropping),
        ("exp3_knn_distorting", &report.exp3_knn_distorting),
    ] {
        for row in &sweep.rows {
            let Some(&first) = row.values.first() else {
                violations.push(format!("{label}: {} has no values", row.method));
                continue;
            };
            if first != 1.0 {
                violations.push(format!(
                    "{label}: {} clean precision {first} != 1",
                    row.method
                ));
            }
            if row.values.iter().any(|&v| !(0.0..=1.0).contains(&v)) {
                violations.push(format!(
                    "{label}: {} precision outside [0, 1]: {:?}",
                    row.method, row.values
                ));
            }
        }
    }

    // 4. ANN recall floor, per seed.
    for (seed, &r) in report.ann.seeds.iter().zip(report.ann.recall.iter()) {
        if r < report.ann.floor {
            violations.push(format!(
                "ann: recall@{} {r} below floor {} at seed {seed}",
                report.ann.k, report.ann.floor
            ));
        }
    }

    violations
}

/// Panics with every violated trend when [`trend_violations`] finds any.
pub fn assert_trends(report: &ExpReport) {
    let violations = trend_violations(report);
    assert!(
        violations.is_empty(),
        "paper-trend regressions:\n  {}",
        violations.join("\n  ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(method: &str, values: &[f64]) -> MethodRow {
        MethodRow {
            method: method.into(),
            values: values.to_vec(),
        }
    }

    fn healthy_report() -> ExpReport {
        let rates = vec![0.0, 0.3, 0.6];
        let exp1_dropping = SweepReport {
            rates: rates.clone(),
            rows: vec![
                row("DTW", &[2.0, 5.0, 9.0]),
                row("EDR", &[2.0, 6.0, 12.0]),
                row("LCSS", &[3.0, 7.0, 14.0]),
                row("t2vec", &[1.5, 2.0, 3.0]),
            ],
        };
        let exp1_distorting = SweepReport {
            rates: rates.clone(),
            rows: vec![
                row("DTW", &[2.0, 3.0, 4.0]),
                row("EDR", &[2.0, 4.0, 6.0]),
                row("LCSS", &[3.0, 4.0, 5.0]),
                row("t2vec", &[1.5, 1.8, 2.1]),
            ],
        };
        let cross = SweepReport {
            rates: rates.clone(),
            rows: vec![
                row("DTW", &[0.0, 0.1, 0.2]),
                row("EDR", &[0.0, 0.2, 0.5]),
                row("LCSS", &[0.0, 0.2, 0.4]),
                row("t2vec", &[0.0, 0.02, 0.05]),
            ],
        };
        let knn = SweepReport {
            rates,
            rows: vec![
                row("DTW", &[1.0, 0.8, 0.6]),
                row("EDR", &[1.0, 0.7, 0.4]),
                row("LCSS", &[1.0, 0.7, 0.5]),
                row("t2vec", &[1.0, 0.95, 0.9]),
            ],
        };
        ExpReport {
            meta: RunMeta {
                seed: 11,
                trips: 120,
                train: 66,
                val: 12,
                test: 42,
                vocab_size: 100,
                epochs: 8,
                iterations: 500,
                best_val_loss: 1.25,
            },
            exp1_dropping,
            exp1_distorting,
            exp2_cross_dropping: cross.clone(),
            exp2_cross_distorting: cross,
            exp3_knn_dropping: knn.clone(),
            exp3_knn_distorting: knn,
            ann: AnnReport {
                k: 10,
                dim: 32,
                db: 40,
                queries: 10,
                nlist: 8,
                nprobe: 3,
                floor: 0.6,
                seeds: vec![101, 202, 303],
                recall: vec![0.9, 0.85, 0.95],
                mean_candidates: vec![20.0, 21.0, 19.5],
            },
        }
    }

    #[test]
    fn healthy_report_has_no_violations() {
        assert_trends(&healthy_report());
    }

    #[test]
    fn non_monotone_t2vec_rank_is_flagged() {
        let mut r = healthy_report();
        r.exp1_dropping.rows[3].values = vec![3.0, 2.0, 3.5];
        let v = trend_violations(&r);
        assert!(
            v.iter().any(|m| m.contains("not monotone")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn t2vec_degrading_worse_than_every_baseline_is_flagged() {
        let mut r = healthy_report();
        r.exp1_dropping.rows[3].values = vec![1.5, 10.0, 20.0];
        let v = trend_violations(&r);
        assert!(
            v.iter().any(|m| m.contains("beats no point-matching")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn edr_not_collapsing_under_dropping_is_flagged() {
        let mut r = healthy_report();
        r.exp1_dropping.rows[1].values = vec![6.0, 5.0, 4.0];
        let v = trend_violations(&r);
        assert!(
            v.iter().any(|m| m.contains("EDR no longer collapses")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn imperfect_clean_precision_is_flagged() {
        let mut r = healthy_report();
        r.exp3_knn_dropping.rows[0].values[0] = 0.9;
        let v = trend_violations(&r);
        assert!(
            v.iter().any(|m| m.contains("clean precision")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn low_ann_recall_is_flagged_with_its_seed() {
        let mut r = healthy_report();
        r.ann.recall[1] = 0.3;
        let v = trend_violations(&r);
        assert!(
            v.iter().any(|m| m.contains("seed 202")),
            "violations: {v:?}"
        );
    }

    #[test]
    fn canonical_json_roundtrips_bitwise() {
        let r = healthy_report();
        let json = r.to_canonical_json();
        let back = ExpReport::from_json(&json).unwrap();
        assert_eq!(json, back.to_canonical_json());
    }

    #[test]
    fn method_roster_matches_regression_contract() {
        // The golden file and the trend gates both assume exactly this
        // roster, in this order.
        let cfg = HarnessConfig::tiny();
        let mut rng = det_rng(1);
        let city = cfg.kind.build(&mut rng);
        let ds = t2vec_trajgen::dataset::DatasetBuilder::new(&city)
            .trips(40)
            .min_len(6)
            .build(&mut rng);
        let trainer = Trainer::new(&cfg.model, &ds.train, &ds.val, 2).unwrap();
        let model = trainer.snapshot();
        let names: Vec<String> = methods(cfg.model.cell_side, &model)
            .iter()
            .map(|m| m.name())
            .collect();
        assert_eq!(names, ["DTW", "EDR", "LCSS", "t2vec"]);
    }
}
