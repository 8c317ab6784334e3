//! Regenerates every table and figure of the t2vec paper's evaluation
//! (§V) on the synthetic city, printing our measurements next to the
//! paper's reported Porto numbers.
//!
//! ```text
//! experiments [--scale tiny|quick] [--city porto|harbin|tiny] [IDS...]
//!
//! IDS: table2 table3 table4 table5 table6 fig5 fig6 table7 table8
//!      table9 fig7 all      (default: all)
//!      bench_exp            (never implied by `all`: runs the seeded
//!                            paper-experiment harness and writes its
//!                            canonical report to the CWD — at
//!                            `--scale tiny` this is GOLDEN_EXP.json,
//!                            the regression-gate regeneration path)
//! ```
//!
//! Absolute numbers differ from the paper (synthetic data, CPU-scale
//! models); the *orderings* — who wins, how methods degrade — are the
//! reproduction target. See EXPERIMENTS.md for the recorded comparison.
//!
//! Tables go to stdout; progress/diagnostics go through `t2vec_obs`
//! (stderr by default; `T2VEC_LOG` / `T2VEC_METRICS_OUT` as usual).
//!
//! Throughput is not measured here, except `fig6`'s k-NN query times
//! (EDR and EDwP scans against t2vec): the `benchmark/` package prices
//! training, index build and serving end to end and layer by layer.

// Binaries may print; the workspace-wide clippy.toml ban targets
// library crates (diagnostics there must go through t2vec-obs).
#![allow(clippy::disallowed_macros)]

use std::time::Instant;
use t2vec_core::T2VecConfig;
use t2vec_eval::experiments::{self, Bench, CityKind, MethodRow, Scale};
use t2vec_eval::harness::{self, HarnessConfig};
use t2vec_eval::paper;
use t2vec_eval::tables::{f2, f3, headers, render};
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::dataset::DatasetBuilder;

/// Every experiment id the binary runs. [`parse_args`] refuses anything
/// else, so a stale id in a script fails instead of running nothing.
const IDS: [&str; 13] = [
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "fig5",
    "fig6",
    "table7",
    "table8",
    "table9",
    "fig7",
    "all",
    "bench_exp",
];

fn usage() -> String {
    format!(
        "usage: experiments [--scale tiny|quick] [--city porto|harbin|tiny] [IDS...]\n\
         IDS: {} (default: all; bench_exp is never implied by all)",
        IDS.join(" ")
    )
}

/// The `--scale` presets. `bench_exp` maps each onto the harness preset
/// of the same name.
#[derive(Clone, Copy)]
enum Preset {
    Tiny,
    Quick,
}

struct Args {
    preset: Preset,
    scale: Scale,
    config: T2VecConfig,
    city: CityKind,
    ids: Vec<String>,
}

/// Bad command lines end here: the complaint and the usage on stderr,
/// exit code 2, before any work starts.
fn reject(complaint: String) -> ! {
    eprintln!("{complaint}\n{}", usage());
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut preset = Preset::Quick;
    let mut city = CityKind::PortoLike;
    let mut ids = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| reject(format!("flag '{arg}' needs a value")))
        };
        match arg.as_str() {
            "--scale" => {
                preset = match value().as_str() {
                    "tiny" => Preset::Tiny,
                    "quick" => Preset::Quick,
                    other => reject(format!("unknown scale '{other}'")),
                }
            }
            "--city" => {
                city = match value().as_str() {
                    "porto" => CityKind::PortoLike,
                    "harbin" => CityKind::HarbinLike,
                    "tiny" => CityKind::Tiny,
                    other => reject(format!("unknown city '{other}'")),
                }
            }
            "--help" | "-h" => {
                eprintln!("{}", usage());
                std::process::exit(0);
            }
            id if IDS.contains(&id) => ids.push(id.to_string()),
            unknown => reject(format!("unknown experiment id '{unknown}'")),
        }
    }
    let (scale, config) = match preset {
        Preset::Tiny => (Scale::tiny(), T2VecConfig::tiny()),
        Preset::Quick => (Scale::quick(), T2VecConfig::small()),
    };
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    Args {
        preset,
        scale,
        config,
        city,
        ids,
    }
}

fn wants(ids: &[String], id: &str) -> bool {
    ids.iter().any(|x| x == id || x == "all")
}

/// Prints one method-per-row table whose columns are `label=x` for each
/// sweep point `x`; cells have three decimals when `fmt3`, else two.
fn method_table<'a>(
    title: &str,
    label: &str,
    xs: &[impl std::fmt::Display],
    rows: impl Iterator<Item = (&'a str, &'a [f64])>,
    fmt3: bool,
) {
    let mut hs = vec!["method".to_string()];
    hs.extend(xs.iter().map(|x| format!("{label}={x}")));
    let body: Vec<Vec<String>> = rows
        .map(|(method, values)| {
            let mut row = vec![method.to_string()];
            row.extend(values.iter().map(|&v| if fmt3 { f3(v) } else { f2(v) }));
            row
        })
        .collect();
    println!("{}", render(title, &hs, &body));
}

fn ours(rows: &[MethodRow]) -> impl Iterator<Item = (&str, &[f64])> {
    rows.iter()
        .map(|r| (r.method.as_str(), r.values.as_slice()))
}

/// The paper's rows for `methods`, from one of the [`paper`] tables.
fn reported<'a, const N: usize>(
    methods: &'a [&'a str],
    data: &'a [[f64; N]],
) -> impl Iterator<Item = (&'a str, &'a [f64])> {
    methods
        .iter()
        .zip(data)
        .map(|(m, row)| (*m, row.as_slice()))
}

fn main() {
    t2vec_obs::init_from_env("info");
    let args = parse_args();
    let city_label = match args.city {
        CityKind::PortoLike => "porto-like",
        CityKind::HarbinLike => "harbin-like",
        CityKind::Tiny => "tiny",
    };
    println!("== t2vec reproduction harness ==");
    println!(
        "city: {city_label}   trips: {}   queries: {}",
        args.scale.trips, args.scale.num_queries
    );
    println!();

    if wants(&args.ids, "table2") {
        table2(&args);
    }

    let on_bench = [
        ("table3", table3 as fn(&Bench)),
        ("table4", table4),
        ("table5", table5),
        ("table6", table6),
        ("fig5", fig5),
        ("fig6", fig6),
    ];
    if on_bench.iter().any(|(id, _)| wants(&args.ids, id)) {
        t2vec_obs::info!(target: "bench", "generating data and training t2vec + vRNN ...");
        let t0 = std::time::Instant::now();
        let bench = Bench::prepare(args.city, args.scale.clone(), &args.config, args.scale.seed);
        t2vec_obs::info!(target: "bench", "prepare done";
            seconds = t0.elapsed().as_secs_f64(),
        );

        for (id, run) in on_bench {
            if wants(&args.ids, id) {
                run(&bench);
            }
        }
    }

    if wants(&args.ids, "table7") {
        table7(&args);
    }
    if wants(&args.ids, "table8") {
        table8(&args);
    }
    if wants(&args.ids, "table9") {
        table9(&args);
    }
    if wants(&args.ids, "fig7") {
        fig7(&args);
    }
    // Opt-in only: writes GOLDEN_EXP.json / EXP_QUICK.json, so `all`
    // does not imply it.
    if args.ids.iter().any(|x| x == "bench_exp") {
        bench_exp(&args);
    }
    t2vec_obs::metrics::emit();
    t2vec_obs::flush();
}

/// Runs the deterministic paper-experiment harness (EXP1–EXP3 + IVF
/// recall; see `t2vec_eval::harness`), prints every sweep, re-checks the
/// trend gates and writes the canonical report to the CWD. At tiny scale
/// the output file is `GOLDEN_EXP.json` — byte-identical to what
/// `tests/paper_experiments.rs` asserts against, making this the golden
/// regeneration path.
fn bench_exp(args: &Args) {
    println!("---- BENCH_EXP: deterministic paper-experiment harness ----");
    // The harness owns its own Scale values so the golden contract
    // cannot drift with the table runners'.
    let (cfg, out_path) = match args.preset {
        Preset::Tiny => (HarnessConfig::tiny(), "GOLDEN_EXP.json"),
        Preset::Quick => (HarnessConfig::quick(), "EXP_QUICK.json"),
    };
    t2vec_obs::info!(target: "bench.exp", "{} trips, seed {}, rates {:?} ...",
        cfg.scale.trips, cfg.scale.seed, cfg.rates);
    let t0 = Instant::now();
    let report = harness::run(&cfg);
    t2vec_obs::info!(target: "bench.exp", "harness done";
        seconds = t0.elapsed().as_secs_f64(),
    );

    let sweep = |title: &str, s: &harness::SweepReport, fmt3: bool| {
        println!("{title}");
        method_table("", "r", &s.rates, ours(&s.rows), fmt3);
    };
    let k = cfg.knn_k;
    sweep(
        "EXP1 mean rank vs dropping r1:",
        &report.exp1_dropping,
        false,
    );
    sweep(
        "EXP1 mean rank vs distorting r2:",
        &report.exp1_distorting,
        false,
    );
    sweep(
        "EXP2 cross-distance deviation vs r1:",
        &report.exp2_cross_dropping,
        true,
    );
    sweep(
        "EXP2 cross-distance deviation vs r2:",
        &report.exp2_cross_distorting,
        true,
    );
    sweep(
        &format!("EXP3 precision@{k} vs r1:"),
        &report.exp3_knn_dropping,
        true,
    );
    sweep(
        &format!("EXP3 precision@{k} vs r2:"),
        &report.exp3_knn_distorting,
        true,
    );
    println!(
        "ANN-tier recall@{} vs the exact scan (floor {}): {:?} (mean candidates {:?} of {})",
        report.ann.k,
        report.ann.floor,
        report.ann.recall,
        report.ann.mean_candidates,
        report.ann.db
    );

    let violations = harness::trend_violations(&report);
    if violations.is_empty() {
        println!("trend gates: all hold");
    } else {
        println!("trend gates VIOLATED:");
        for v in &violations {
            println!("  {v}");
        }
    }

    let json = format!("{}\n", report.to_canonical_json());
    std::fs::write(out_path, &json).expect("write harness report");
    println!("wrote {out_path}");
    assert!(
        violations.is_empty(),
        "harness trend gates violated — do not check in this report"
    );
}

fn table2(args: &Args) {
    println!("---- Table II: dataset statistics ----");
    let mut rows = Vec::new();
    for kind in [CityKind::PortoLike, CityKind::HarbinLike] {
        let mut rng = det_rng(args.scale.seed);
        let city = kind.build(&mut rng);
        let n = args.scale.trips.min(400);
        let ds = DatasetBuilder::new(&city)
            .trips(n)
            .min_len(args.scale.min_len)
            .build(&mut rng);
        let s = ds.stats();
        rows.push(vec![
            city.name.to_string(),
            s.num_points.to_string(),
            s.num_trips.to_string(),
            f2(s.mean_length),
        ]);
    }
    println!(
        "{}",
        render(
            "ours (scaled)",
            &headers(&["dataset", "#points", "#trips", "mean length"]),
            &rows
        )
    );
    println!(
        "{}",
        render(
            "paper",
            &headers(&["dataset", "#points", "#trips", "mean length"]),
            &[
                vec![
                    "Porto".into(),
                    "74,269,739".into(),
                    "1,233,766".into(),
                    "60".into()
                ],
                vec![
                    "Harbin".into(),
                    "184,809,109".into(),
                    "1,527,348".into(),
                    "121".into()
                ],
            ],
        )
    );
}

fn table3(bench: &Bench) {
    println!("---- Table III: mean rank vs database size (Experiment 1) ----");
    let (sizes, rows) = bench.exp1_db_size();
    method_table("ours", "db", &sizes, ours(&rows), false);
    let paper_rows = reported(&paper::METHODS, &paper::TABLE3_PORTO);
    method_table(
        "paper (Porto)",
        "db",
        &paper::TABLE3_DB_SIZES,
        paper_rows,
        false,
    );
}

/// Tables IV and V share everything but the degradation axis.
fn rate_table(bench: &Bench, dropping: bool, label: &str, paper: (&[f64; 5], &[[f64; 5]; 6])) {
    let rates = [0.2, 0.3, 0.4, 0.5, 0.6];
    let rows = bench.mean_rank_vs_rate(&rates, dropping);
    method_table("ours", label, &rates, ours(&rows), false);
    let (paper_rates, paper_rows) = paper;
    let paper_rows = reported(&paper::METHODS, paper_rows);
    method_table("paper (Porto)", label, paper_rates, paper_rows, false);
}

fn table4(bench: &Bench) {
    println!("---- Table IV: mean rank vs dropping rate r1 (Experiment 2) ----");
    let paper = (&paper::TABLE4_RATES, &paper::TABLE4_PORTO);
    rate_table(bench, true, "r1", paper);
}

fn table5(bench: &Bench) {
    println!("---- Table V: mean rank vs distorting rate r2 (Experiment 3) ----");
    let paper = (&paper::TABLE5_RATES, &paper::TABLE5_PORTO);
    rate_table(bench, false, "r2", paper);
}

fn table6(bench: &Bench) {
    println!("---- Table VI: mean cross-distance deviation ----");
    let rates = [0.1, 0.2, 0.4, 0.6];
    let pairs = (bench.dataset.test.len() / 2).min(200);
    for (dropping, label) in [(true, "dropping rate r1"), (false, "distorting rate r2")] {
        let rows = bench.cross_similarity(&rates, pairs, dropping);
        let title = format!("ours — varying {label}");
        method_table(&title, "r", &rates, ours(&rows), true);
    }
    for (title, data) in [
        ("paper (dropping)", &paper::TABLE6_DROP),
        ("paper (distorting)", &paper::TABLE6_DISTORT),
    ] {
        let paper_rows = reported(&paper::TABLE6_METHODS, data);
        method_table(title, "r", &paper::TABLE6_RATES, paper_rows, false);
    }
}

fn fig5(bench: &Bench) {
    println!("---- Figure 5: k-nn precision vs degradation ----");
    let rates = [0.2, 0.3, 0.4, 0.5, 0.6];
    let nq = bench.scale.num_queries.min(bench.dataset.test.len() / 3);
    let db = bench.scale.extras;
    let ks = [20usize, 30, 40];
    for (dropping, label) in [(true, "dropping"), (false, "distorting")] {
        for (k, rows) in bench.knn_precision_multi(&ks, &rates, dropping, nq, db) {
            let title = format!("ours — precision@{k}, {label}");
            method_table(&title, "r", &rates, ours(&rows), true);
        }
    }
    println!("paper: precision decreases with both rates; EDR collapses at r1=0.6;");
    println!("       ordering t2vec > EDwP > (EDR ~ LCSS) > vRNN > CMS throughout.\n");
}

fn fig6(bench: &Bench) {
    println!("---- Figure 6: k-nn query time vs database size (k=50) ----");
    let sizes: Vec<usize> = bench.scale.extras_sweep.clone();
    let points = experiments::scalability(bench, &sizes, 50, 20.min(bench.scale.num_queries));
    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            p.method.clone(),
            p.db_size.to_string(),
            f2(p.query_micros),
            f2(p.build_micros),
        ]);
    }
    println!(
        "{}",
        render(
            "ours (µs)",
            &headers(&["method", "db size", "query µs", "build µs (offline)"]),
            &rows
        )
    );
    println!("paper: t2vec at least one order of magnitude faster than EDR and EDwP,");
    println!("       with near-flat growth in database size.\n");
}

/// The sweep experiments train many models; run them at a reduced scale
/// so the full harness stays within a CPU-hour.
fn sweep_scale(args: &Args) -> (t2vec_eval::experiments::Scale, T2VecConfig) {
    let mut scale = args.scale.clone();
    scale.trips = (scale.trips / 2).max(200);
    scale.num_queries = scale.num_queries.min(60);
    scale.extras = scale.extras.min(160);
    let mut config = args.config.clone();
    config.max_epochs = config.max_epochs.min(8);
    (scale, config)
}

fn table7(args: &Args) {
    println!("---- Table VII: loss ablation (L1 / L2 / L3 / L3+CL) ----");
    t2vec_obs::info!(target: "bench.table7", "training four model variants — the L2 pass is deliberately slow ...");
    let (scale, config) = sweep_scale(args);
    let rates = [0.4, 0.5, 0.6];
    let rows = experiments::loss_ablation(args.city, &scale, &config, &rates);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.loss.clone(),
                f2(r.mean_ranks[0]),
                f2(r.mean_ranks[1]),
                f2(r.mean_ranks[2]),
                f2(r.train_seconds),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "ours",
            &headers(&["loss", "MR@r1=0.4", "MR@r1=0.5", "MR@r1=0.6", "train s"]),
            &body
        )
    );
    let paper_body: Vec<Vec<String>> = paper::TABLE7_LOSSES
        .iter()
        .zip(paper::TABLE7_PORTO.iter())
        .map(|(l, row)| {
            vec![
                l.to_string(),
                f2(row[0]),
                f2(row[1]),
                f2(row[2]),
                format!("{}h", row[3]),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "paper (Porto; L2 not converged after 120h)",
            &headers(&["loss", "MR@r1=0.4", "MR@r1=0.5", "MR@r1=0.6", "train"]),
            &paper_body
        )
    );
}

fn sweep_table(title: &str, value_label: &str, rows: &[experiments::SweepRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                f2(r.value),
                r.vocab_size.to_string(),
                f2(r.mr_r1_a),
                f2(r.mr_r1_b),
                f2(r.mr_r2_a),
                f2(r.mr_r2_b),
                f2(r.train_seconds),
            ]
        })
        .collect();
    render(
        title,
        &headers(&[
            value_label,
            "#cells",
            "MR@r1=0.5",
            "MR@r1=0.6",
            "MR@r2=0.5",
            "MR@r2=0.6",
            "train s",
        ]),
        &body,
    )
}

fn table8(args: &Args) {
    println!("---- Table VIII: impact of the cell size ----");
    let (scale, config) = sweep_scale(args);
    let sizes = [25.0, 50.0, 100.0, 150.0];
    let rows = experiments::cell_size_sweep(args.city, &scale, &config, &sizes);
    println!("{}", sweep_table("ours", "cell m", &rows));
    let body: Vec<Vec<String>> = paper::TABLE8_CELL_SIZES
        .iter()
        .zip(paper::TABLE8_PORTO.iter())
        .map(|(s, row)| {
            vec![
                f2(*s),
                format!("{}", row[0] as u64),
                f2(row[1]),
                f2(row[2]),
                f2(row[3]),
                f2(row[4]),
                format!("{}h", row[5]),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "paper (Porto)",
            &headers(&[
                "cell m",
                "#cells",
                "MR@r1=0.5",
                "MR@r1=0.6",
                "MR@r2=0.5",
                "MR@r2=0.6",
                "train"
            ]),
            &body
        )
    );
}

fn table9(args: &Args) {
    println!("---- Table IX: impact of the hidden-layer size ----");
    let (scale, config) = sweep_scale(args);
    // Scaled sweep mirroring the paper's 64..512 around our default.
    let sizes = [8usize, 16, 32, 64];
    let rows = experiments::hidden_size_sweep(args.city, &scale, &config, &sizes);
    println!("{}", sweep_table("ours", "|v|", &rows));
    let body: Vec<Vec<String>> = paper::TABLE9_HIDDEN
        .iter()
        .zip(paper::TABLE9_PORTO.iter())
        .map(|(h, row)| {
            vec![
                h.to_string(),
                f2(row[0]),
                f2(row[1]),
                f2(row[2]),
                f2(row[3]),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "paper (Porto)",
            &headers(&["|v|", "MR@r1=0.5", "MR@r1=0.6", "MR@r2=0.5", "MR@r2=0.6"]),
            &body
        )
    );
}

fn fig7(args: &Args) {
    println!("---- Figure 7: impact of the training data size (MR @ r1 = 0.6) ----");
    let (scale, config) = sweep_scale(args);
    let fractions = [0.3, 0.6, 1.0];
    let rows = experiments::training_size_sweep(args.city, &scale, &config, &fractions);
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}%", r.value * 100.0),
                f2(r.mr_r1_b),
                f2(r.train_seconds),
            ]
        })
        .collect();
    println!(
        "{}",
        render(
            "ours",
            &headers(&["train fraction", "MR@r1=0.6", "train s"]),
            &body
        )
    );
    println!("paper: {}\n", paper::FIG7_CLAIM);
}
