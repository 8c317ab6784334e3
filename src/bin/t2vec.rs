//! The `t2vec` command-line tool: generate data, train models, encode
//! trajectories and run k-nearest-trajectory search from the shell.
//!
//! ```text
//! t2vec generate --city porto --trips 500 --out trips.csv [--seed 7]
//! t2vec train    --data trips.csv --preset tiny|small|paper --out model.json [--seed 7]
//! t2vec encode   --model model.json --data trips.csv --out vectors.json
//! t2vec knn      --model model.json --db trips.csv --query trips.csv --k 10 [--ann]
//! t2vec loadgen  --model model.json --data trips.csv [--ops N] [--read-frac F]
//!                [--workers N] [--k N] [--shards N] [--out report.json]
//!                [--trace-out trace.jsonl]
//! t2vec obs-dump --trace trace.jsonl [--check]
//! t2vec stats    --data trips.csv
//! ```
//!
//! Trajectory CSV format: `trip_id,start,x,y` with one sample point per
//! line, coordinates in meters in a local plane (project lon/lat with
//! `GeoPoint::project` first).
//!
//! Observability: `--log-level SPEC` / `--metrics-out FILE` (or the
//! `T2VEC_LOG` / `T2VEC_METRICS_OUT` environment variables) control the
//! structured event stream; `--quiet` silences the per-epoch training
//! heartbeat, `--progress` keeps it even under `--quiet`'s log level.
//!
//! Performance knobs: `T2VEC_THREADS` caps the worker-thread count and
//! `T2VEC_SIMD` pins the kernel backend; neither changes a result byte.
//! README.md's "Environment variables" table lists every variable read.

// Binaries may print; the workspace-wide clippy.toml ban targets
// library crates (diagnostics there must go through t2vec-obs).
#![allow(clippy::disallowed_macros)]

use rand::RngExt;
use std::fs::File;
use std::process::ExitCode;
use t2vec::prelude::*;
use t2vec_trajgen::io::{read_csv, write_csv};
use t2vec_trajgen::Trajectory;

struct Opts {
    flags: std::collections::HashMap<String, String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = std::collections::HashMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument '{a}'"));
            };
            if name == "ann"
                || name == "resume"
                || name == "quiet"
                || name == "progress"
                || name == "check"
            {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Self { flags })
    }

    fn get(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn get_or(&self, name: &str, default: &str) -> String {
        self.flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }
}

fn usage() -> &'static str {
    "usage: t2vec <generate|train|encode|knn|loadgen|obs-dump|stats> [--flags]\n\
     \n  generate --city porto|harbin|tiny --trips N --out FILE [--seed N] [--min-len N]\
     \n  train    --data FILE --out FILE [--preset tiny|small|paper] [--seed N]\
     \n           [--checkpoint-dir DIR [--checkpoint-every N] [--keep K] [--resume]]\
     \n  encode   --model FILE --data FILE --out FILE\
     \n  knn      --model FILE --db FILE --query FILE [--k N] [--ann]\
     \n  loadgen  --model FILE --data FILE [--ops N] [--read-frac F] [--workers N]\
     \n           [--k N] [--shards N] [--seed N] [--out FILE] [--trace-out FILE]\
     \n  obs-dump --trace FILE [--check]\
     \n  stats    --data FILE\
     \n\
     \n  global:  [--log-level SPEC] [--metrics-out FILE] [--quiet] [--progress]\
     \n           [--flight N] [--flight-dump FILE]\
     \n           SPEC is like T2VEC_LOG: error|warn|info|debug|trace or\
     \n           target=level directives, e.g. 'info,nn.train=debug'"
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    init_obs(&opts);
    let result = match cmd.as_str() {
        "generate" => generate(&opts),
        "train" => train(&opts),
        "encode" => encode(&opts),
        "knn" => knn(&opts),
        "loadgen" => loadgen(&opts),
        "obs-dump" => obs_dump(&opts),
        "stats" => stats(&opts),
        other => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    t2vec::obs::metrics::emit();
    t2vec::obs::flush();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Installs the observability pipeline from flags + environment. Flags
/// win over environment variables; both feed the same
/// `t2vec_obs::init_from_env` path so CLI runs and library consumers
/// behave identically.
fn init_obs(opts: &Opts) {
    if let Some(spec) = opts.flags.get("log-level") {
        std::env::set_var("T2VEC_LOG", spec);
    }
    if let Some(path) = opts.flags.get("metrics-out") {
        std::env::set_var("T2VEC_METRICS_OUT", path);
    }
    // `--trace-out` is the tracing-flavoured spelling of the same JSONL
    // sink (the sink receives every record: spans, events, metrics);
    // installing it raises the filter to debug so span records flow.
    if let Some(path) = opts.flags.get("trace-out") {
        std::env::set_var("T2VEC_METRICS_OUT", path);
    }
    if let Some(cap) = opts.flags.get("flight") {
        std::env::set_var("T2VEC_FLIGHT", cap);
    }
    if let Some(path) = opts.flags.get("flight-dump") {
        std::env::set_var("T2VEC_FLIGHT_DUMP", path);
    }
    let quiet = opts.flags.contains_key("quiet");
    let progress = opts.flags.contains_key("progress");
    // `--quiet` drops the default to warnings; `--progress` re-opens
    // the cli.train heartbeat target on top of that.
    let default_spec = match (quiet, progress) {
        (true, true) => "warn,cli.train=info",
        (true, false) => "warn",
        _ => "info",
    };
    t2vec::obs::init_from_env(default_spec);
}

fn load_trajectories(path: &str) -> Result<Vec<Trajectory>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    read_csv(file).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn generate(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.get_or("seed", "7").parse().map_err(|_| "bad --seed")?;
    let trips: usize = opts
        .get_or("trips", "200")
        .parse()
        .map_err(|_| "bad --trips")?;
    let min_len: usize = opts
        .get_or("min-len", "8")
        .parse()
        .map_err(|_| "bad --min-len")?;
    let out = opts.get("out")?;
    let mut rng = det_rng(seed);
    let city = match opts.get_or("city", "porto").as_str() {
        "porto" => City::porto_like(&mut rng),
        "harbin" => City::harbin_like(&mut rng),
        "tiny" => City::tiny(&mut rng),
        other => return Err(format!("unknown city '{other}'")),
    };
    let ds = DatasetBuilder::new(&city)
        .trips(trips)
        .min_len(min_len)
        .build(&mut rng);
    let all: Vec<Trajectory> = ds.all().cloned().collect();
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    write_csv(file, &all).map_err(|e| e.to_string())?;
    let s = ds.stats();
    println!(
        "wrote {} trips / {} points (mean length {:.1}) to {out}",
        s.num_trips, s.num_points, s.mean_length
    );
    Ok(())
}

fn train(opts: &Opts) -> Result<(), String> {
    let seed: u64 = opts.get_or("seed", "7").parse().map_err(|_| "bad --seed")?;
    let data = load_trajectories(opts.get("data")?)?;
    let out = opts.get("out")?;
    let config = match opts.get_or("preset", "small").as_str() {
        "tiny" => T2VecConfig::tiny(),
        "small" => T2VecConfig::small(),
        "paper" => T2VecConfig::paper_default(),
        other => return Err(format!("unknown preset '{other}'")),
    };
    let every: usize = opts
        .get_or("checkpoint-every", "1")
        .parse::<usize>()
        .map_err(|_| "bad --checkpoint-every")?
        .max(1);
    let keep: usize = opts.get_or("keep", "3").parse().map_err(|_| "bad --keep")?;
    let resume = opts.flags.contains_key("resume");
    let store = match opts.flags.get("checkpoint-dir") {
        Some(dir) => Some(CheckpointStore::open(dir, keep).map_err(|e| e.to_string())?),
        None if resume => return Err("--resume needs --checkpoint-dir".into()),
        None => None,
    };
    let split = data.len().saturating_sub((data.len() / 10).max(1)).max(1);
    let (tr, val) = data.split_at(split.min(data.len()));
    // Derive the setup seed exactly as `T2Vec::train_with_report` does,
    // so a run with checkpointing off is bit-identical to one with it on.
    let setup_seed: u64 = det_rng(seed).random();
    let mut trainer = if resume {
        let (trainer, notes) =
            Trainer::resume_from(&config, tr, val, setup_seed, store.as_ref().unwrap())
                .map_err(|e| e.to_string())?;
        for note in notes {
            eprintln!("resume: {note}");
        }
        trainer
    } else {
        Trainer::new(&config, tr, val, setup_seed).map_err(|e| e.to_string())?
    };
    while let Some(stats) = trainer.step_epoch() {
        // One-line heartbeat per epoch (suppress with --quiet). All the
        // numbers come from the trainer's observability surface; none of
        // this can perturb the training computation.
        if let Some(tp) = trainer.throughput().last() {
            let done = trainer.throughput().len();
            let mean_secs =
                trainer.throughput().iter().map(|t| t.seconds).sum::<f64>() / done as f64;
            let remaining = trainer.max_epochs().saturating_sub(trainer.epochs_done());
            t2vec::obs::info!(target: "cli.train",
                "epoch {:>3}/{}  train {:.4}  val {:.4}  {:.0} tok/s  eta {:.0}s",
                stats.epoch + 1,
                trainer.max_epochs(),
                stats.train_loss,
                stats.val_loss,
                tp.tokens_per_sec(),
                mean_secs * remaining as f64
            );
        }
        if let Some(store) = &store {
            if trainer.epochs_done() % every == 0 {
                let path = store
                    .save(&trainer.checkpoint())
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "checkpoint: epoch {} -> {}",
                    trainer.epochs_done(),
                    path.display()
                );
            }
        }
    }
    let (model, report) = trainer.finish();
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    model.save(file).map_err(|e| e.to_string())?;
    println!(
        "trained on {} trips ({} pairs, {} hot cells) in {:.1}s over {} epochs; model -> {out}",
        tr.len(),
        report.num_pairs,
        report.vocab_size,
        report.train_seconds,
        report.epochs
    );
    Ok(())
}

fn encode(opts: &Opts) -> Result<(), String> {
    let model = T2Vec::load(File::open(opts.get("model")?).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let data = load_trajectories(opts.get("data")?)?;
    let out = opts.get("out")?;
    let points: Vec<Vec<_>> = data.iter().map(|t| t.points.clone()).collect();
    let t0 = std::time::Instant::now();
    let vectors = model.encode_batch(&points);
    let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
    serde_json::to_writer(file, &vectors).map_err(|e| e.to_string())?;
    println!(
        "encoded {} trajectories ({} dims) in {:.1} ms -> {out}",
        vectors.len(),
        model.repr_dim(),
        t0.elapsed().as_secs_f64() * 1e3
    );
    Ok(())
}

fn knn(opts: &Opts) -> Result<(), String> {
    let model = T2Vec::load(File::open(opts.get("model")?).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let db = load_trajectories(opts.get("db")?)?;
    let queries = load_trajectories(opts.get("query")?)?;
    let k: usize = opts.get_or("k", "10").parse().map_err(|_| "bad --k")?;
    let db_points: Vec<Vec<_>> = db.iter().map(|t| t.points.clone()).collect();
    let vectors = model.encode_batch(&db_points);
    let entries = (0..).zip(vectors).map(|(id, vec)| Entry { id, vec });
    let store = EmbeddingStore::from_entries(model.repr_dim(), 1, entries);
    // An empty store builds no tier and `knn_ann` scans exactly.
    if opts.flags.contains_key("ann") {
        // √n cells, the usual IVF sizing; probe/re-rank budgets and the
        // i8 tier at their defaults, every vector in the k-means sample.
        let nlist = (store.len() as f64).sqrt().round() as usize;
        store.build_ann(&AnnConfig {
            train_seed: 1,
            train_sample: 0,
            ..AnnConfig::new(nlist)
        });
    }
    for (qi, q) in queries.iter().enumerate() {
        let qv = model.encode(&q.points);
        let hits = store.knn_ann(&qv, k);
        let rendered: Vec<String> = hits.iter().map(|(id, d)| format!("{id}:{d:.3}")).collect();
        println!("query {qi}: {}", rendered.join(" "));
    }
    Ok(())
}

/// Stands up an in-memory [`SimilarityService`] around a trained model,
/// preloads it with the trajectories of `--data`, and drives it with
/// the mixed read/write load generator, printing p50/p99/QPS (and
/// writing the JSON report when `--out` is given).
fn loadgen(opts: &Opts) -> Result<(), String> {
    use t2vec::serve::{loadgen as lg, LoadgenConfig, ServeConfig};

    let model = T2Vec::load(File::open(opts.get("model")?).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let data = load_trajectories(opts.get("data")?)?;
    if data.is_empty() {
        return Err("loadgen needs a non-empty --data file".into());
    }
    let ops: usize = opts.get_or("ops", "400").parse().map_err(|_| "bad --ops")?;
    let read_fraction: f64 = opts
        .get_or("read-frac", "0.9")
        .parse()
        .map_err(|_| "bad --read-frac")?;
    let workers: usize = opts
        .get_or("workers", "4")
        .parse::<usize>()
        .map_err(|_| "bad --workers")?
        .max(1);
    let k: usize = opts.get_or("k", "10").parse().map_err(|_| "bad --k")?;
    let shards: usize = opts
        .get_or("shards", "8")
        .parse()
        .map_err(|_| "bad --shards")?;
    let seed: u64 = opts.get_or("seed", "7").parse().map_err(|_| "bad --seed")?;

    let config = ServeConfig {
        shards,
        ..ServeConfig::default()
    };
    let service = SimilarityService::new(std::sync::Arc::new(model), config);
    let pool: Vec<Vec<Point>> = data.iter().map(|t| t.points.clone()).collect();
    for (i, t) in pool.iter().enumerate() {
        service.insert(i as u64, t).map_err(|e| e.to_string())?;
    }
    let cfg = LoadgenConfig {
        workers,
        ops_per_worker: (ops / workers).max(1),
        read_fraction,
        k,
        seed,
        id_base: 1 << 32,
    };
    let report = lg::run(&service, &pool, &cfg).map_err(|e| e.to_string())?;
    println!(
        "{} ops ({} reads / {} writes) over {} workers in {:.2}s: {:.0} ops/s",
        report.ops, report.reads, report.writes, report.workers, report.elapsed_s, report.qps
    );
    println!(
        "read  p50 {:.0} us | p99 {:.0} us | max {:.0} us",
        report.read_latency.p50_us, report.read_latency.p99_us, report.read_latency.max_us
    );
    println!(
        "write p50 {:.0} us | p99 {:.0} us | max {:.0} us",
        report.write_latency.p50_us, report.write_latency.p99_us, report.write_latency.max_us
    );
    println!("store holds {} entries", report.store_len_end);
    if let Some(out) = opts.flags.get("out") {
        let file = File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
        serde_json::to_writer(file, &report).map_err(|e| e.to_string())?;
        println!("report -> {out}");
    }
    Ok(())
}

/// Analyzes a JSONL event stream (`--trace-out` / `T2VEC_METRICS_OUT`
/// traces and flight-recorder dumps share the shape): reconstructs
/// every span tree, reports per-trace completeness, per-span-name
/// latency quantiles and ANN explain records. With `--check`, exits
/// nonzero when any line fails to parse or any trace's tree is
/// incomplete (a referenced parent never seen, or a span never exited).
fn obs_dump(opts: &Opts) -> Result<(), String> {
    use serde_json::Value;
    use std::collections::BTreeMap;
    use t2vec::obs::quantiles::WindowedQuantiles;

    struct SpanRec {
        name: String,
        target: String,
        trace: u64,
        parent: u64,
        entered: bool,
        exited: bool,
        elapsed_ns: Option<u64>,
    }

    fn num(v: Option<&Value>) -> u64 {
        match v {
            Some(Value::UInt(n)) => *n,
            _ => 0,
        }
    }

    let path = opts.get("trace")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;

    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    let (mut events, mut metrics, mut bad_lines) = (0usize, 0usize, 0usize);
    let (mut explains, mut explain_ann, mut explain_fallback) = (0usize, 0usize, 0usize);
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let Ok(v) = serde_json::from_str::<Value>(line) else {
            bad_lines += 1;
            continue;
        };
        let kind = v.get("kind").and_then(Value::as_str).unwrap_or("");
        let span = num(v.get("span"));
        match kind {
            "span_enter" | "span_exit" if span != 0 => {
                let rec = spans.entry(span).or_insert_with(|| SpanRec {
                    name: v
                        .get("msg")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    target: v
                        .get("target")
                        .and_then(Value::as_str)
                        .unwrap_or("?")
                        .to_string(),
                    trace: num(v.get("trace")),
                    parent: num(v.get("parent")),
                    entered: false,
                    exited: false,
                    elapsed_ns: None,
                });
                if kind == "span_enter" {
                    rec.entered = true;
                } else {
                    rec.exited = true;
                    rec.elapsed_ns = match v.get("elapsed_ns") {
                        Some(Value::UInt(n)) => Some(*n),
                        _ => None,
                    };
                }
            }
            "event" => {
                events += 1;
                if v.get("target").and_then(Value::as_str) == Some("serve.explain") {
                    explains += 1;
                    let field = |k: &str| v.get("fields").and_then(|f| f.get(k)).cloned();
                    if field("ann") == Some(Value::Bool(true)) {
                        explain_ann += 1;
                    }
                    if field("exact_fallback") == Some(Value::Bool(true)) {
                        explain_fallback += 1;
                    }
                }
            }
            "metric" => metrics += 1,
            _ => {}
        }
    }

    // Group spans by trace and check each tree: every parent resolves,
    // every entered span exited. Spans recorded by a *flight dump* may
    // legitimately miss their enter twin (the ring wrapped), so an
    // exit-only span is fine; a dangling parent or an unexited span is
    // not.
    let mut traces: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for (&id, rec) in &spans {
        if rec.trace != 0 {
            traces.entry(rec.trace).or_default().push(id);
        }
    }
    let mut incomplete: Vec<(u64, String)> = Vec::new();
    for (&trace, ids) in &traces {
        let mut reasons = Vec::new();
        for &id in ids {
            let rec = &spans[&id];
            if rec.entered && !rec.exited {
                reasons.push(format!("span {id} ({}) never exited", rec.name));
            }
            if rec.parent != 0 && !spans.contains_key(&rec.parent) {
                reasons.push(format!(
                    "span {id} ({}) references unseen parent {}",
                    rec.name, rec.parent
                ));
            }
        }
        if !reasons.is_empty() {
            incomplete.push((trace, reasons.join("; ")));
        }
    }

    // Roots by name, per-span-name latency quantiles (dogfooding the
    // obs estimator, unwindowed).
    let mut roots: BTreeMap<String, usize> = BTreeMap::new();
    let mut lat: BTreeMap<String, WindowedQuantiles> = BTreeMap::new();
    for rec in spans.values() {
        if rec.parent == 0 {
            *roots
                .entry(format!("{}/{}", rec.target, rec.name))
                .or_default() += 1;
        }
        if let Some(ns) = rec.elapsed_ns {
            lat.entry(format!("{}/{}", rec.target, rec.name))
                .or_insert_with(WindowedQuantiles::unwindowed)
                .record(ns);
        }
    }

    println!(
        "{} spans over {} traces; {} events ({} explain), {metrics} metric records",
        spans.len(),
        traces.len(),
        events,
        explains
    );
    if explains > 0 {
        println!(
            "explain: {explain_ann} ann / {explain_fallback} exact-fallback / {explains} total"
        );
    }
    for (name, n) in &roots {
        println!("root {name}: {n}");
    }
    for (name, q) in &lat {
        println!(
            "span {name}: n={} p50={}ns p99={}ns max={}ns",
            q.count(),
            q.quantile(0.50),
            q.quantile(0.99),
            q.max()
        );
    }
    if bad_lines > 0 {
        println!("unparseable lines: {bad_lines}");
    }
    for (trace, why) in incomplete.iter().take(10) {
        println!("incomplete trace {trace}: {why}");
    }
    println!(
        "complete span trees: {}/{}",
        traces.len() - incomplete.len(),
        traces.len()
    );
    if opts.flags.contains_key("check") && (!incomplete.is_empty() || bad_lines > 0) {
        return Err(format!(
            "trace check failed: {} incomplete trace(s), {} unparseable line(s)",
            incomplete.len(),
            bad_lines
        ));
    }
    Ok(())
}

fn stats(opts: &Opts) -> Result<(), String> {
    let data = load_trajectories(opts.get("data")?)?;
    let points: usize = data.iter().map(Trajectory::len).sum();
    let mean = if data.is_empty() {
        0.0
    } else {
        points as f64 / data.len() as f64
    };
    println!(
        "#trips: {}\n#points: {points}\nmean length: {mean:.2}",
        data.len()
    );
    Ok(())
}
