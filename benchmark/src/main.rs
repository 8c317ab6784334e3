//! The repository's one benchmark: train, build, serve — end-to-end
//! metrics, a per-layer budget, four workloads. See `README.md`.

// Stdout is this binary's product (clippy.toml routes library
// diagnostics through t2vec_obs).
#![allow(clippy::disallowed_macros)]

mod compare;
mod inputs;
mod load;
mod report;
mod spec;
mod stats;
mod trace;
mod workloads;

use report::{Report, Scratch};
use serde_json::Value;
use std::io::Write;
use std::process::ExitCode;

/// The benchmark measures the defaults, so it refuses to run while any
/// of these is set.
const GUARDED_ENV: [&str; 6] = [
    "T2VEC_SIMD",
    "T2VEC_THREADS",
    "T2VEC_TRAIN_PATH",
    "T2VEC_LOG",
    "T2VEC_METRICS_OUT",
    "T2VEC_FLIGHT",
];

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage:
  benchmark run --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--out <file>]
  benchmark run --all [--seeds <a,b,..>] [--seconds <s>] [--trace 0|1] [--out <file>]
  benchmark list [--json]
  benchmark compare <a.jsonl> <b.jsonl>";

struct RunArgs {
    workload: Option<String>,
    all: bool,
    seeds: Vec<u64>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        all: false,
        seeds: vec![DEFAULT_SEED],
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            parsed.all = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" | "--seeds" => {
                parsed.seeds = value
                    .split(',')
                    .map(|s| s.parse::<u64>().map_err(|_| bad()))
                    .collect::<Result<_, _>>()?;
            }
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => parsed.trace = matches!(value.as_str(), "1" | "true"),
            "--out" => parsed.out = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if parsed.all == parsed.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".into());
    }
    Ok(parsed)
}

fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Report, String> {
    let scratch = Scratch::new().map_err(|e| format!("cannot create scratch directory: {e}"))?;
    match (name, trace) {
        ("train_paper", false) => workloads::train_paper(seed, seconds),
        ("build_db", false) => workloads::build_db(seed, seconds, &scratch),
        ("serve_by_traj", false) => workloads::serve_by_traj(seed, seconds),
        ("serve_by_vec", false) => workloads::serve_by_vec(seed, seconds, &scratch),
        (_, true) if spec::WORKLOADS.iter().any(|w| w.name == name) => {
            trace::run(name, seed, &scratch)
        }
        _ => Err(format!(
            "unknown workload `{name}`; `benchmark list` names them"
        )),
    }
}

/// Runs one workload in this process and prints its result. Exit code
/// 0 when every check passed, 1 when one failed, 2 when the run could
/// not be made.
fn run_one(name: &str, seed: u64, args: &RunArgs) -> ExitCode {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    t2vec_tensor::parallel::set_threads(threads);
    let report = match run_workload(name, seed, args.seconds, args.trace) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {name} seed {seed} seconds {} trace {}",
        args.seconds,
        u8::from(args.trace)
    );
    let environment = report::environment();
    println!("environment {}", json(&environment));
    for line in &report.lines {
        println!("{line}");
    }
    for &(metric, value) in &report.metrics {
        println!("{metric} = {value} {}", report::unit_of(metric));
    }
    let result = report.result_json();
    if let Some(out) = &args.out {
        let mut record = vec![
            ("workload".to_string(), Value::Str(name.into())),
            ("seed".to_string(), Value::UInt(seed)),
            ("seconds".to_string(), Value::Float(args.seconds)),
            ("trace".to_string(), Value::Bool(args.trace)),
            ("environment".to_string(), environment),
        ];
        record.extend(
            result
                .as_object()
                .expect("result is an object")
                .iter()
                .cloned(),
        );
        if let Err(e) = append_line(out, &json(&Value::Object(record))) {
            eprintln!("benchmark: cannot write {out}: {e}");
            return ExitCode::from(2);
        }
    }
    println!("{}", json(&result));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `run --all`: every workload for every seed, each in a process of its
/// own so `peak_rss_mb` is per workload.
fn run_all(args: &RunArgs) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for &seed in &args.seeds {
        for w in &spec::WORKLOADS {
            let mut child = std::process::Command::new(&exe);
            child
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if let Some(out) = &args.out {
                child.args(["--out", out]);
            }
            // `status` waits for the child to end.
            let code = match child.status() {
                Ok(status) => status.code().unwrap_or(2) as u8,
                Err(e) => {
                    eprintln!("benchmark: cannot start {}: {e}", w.name);
                    2
                }
            };
            worst = worst.max(code);
        }
    }
    ExitCode::from(worst)
}

fn json(value: &Value) -> String {
    serde_json::to_string(value).expect("a Value always serialises")
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    match command.as_str() {
        "list" => {
            if rest.iter().any(|a| a == "--json") {
                println!("{}", spec::pretty(&spec::benchmark_json()));
            } else {
                spec::print_list();
            }
            ExitCode::SUCCESS
        }
        "compare" => match rest {
            [a, b] => compare::run(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        },
        "run" => {
            if let Some(var) = GUARDED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
                eprintln!("benchmark: {var} is set; the benchmark measures the defaults, unset it");
                return ExitCode::from(2);
            }
            match parse_run(rest) {
                Ok(parsed) if parsed.all => run_all(&parsed),
                Ok(parsed) => {
                    let name = parsed.workload.clone().expect("checked by parse_run");
                    run_one(&name, parsed.seeds[0], &parsed)
                }
                Err(e) => {
                    eprintln!("benchmark: {e}\n{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
