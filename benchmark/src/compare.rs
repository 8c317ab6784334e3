//! `compare <a> <b>`: two result sets of `run --out`, one row per
//! end-to-end metric and workload.

use crate::spec::{self, Better};
use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Values per `(workload, metric)` plus the threads and SIMD backend
/// the set was measured with.
struct ResultSet {
    values: BTreeMap<(String, String), Vec<f64>>,
    threads: Option<(u64, String)>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn load(path: &str) -> Result<ResultSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut set = ResultSet {
        values: BTreeMap::new(),
        threads: None,
    };
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path} line {}: {what}", n + 1);
        let record: Value = serde_json::from_str(line).map_err(|e| at(&e.to_string()))?;
        if record.get("trace") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| at("no workload"))?;
        let env = record
            .get("environment")
            .ok_or_else(|| at("no environment"))?;
        let threads = (
            env.get("threads")
                .and_then(number)
                .ok_or_else(|| at("no threads"))? as u64,
            env.get("simd")
                .and_then(Value::as_str)
                .ok_or_else(|| at("no simd backend"))?
                .to_string(),
        );
        if *set.threads.get_or_insert_with(|| threads.clone()) != threads {
            return Err(at("threads or SIMD backend differ within the file"));
        }
        let metrics = record
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics"))?;
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(number)
                .ok_or_else(|| at("no value"))?;
            set.values
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// Interquartile distance as a share of the median; 0 for one value.
fn spread(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| (q3 - q1) / median(values).abs())
}

fn quartile_text(values: &[f64]) -> String {
    quartiles(values).map_or("-".into(), |(q1, q3)| format!("{q1:.4}..{q3:.4}"))
}

pub fn run(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    if a.threads != b.threads {
        eprintln!(
            "benchmark compare: {a_path} was measured with {:?}, {b_path} with {:?}",
            a.threads, b.threads
        );
        return ExitCode::from(2);
    }
    println!(
        "{:<14} {:<18} {:>12} {:>24} {:>12} {:>24} {:>16}  verdict",
        "workload", "metric", "a median", "a quartiles", "b median", "b quartiles", "b/a (base a)"
    );
    let mut regressed = false;
    for ((workload, metric), a_values) in &a.values {
        let Some(m) = spec::end_to_end(metric) else {
            continue;
        };
        let Some(b_values) = b.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (ma, mb) = (median(a_values), median(b_values));
        let worse = match m.better {
            Better::Lower => (mb - ma) / ma,
            Better::Higher => (ma - mb) / ma,
        };
        let verdict = if worse > m.bound {
            regressed = true;
            "regressed"
        } else if spread(a_values).max(spread(b_values)) > m.bound {
            "unresolved"
        } else {
            "ok"
        };
        println!(
            "{workload:<14} {metric:<18} {ma:>12.4} {:>24} {mb:>12.4} {:>24} {:>16.4}  {verdict}",
            quartile_text(a_values),
            quartile_text(b_values),
            mb / ma,
        );
    }
    if regressed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
