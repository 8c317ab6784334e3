//! What a run reports, and the host facts recorded with it.

use crate::load::Tally;
use crate::spec;
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The outcome of one run of one workload.
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    pub tally: Tally,
    /// `(metric name, value)`; units come from [`spec`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Phase counts, check results and warnings, printed before the
    /// result line.
    pub lines: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            correct: true,
            tally: Tally::default(),
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.lines.push(format!(
            "check {what}: {}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Counts one phase's operations.
    pub fn phase(&mut self, name: &str, tally: Tally) {
        self.lines.push(format!(
            "phase {name}: attempted {} succeeded {} failed {}",
            tally.attempted,
            tally.attempted - tally.failed,
            tally.failed
        ));
        self.tally.add(tally);
    }

    /// The result object the driver reads from the last line of stdout.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, value)| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::Float(value)),
                    ("unit".into(), Value::Str(unit_of(name).into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::UInt(self.tally.attempted as u64)),
            ("failed".into(), Value::UInt(self.tally.failed as u64)),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// Unit of a metric of either table.
pub fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|&(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

/// Host facts recorded in every result file; `compare` refuses two
/// files whose threads or backend differ.
pub fn environment() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        (
            "threads".into(),
            Value::UInt(t2vec_tensor::parallel::num_threads() as u64),
        ),
        ("clients".into(), Value::UInt(crate::load::CLIENTS as u64)),
        (
            "simd".into(),
            Value::Str(t2vec_tensor::simd::backend().name().into()),
        ),
        ("commit".into(), Value::Str(git_commit())),
    ])
}

/// `HEAD` of the checkout, read from `.git` without starting a process;
/// the driver's checkout is not a repository, hence `unknown`.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .unwrap_or_default()
            .trim()
            .to_string(),
        None => head.to_string(),
    };
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A directory inside the checkout for journals, snapshots and span
/// files, removed when the run ends — on success, on a failed check and
/// on a panic alike.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new() -> std::io::Result<Self> {
        let dir = PathBuf::from(format!(".bench_tmp/run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// An empty directory `name`, replacing any earlier one.
    pub fn fresh_dir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Errors are ignored: Drop must not panic, and a leftover
        // directory is inside the checkout and git-ignored.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Set-ups a run starts with at least; `setup_s` is the median of all.
const SETUP_REPS: usize = 3;
/// A set-up of a few milliseconds is repeated until this much time is
/// spent (25 times at most), or its median is all timer noise.
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(750);

/// The set-ups of one run, timed.
pub struct Setups<F> {
    setup: F,
    times: Vec<f64>,
}

impl<T, F: FnMut() -> Result<T, String>> Setups<F> {
    pub fn new(setup: F) -> Self {
        Self {
            setup,
            times: Vec::new(),
        }
    }

    /// Sets the workload up several times, dropping each stage before
    /// the next is built so peak memory is one stage's; returns the
    /// last.
    pub fn start(&mut self) -> Result<T, String> {
        let mut total = Duration::ZERO;
        let mut stage = None;
        while self.times.len() < SETUP_REPS || (total < SETUP_MIN_TOTAL && self.times.len() < 25) {
            drop(stage.take());
            let (built, took) = timed(&mut self.setup);
            stage = Some(built?);
            total += took;
            self.times.push(took.as_secs_f64());
        }
        Ok(stage.expect("SETUP_REPS > 0"))
    }

    /// `reps` more set-ups, each dropped at once. A set-up of
    /// milliseconds is repeated between the run's epochs or cycles too:
    /// timed only as the run starts it read this host's speed in that
    /// half second, 15 ms in most runs and 22 ms in the others, and the
    /// medians of two sets of ten runs lay 33 % apart.
    pub fn again(&mut self, reps: usize) -> Result<(), String> {
        for _ in 0..reps {
            let (built, took) = timed(&mut self.setup);
            drop(built?);
            self.times.push(took.as_secs_f64());
        }
        Ok(())
    }

    /// `setup_s`: the median set-up time in seconds.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}
