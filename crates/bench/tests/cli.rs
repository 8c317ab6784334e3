//! The `experiments` binary validates its command line before it does
//! any work: a mistyped or retired id, a bad flag value or a flag with
//! no value must fail the script that names it (exit 2, usage on stderr)
//! instead of printing the header and exiting 0 having run nothing, or
//! panicking. And what it prints is a function of its arguments alone.
//! It also smoke-tests `fig6`, the one experiment that times the DP
//! baselines.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn assert_rejects(args: &[&str], offending: &str) {
    let out = experiments(args);
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must fail before any work starts, printed {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("'{offending}'")),
        "{args:?}: stderr must name the offending word, got {stderr:?}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} panicked: {stderr:?}"
    );
    assert!(
        stderr.contains("usage:") && stderr.contains("table3") && stderr.contains("bench_exp"),
        "{args:?}: stderr must list the valid ids, got {stderr:?}"
    );
}

#[test]
fn unknown_id_is_rejected() {
    assert_rejects(&["--scale", "tiny", "tabel3"], "tabel3");
}

#[test]
fn unknown_id_after_a_valid_one_is_rejected() {
    assert_rejects(&["--scale", "tiny", "table2", "table10"], "table10");
}

#[test]
fn unknown_scale_is_rejected() {
    assert_rejects(&["--scale", "bogus", "table2"], "bogus");
}

#[test]
fn unknown_city_is_rejected() {
    assert_rejects(&["--scale", "tiny", "--city", "bogus", "table2"], "bogus");
}

#[test]
fn flag_without_a_value_is_rejected() {
    assert_rejects(&["table2", "--scale"], "--scale");
}

#[test]
fn tables_are_byte_identical_across_processes() {
    let args = [
        "--scale", "tiny", "--city", "tiny", "table3", "table4", "table5", "table6", "fig5",
    ];
    let (a, b) = (experiments(&args), experiments(&args));
    assert!(a.status.success() && b.status.success());
    assert!(!a.stdout.is_empty());
    assert_eq!(
        String::from_utf8_lossy(&a.stdout),
        String::from_utf8_lossy(&b.stdout),
        "two runs of the same tables must print the same bytes"
    );
}

#[test]
fn help_exits_zero() {
    let out = experiments(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

/// `fig6` is the one experiment that times the DP baselines: one EDR,
/// EDwP and t2vec k-NN row per database size, each with a query time.
#[test]
fn fig6_times_every_method_at_every_db_size() {
    let out = experiments(&["--scale", "tiny", "--city", "tiny", "fig6"]);
    assert!(out.status.success(), "fig6 failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .filter(|l| l.starts_with('|') && !l.starts_with("|-"))
        .map(|l| l.trim_matches('|').split('|').map(str::trim).collect())
        .filter(|cells: &Vec<&str>| cells[0] != "method")
        .collect();
    assert_eq!(rows.len(), 6, "fig6 table: {stdout}");
    for size in ["10", "20"] {
        for method in ["EDR", "EDwP", "t2vec"] {
            let hits = rows.iter().filter(|r| r[0] == method && r[1] == size);
            assert_eq!(hits.count(), 1, "{method} at db size {size}: {stdout}");
        }
    }
    for r in &rows {
        let query_us: f64 = r[2].parse().expect("query µs is a number");
        assert!(query_us.is_finite(), "{r:?}");
    }
}
