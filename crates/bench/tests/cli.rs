//! The `experiments` binary validates its ids before it does any work:
//! a mistyped or retired id must fail the script that names it instead
//! of printing the header and exiting 0 having run nothing.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

fn assert_rejects(args: &[&str], offending: &str) {
    let out = experiments(args);
    assert!(!out.status.success(), "{args:?} must exit non-zero");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must fail before any work starts, printed {:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("'{offending}'")),
        "{args:?}: stderr must name the offending id, got {stderr:?}"
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
fn help_exits_zero() {
    let out = experiments(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
