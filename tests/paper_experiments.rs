//! The paper-experiment regression gate (see `crates/eval/src/harness.rs`
//! and EXPERIMENTS.md).
//!
//! Two tiers, both over the seeded end-to-end pipeline (synthetic city →
//! vocabulary → epoch-stepped training → EXP1/EXP2/EXP3 → IVF recall):
//!
//! * **bitwise** — the canonical JSON report is identical at 1 and 4
//!   worker threads and matches the checked-in `GOLDEN_EXP.json` byte
//!   for byte. Any change to the loss, kernels, RNG streams, vocabulary
//!   or index surfaces as a diff here.
//! * **trend** — the paper's §V qualitative findings hold on the report
//!   (monotonic mean-rank degradation under dropping, t2vec's
//!   degradation slope beating a point-matching baseline, IVF recall
//!   above its seeded floor), so an *intentional* golden regeneration
//!   still cannot silently invert the science.
//!
//! Regenerate the golden file after a deliberate numeric change with:
//!
//! ```sh
//! T2VEC_UPDATE_GOLDEN=1 cargo test --release --test paper_experiments
//! ```
//!
//! The produced reports are always written to
//! `target/paper_experiments/report-{1,4}t.json` so CI can upload them
//! for diffing against the golden file on failure.

// The golden-regeneration notice prints directly: it must reach the
// developer regardless of any T2VEC_LOG filtering.
#![allow(clippy::disallowed_macros)]

use std::fs;
use std::path::{Path, PathBuf};
use t2vec_eval::harness::{self, ExpReport, HarnessConfig};
use t2vec_tensor::parallel;

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn artifact_dir() -> PathBuf {
    repo_root().join("target").join("paper_experiments")
}

#[test]
fn paper_experiments_match_golden_and_trends() {
    // Honour T2VEC_LOG / T2VEC_METRICS_OUT so CI can run this gate with
    // full observability on (the golden match below then doubles as the
    // determinism-invariance check); silent when neither is set.
    t2vec::obs::init_from_env("off");
    let cfg = HarnessConfig::tiny();

    parallel::set_threads(1);
    let report_1t = harness::run(&cfg);
    let json_1t = report_1t.to_canonical_json();

    parallel::set_threads(4);
    let report_4t = harness::run(&cfg);
    let json_4t = report_4t.to_canonical_json();
    parallel::set_threads(1);

    // Always record what this run produced, so a failing CI job can
    // upload the reports for diffing against the golden file.
    let dir = artifact_dir();
    fs::create_dir_all(&dir).expect("create artifact dir");
    fs::write(dir.join("report-1t.json"), format!("{json_1t}\n")).expect("write 1t report");
    fs::write(dir.join("report-4t.json"), format!("{json_4t}\n")).expect("write 4t report");

    // Tier 1a: thread-count invariance, byte for byte.
    assert_eq!(
        json_1t, json_4t,
        "report is not bitwise invariant across T2VEC_THREADS=1 and 4 \
         (see target/paper_experiments/report-*.json)"
    );

    // Tier 1b: bitwise match against the checked-in golden file.
    let golden_path = repo_root().join("GOLDEN_EXP.json");
    let produced = format!("{json_1t}\n");
    if std::env::var_os("T2VEC_UPDATE_GOLDEN").is_some() {
        fs::write(&golden_path, &produced).expect("rewrite GOLDEN_EXP.json");
        eprintln!("[paper_experiments] regenerated {}", golden_path.display());
    }
    let golden = fs::read_to_string(&golden_path).expect(
        "GOLDEN_EXP.json missing — regenerate with \
         `T2VEC_UPDATE_GOLDEN=1 cargo test --release --test paper_experiments`",
    );
    assert_eq!(
        produced, golden,
        "report differs from GOLDEN_EXP.json — if the numeric change is \
         intentional, regenerate per EXPERIMENTS.md and re-review the trends; \
         the produced report is at target/paper_experiments/report-1t.json"
    );

    // The golden file must itself be a parseable report (guards against
    // hand edits) that reproduces the canonical bytes.
    let parsed = ExpReport::from_json(golden.trim_end()).expect("golden file must parse");
    assert_eq!(format!("{}\n", parsed.to_canonical_json()), golden);

    // Tier 2: the paper's qualitative findings hold.
    harness::assert_trends(&report_1t);

    // Final metric totals into the (possibly installed) sinks.
    t2vec::obs::metrics::emit();
    t2vec::obs::flush();
}
