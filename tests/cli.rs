//! End-to-end test of the `t2vec` command-line tool: generate → stats →
//! train → encode → knn, all through the real binary.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_t2vec")
}

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("t2vec-cli-{}-{name}", std::process::id()));
    p.to_string_lossy().into_owned()
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_cli_pipeline() {
    let data = tmp("trips.csv");
    let model = tmp("model.json");
    let vectors = tmp("vectors.json");

    // generate
    let (ok, stdout, stderr) = run(&[
        "generate",
        "--city",
        "tiny",
        "--trips",
        "60",
        "--min-len",
        "6",
        "--out",
        &data,
        "--seed",
        "3",
    ]);
    assert!(ok, "generate failed: {stderr}");
    assert!(stdout.contains("wrote 60 trips"), "{stdout}");

    // stats
    let (ok, stdout, _) = run(&["stats", "--data", &data]);
    assert!(ok);
    assert!(stdout.contains("#trips: 60"));

    // train
    let (ok, stdout, stderr) = run(&[
        "train", "--data", &data, "--preset", "tiny", "--out", &model, "--seed", "3",
    ]);
    assert!(ok, "train failed: {stderr}");
    assert!(stdout.contains("trained on"), "{stdout}");
    assert!(std::path::Path::new(&model).exists());

    // encode
    let (ok, stdout, stderr) = run(&[
        "encode", "--model", &model, "--data", &data, "--out", &vectors,
    ]);
    assert!(ok, "encode failed: {stderr}");
    assert!(stdout.contains("encoded 60 trajectories"));
    let parsed: Vec<Vec<f32>> =
        serde_json::from_reader(std::fs::File::open(&vectors).unwrap()).unwrap();
    assert_eq!(parsed.len(), 60);

    // knn (db == queries: every query's best hit is itself at distance ~0)
    let (ok, stdout, stderr) = run(&[
        "knn", "--model", &model, "--db", &data, "--query", &data, "--k", "3",
    ]);
    assert!(ok, "knn failed: {stderr}");
    let first_line = stdout.lines().next().unwrap();
    assert!(
        first_line.starts_with("query 0: 0:0.000"),
        "self should rank first: {first_line}"
    );

    // knn through the IVF index: a query's own cell is always the
    // nearest one probed, so it still finds itself.
    let (ok, stdout, stderr) = run(&[
        "knn", "--model", &model, "--db", &data, "--query", &data, "--k", "3", "--ann",
    ]);
    assert!(ok, "knn --ann failed: {stderr}");
    assert!(stdout.lines().count() == 60);
    let first_line = stdout.lines().next().unwrap();
    assert!(
        first_line.starts_with("query 0: 0:0.000"),
        "self should rank first under --ann: {first_line}"
    );

    for f in [&data, &model, &vectors] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn cli_train_checkpoints_and_resumes() {
    let data = tmp("ckpt-trips.csv");
    let model_a = tmp("ckpt-model-a.json");
    let model_b = tmp("ckpt-model-b.json");
    let dir = tmp("ckpt-dir");
    std::fs::remove_dir_all(&dir).ok();

    let (ok, _, stderr) = run(&[
        "generate",
        "--city",
        "tiny",
        "--trips",
        "60",
        "--min-len",
        "6",
        "--out",
        &data,
        "--seed",
        "5",
    ]);
    assert!(ok, "generate failed: {stderr}");

    // Train with per-epoch checkpointing.
    let (ok, _, stderr) = run(&[
        "train",
        "--data",
        &data,
        "--preset",
        "tiny",
        "--out",
        &model_a,
        "--seed",
        "5",
        "--checkpoint-dir",
        &dir,
        "--keep",
        "2",
    ]);
    assert!(ok, "train failed: {stderr}");
    assert!(stderr.contains("checkpoint:"), "{stderr}");
    assert!(std::path::Path::new(&dir).join("LATEST").exists());

    // Resume the (already finished) run: must report the resume and
    // write a byte-identical model.
    let (ok, _, stderr) = run(&[
        "train",
        "--data",
        &data,
        "--preset",
        "tiny",
        "--out",
        &model_b,
        "--seed",
        "5",
        "--checkpoint-dir",
        &dir,
        "--resume",
    ]);
    assert!(ok, "resume failed: {stderr}");
    assert!(stderr.contains("resumed from"), "{stderr}");
    let a = std::fs::read(&model_a).unwrap();
    let b = std::fs::read(&model_b).unwrap();
    assert_eq!(a, b, "resumed model file must be byte-identical");

    // --resume without a checkpoint directory is an error.
    let (ok, _, stderr) = run(&[
        "train", "--data", &data, "--preset", "tiny", "--out", &model_b, "--resume",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--resume needs --checkpoint-dir"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
    for f in [&data, &model_a, &model_b] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn cli_train_metrics_out_writes_parseable_jsonl() {
    let data = tmp("obs-trips.csv");
    let model = tmp("obs-model.json");
    let metrics = tmp("obs-metrics.jsonl");
    let dir = tmp("obs-ckpt-dir");
    std::fs::remove_dir_all(&dir).ok();

    let (ok, _, stderr) = run(&[
        "generate",
        "--city",
        "tiny",
        "--trips",
        "60",
        "--min-len",
        "6",
        "--out",
        &data,
        "--seed",
        "9",
    ]);
    assert!(ok, "generate failed: {stderr}");

    // Train with checkpoints, a metrics file and the heartbeat on.
    let (ok, _, stderr) = run(&[
        "train",
        "--data",
        &data,
        "--preset",
        "tiny",
        "--out",
        &model,
        "--seed",
        "9",
        "--checkpoint-dir",
        &dir,
        "--metrics-out",
        &metrics,
    ]);
    assert!(ok, "train failed: {stderr}");
    // Heartbeat: one line per epoch on stderr, with loss + throughput.
    assert!(
        stderr.contains("cli.train") && stderr.contains("tok/s"),
        "missing training heartbeat: {stderr}"
    );

    // The metrics stream parses line by line and contains the epoch
    // spans, matmul throughput counters and checkpoint I/O events the
    // observability contract promises.
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    let mut saw_epoch_span = false;
    let mut saw_matmul_macs = false;
    let mut saw_ckpt_save = false;
    for (i, line) in jsonl.lines().enumerate() {
        let v: serde_json::Value = serde_json::from_str(line)
            .unwrap_or_else(|e| panic!("metrics line {} is not JSON: {e}\n{line}", i + 1));
        let field = |key: &str| v.get(key).map(|val| format!("{val:?}")).unwrap_or_default();
        let kind = field("kind");
        let msg = field("msg");
        let target = field("target");
        if kind.contains("span_exit") && msg.contains("epoch") && target.contains("core.trainer") {
            saw_epoch_span = true;
        }
        if kind.contains("metric") && msg.contains("tensor.matmul.macs") {
            saw_matmul_macs = true;
        }
        if target.contains("core.checkpoint") && msg.contains("checkpoint saved") {
            saw_ckpt_save = true;
        }
    }
    assert!(saw_epoch_span, "no trainer epoch span in metrics stream");
    assert!(saw_matmul_macs, "no matmul MAC counter in metrics stream");
    assert!(saw_ckpt_save, "no checkpoint save event in metrics stream");

    // --quiet suppresses the heartbeat but not the result line.
    let (ok, stdout, stderr) = run(&[
        "train", "--data", &data, "--preset", "tiny", "--out", &model, "--seed", "9", "--quiet",
    ]);
    assert!(ok, "quiet train failed: {stderr}");
    assert!(
        !stderr.contains("tok/s"),
        "--quiet must suppress the heartbeat: {stderr}"
    );
    assert!(stdout.contains("trained on"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
    for f in [&data, &model, &metrics] {
        std::fs::remove_file(f).ok();
    }
}

#[test]
fn cli_reports_usage_on_no_args() {
    let (ok, _, stderr) = run(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage:"));
}

#[test]
fn cli_rejects_unknown_command_and_missing_flags() {
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run(&["train", "--data"]);
    assert!(!ok);
    assert!(stderr.contains("--data needs a value"));

    let (ok, _, stderr) = run(&["train"]);
    assert!(!ok);
    assert!(stderr.contains("missing --data"));
}

#[test]
fn cli_reports_file_errors_cleanly() {
    let (ok, _, stderr) = run(&["stats", "--data", "/nonexistent/file.csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot open"));
}
