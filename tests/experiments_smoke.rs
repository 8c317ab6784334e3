//! Smoke tests of every experiment runner at tiny scale — each table
//! and figure of the paper must be regenerable without panicking and
//! must produce structurally valid output.

use t2vec_core::T2VecConfig;
use t2vec_eval::experiments::{self, Bench, CityKind, Scale};

fn bench() -> &'static Bench {
    static SHARED: std::sync::OnceLock<Bench> = std::sync::OnceLock::new();
    SHARED.get_or_init(|| Bench::prepare(CityKind::Tiny, Scale::tiny(), &T2VecConfig::tiny(), 5))
}

#[test]
fn table3_runner() {
    let (sizes, rows) = bench().exp1_db_size();
    assert_eq!(rows.len(), 6);
    assert!(sizes.iter().all(|&s| s > 0));
    let names: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
    assert_eq!(names, ["EDR", "LCSS", "CMS", "vRNN", "EDwP", "t2vec"]);
}

#[test]
fn table4_and_5_runners() {
    let rates = [0.3, 0.6];
    for rows in [true, false].map(|dropping| bench().mean_rank_vs_rate(&rates, dropping)) {
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert_eq!(row.values.len(), 2);
            assert!(row.values.iter().all(|v| *v >= 1.0));
        }
    }
}

#[test]
fn table6_runner() {
    for dropping in [true, false] {
        let rows = bench().cross_similarity(&[0.2], 5, dropping);
        assert_eq!(rows.len(), 3);
        let names: Vec<&str> = rows.iter().map(|r| r.method.as_str()).collect();
        assert_eq!(names, ["t2vec", "EDwP", "EDR"]);
    }
}

#[test]
fn fig5_runner() {
    let (k, rows) = bench()
        .knn_precision_multi(&[3], &[0.0, 0.4], false, 4, 15)
        .remove(0);
    assert_eq!(k, 3);
    assert_eq!(rows.len(), 6);
    for row in rows {
        assert!(
            row.values.iter().all(|v| (0.0..=1.0).contains(v)),
            "{row:?}"
        );
    }
}

#[test]
fn fig6_runner() {
    let points = experiments::scalability(bench(), &[15, 30], 5, 4);
    assert_eq!(points.len(), 6);
    for p in points {
        assert!(p.query_micros > 0.0);
        assert!(p.build_micros >= 0.0);
    }
}

#[test]
fn table7_runner_loss_ablation() {
    let mut config = T2VecConfig::tiny();
    config.max_epochs = 1;
    config.skipgram.epochs = 1;
    let scale = Scale::tiny();
    let rows = experiments::loss_ablation(CityKind::Tiny, &scale, &config, &[0.5]);
    assert_eq!(rows.len(), 4);
    let labels: Vec<&str> = rows.iter().map(|r| r.loss.as_str()).collect();
    assert_eq!(labels, ["L1", "L2", "L3", "L3+CL"]);
    for row in &rows {
        assert!(row.train_seconds > 0.0);
        assert_eq!(row.mean_ranks.len(), 1);
        assert!(row.mean_ranks[0] >= 1.0);
    }
}

#[test]
fn table8_and_9_and_fig7_runners() {
    let mut config = T2VecConfig::tiny();
    config.max_epochs = 1;
    config.skipgram.epochs = 1;
    let scale = Scale::tiny();

    let rows = experiments::cell_size_sweep(CityKind::Tiny, &scale, &config, &[150.0, 250.0]);
    assert_eq!(rows.len(), 2);
    assert!(
        rows[0].vocab_size > rows[1].vocab_size,
        "finer grid => more cells"
    );

    let rows = experiments::hidden_size_sweep(CityKind::Tiny, &scale, &config, &[8, 16]);
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].value, 8.0);

    let rows = experiments::training_size_sweep(CityKind::Tiny, &scale, &config, &[0.5, 1.0]);
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.mr_r1_b >= 1.0));
}
