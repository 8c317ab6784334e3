//! The benchmark's definition: workloads, metrics, bounds. `list --json`
//! prints `BENCHMARK.json` from these tables, so the checked-in file and
//! the program cannot drift apart.

use serde_json::Value;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 22;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_paper",
        why: "paper-shape training epochs: nn::fused backward and tensor GEMMs do all the work, serve does none",
    },
    Workload {
        name: "build_db",
        why: "operator path encode_batch, insert_vec, build_ann, snapshot, reopen: batched GEMM, k-means and the JSON snapshot/journal each own a stage; the batcher does nothing",
    },
    Workload {
        name: "serve_by_traj",
        why: "90/10 query/insert by raw trajectory on a 1500-trip exact store: admission wait plus 1-row encode dominate, the store does almost nothing",
    },
    Workload {
        name: "serve_by_vec",
        why: "80/20 query_vec/insert_vec on a journalled 20000 x 256-d store with the ANN tier: store-bound, no op touches the batcher or the encoder",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// What the slot holds on each workload, in `WORKLOADS` order.
    pub meaning: [&'static str; 4],
}

/// Every workload reports every end-to-end metric (the driver's
/// contract), so each is a role that every workload fills with the
/// number its user sees; `meaning` says which.
///
/// The bounds are what this host can resolve: its speed drifts by
/// 20 % over minutes (ten runs of one workload read quartile distances
/// of 0.06-0.19 of the median), so a tighter bound would reject
/// unchanged code. Finer claims need alternating pairs of runs
/// (`compare`).
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: [
            "dataset + Trainer::new",
            "dataset + Trainer::new + model snapshot",
            "dataset + model + encode_batch preload of 1500 trips",
            "dataset + model + 20000 journalled insert_vec + build_ann",
        ],
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: [
            "target tokens/s of Trainer::step_epoch, median of 3 epochs",
            "vectors/s made durable, indexed and recovered, median of build cycles",
            "closed-loop ops/s with 2 clients, median of 8 rounds after a warm-up round",
            "closed-loop ops/s with 2 clients, median of 8 rounds after a warm-up round",
        ],
    },
    EndToEnd {
        name: "primary_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: [
            "wall time of step_epoch per 1000 target tokens, median of epochs",
            "insert_vec latency during bulk load, median of the cycles' medians",
            "paced query latency from due time, median of the rounds' medians",
            "paced query_vec latency from due time, median of the rounds' medians",
        ],
    },
    EndToEnd {
        name: "primary_tail_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: [
            "slowest step_epoch, per 1000 target tokens",
            "insert_vec p95 of a build cycle, median of cycles",
            "paced query p90 of a round, median of 8 rounds",
            "paced query_vec p90 of a round, median of 8 rounds",
        ],
    },
    EndToEnd {
        name: "secondary_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        meaning: [
            "wall time of step_epoch per optimiser step, median of epochs",
            "query_vec on the recovered service, median of the cycles' medians",
            "paced insert latency from due time, median of the rounds' medians",
            "paced insert_vec latency from due time, median of the rounds' medians",
        ],
    },
    EndToEnd {
        name: "slo_met_share",
        unit: "share",
        better: Better::Higher,
        // Twice the ISSUE's 0.01: on this host's slower stretches
        // `serve_by_vec` reads 0.992-0.994 against 0.999-1.0, a quartile
        // distance of 0.007 over ten runs.
        bound: 0.02,
        meaning: [
            "share of epochs with a finite loss",
            "share of inserts and queries that succeed",
            "share of paced ops done within 20 ms of due time, median of 8 rounds",
            "share of paced ops done within 4 ms of due time, median of 8 rounds",
        ],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        // train_paper's peak is its largest batch's activations, and
        // ten seeds' corpora spread it by 0.07-0.10 of the median.
        bound: 0.25,
        meaning: ["VmHWM at exit"; 4],
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The public call timed or counter read, and the end-to-end metric
    /// it should move (README table).
    pub what: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        what,
    }
}

use Better::{Higher as H, Lower as L};

/// Layer prices (the same fixed-shape probe on every workload) followed
/// by the serving budget shares (0 on workloads that serve nothing).
pub const PER_LAYER: [PerLayer; 56] = [
    layer("host.nproc", "count", H, "available_parallelism; denominator for every rate"),
    layer("host.stream_gb_per_s", "GB/s", H, "sum over a 256 MB f32 buffer; roofline for the scan rows"),
    layer("trajgen.trips_per_s", "1/s", H, "DatasetBuilder::build -> setup_s"),
    layer("spatial.tokenize_us", "us", L, "Vocab::tokenize -> serve_by_traj primary_p50_us (predicted invisible), build_db work_per_s"),
    layer("spatial.tokens_per_traj", "count", L, "tokens per trip; sizes every encode"),
    layer("tensor.gemm_row1_gflops", "GFLOP/s", H, "Matrix::matmul_into [1x256].[256x384] -> serve_by_traj primary_p50_us"),
    layer("tensor.gemm_row64_gflops", "GFLOP/s", H, "matmul_into at 64 rows -> build_db work_per_s, setup_s of the serve workloads"),
    layer("tensor.gemm_train_gflops", "GFLOP/s", H, "matmul_into at 32 rows -> train_paper work_per_s"),
    layer("tensor.matmul_macs_per_query", "count", L, "tensor.matmul.macs delta per 1-row encode; constant under any re-layout"),
    layer("tensor.matmul_macs_per_token", "count", L, "tensor.matmul.macs delta per target token of one optimiser group"),
    layer("tensor.matmul_calls_per_token", "count", L, "tensor.matmul.calls delta per target token; falls when six GEMMs per step become two -> train_paper work_per_s"),
    layer("tensor.sq_dist_gb_per_s", "GB/s", H, "simd::sq_dist_f32 over 20000 rows -> serve_by_traj scan, re-rank"),
    layer("tensor.sq_dist_q8_gb_per_s", "GB/s", H, "simd::sq_dist_q8_f32 over 20000 code rows -> serve_by_vec primary_p50_us, work_per_s"),
    layer("tensor.adam_step_ms", "ms", L, "global-norm clip + Adam over params_mut() -> train_paper work_per_s (expected < 5 % of a step)"),
    layer("nn.infer.encode1_us", "us", L, "EncodeEngine::encode_batch(&[seq]) -> serve_by_traj primary/secondary_p50_us (~65 % share)"),
    layer("nn.infer.encode64_us_per_traj", "us", L, "engine on full 64-row buckets -> build_db work_per_s"),
    layer("nn.infer.bucket_rows_mean", "count", H, "nn.encode.bucket_rows histogram over the 64-row probe"),
    layer("nn.infer.arena_high_water_mb", "MB", L, "EncodeEngine::arena_high_water_bytes -> peak_rss_mb"),
    layer("nn.train.pairgen_ms", "ms", L, "generate_pairs + make_batches -> train_paper work_per_s (per-epoch term)"),
    layer("nn.train.grads_ms", "ms", L, "compute_group_grads on one group -> train_paper work_per_s (expected > 90 % of a step)"),
    layer("nn.train.reduce_ms", "ms", L, "reduce_grad_sets -> train_paper work_per_s"),
    layer("nn.train.tokens_per_step", "count", H, "target tokens in the probed optimiser group"),
    layer("core.trainer.setup_ms", "ms", L, "Trainer::new -> setup_s"),
    layer("core.model.encode_us", "us", L, "T2Vec::encode; equals tokenize_us + encode1_us within 10 % or the two encode paths diverged"),
    layer("core.kmeans_s", "s", L, "kmeans(1000 x 256, 64 cells, 25 iters) -> build_db work_per_s, serve_by_vec setup_s"),
    layer("core.kmeans_gmacs_per_s", "GMAC/s", H, "sample x k x dim x iterations / time, against the GEMM rows"),
    layer("serve.batcher.wait_us", "us", L, "lone AdmissionBatcher::encode minus encode1_us (= max_wait today) -> serve_by_traj primary/secondary_p50_us, work_per_s; no move elsewhere"),
    layer("serve.batcher.rows_per_flush", "count", H, "serve.batch.rows histogram under 2 closed-loop clients -> serve_by_traj work_per_s up, primary_p50_us up"),
    layer("serve.batcher.flush_timeout_share", "share", L, "flush_timeout / (flush_timeout + flush_full) under 2 closed-loop clients"),
    layer("serve.store.knn_exact_us", "us", L, "EmbeddingStore::knn over 1500 rows -> serve_by_traj primary_p50_us (~2 % share)"),
    layer("serve.store.knn_ann_us", "us", L, "EmbeddingStore::knn_ann_explained on the 5000-row probe store -> serve_by_vec primary_p50_us, primary_tail_us, work_per_s"),
    layer("serve.ann.cells_probed", "count", L, "QueryExplain.cells_probed; must stay equal unless recall is re-argued"),
    layer("serve.ann.candidates_per_query", "count", L, "QueryExplain.candidates"),
    layer("serve.ann.scan_bytes_per_query", "B", L, "candidates x scan_bytes_per_vector + re-rank rows x 1024 B, computed not sampled"),
    layer("serve.ann.scan_gb_per_s", "GB/s", H, "scan_bytes_per_query / knn_ann_us, against host.stream_gb_per_s"),
    layer("serve.ann.recall_at_10", "share", H, "tier answers against EmbeddingStore::knn on 100 probe queries"),
    layer("serve.store.insert_us", "us", L, "EmbeddingStore::insert with the tier active -> serve_by_vec secondary_p50_us, build_db primary_p50_us"),
    layer("serve.ann.upsert_us", "us", L, "AnnTier::upsert on a separately fitted tier -> serve_by_vec secondary_p50_us"),
    layer("serve.journal.append_us", "us", L, "Journal::append -> serve_by_vec secondary_p50_us, build_db primary_p50_us, serve_by_vec setup_s"),
    layer("serve.journal.bytes_per_append", "B", L, "serve.journal.bytes_written / appends counters"),
    layer("serve.ann.fit_s", "s", L, "AnnTier::fit on the probe store's sample -> build_db work_per_s, serve_by_vec setup_s"),
    layer("serve.ann.assign_s", "s", L, "build_ann minus fit -> build_db work_per_s, serve_by_vec setup_s"),
    layer("serve.snapshot.encode_s", "s", L, "snapshot_to_bytes of the probe store -> build_db work_per_s"),
    layer("serve.snapshot.write_s", "s", L, "SnapshotStore::save minus encode (write + fsync + rename) -> build_db work_per_s"),
    layer("serve.snapshot.bytes_per_vec", "B", L, "snapshot file bytes / entries (about 5.5 kB against 1 kB of f32)"),
    layer("serve.snapshot.decode_s", "s", L, "snapshot_from_bytes -> build_db work_per_s (recover)"),
    layer("serve.store.reinsert_s", "s", L, "EmbeddingStore::from_entries -> build_db work_per_s (recover)"),
    layer("serve.journal.replay_s", "s", L, "Journal::replay of a 500-record tail -> build_db work_per_s (recover)"),
    layer("loadgen.late_p99_us", "us", L, "send time minus due time of the paced generator on a no-op target; above 10 % of primary_p50_us the paced numbers are the generator's"),
    layer("serve.query.tokenize_share", "share", L, "child span / root span of the traced queries"),
    layer("serve.query.admission_encode_share", "share", L, "AdmissionBatcher::encode child / root"),
    layer("serve.query.knn_share", "share", L, "EmbeddingStore::knn_ann_explained child / root"),
    layer("serve.query.budget_residual_share", "share", L, "|root - sum of children| / root; must stay <= 0.10"),
    layer("serve.insert.store_share", "share", L, "EmbeddingStore::insert child / root of the traced inserts"),
    layer("serve.insert.budget_residual_share", "share", L, "|root - sum of children| / root; must stay <= 0.10"),
    layer("bench.trace_overhead_share", "share", L, "(traced root median - untraced 1-client median) / untraced"),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj(vec![
        (
            "command",
            Value::Array(command.iter().map(|c| s(c)).collect()),
        ),
        ("paths", Value::Array(vec![s("benchmark")])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `list`: every workload with its reason, every metric with unit,
/// direction and bound.
pub fn print_list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<14} {}", w.name, w.why);
    }
    println!(
        "end-to-end metrics (every workload reports each; bound = share of the parent's median):"
    );
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<6} {:<6} better, bound {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound
        );
        for (w, meaning) in WORKLOADS.iter().zip(m.meaning) {
            println!("      {:<14} {meaning}", w.name);
        }
    }
    println!("per-layer metrics (--trace 1 only, no bound):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<8} {:<6} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
}

/// Indented JSON for `BENCHMARK.json`, one metric or workload per line.
pub fn pretty(value: &Value) -> String {
    let Some(fields) = value.as_object() else {
        return serde_json::to_string(value).expect("a Value always serialises");
    };
    let line = |v: &Value| serde_json::to_string(v).expect("a Value always serialises");
    let mut out = String::from("{\n");
    for (i, (key, field)) in fields.iter().enumerate() {
        out.push_str(&format!("  {}: ", line(&s(key))));
        match field.as_array() {
            Some(items) if items.iter().any(|item| item.as_object().is_some()) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", line(item)));
                }
                out.push_str("  ]");
            }
            _ => out.push_str(&line(field)),
        }
        out.push_str(if i + 1 < fields.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}
