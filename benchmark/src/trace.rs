//! The traced run: where every per-layer number comes from.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each layer's public functions, kept in memory and written to
//! `.bench_out/trace-<workload>.json` when the run ends. Two parts:
//!
//! * **layer prices** — the same fixed-shape probes on every workload
//!   (a GEMM at three row counts, a 1-row encode, a 5 000-row store
//!   with its tier, one optimiser group, ...), fed with this seed's
//!   trips and vectors;
//! * **the serving budget** — on the serving workloads, 12 s of the
//!   paced schedule's requests replayed single-threaded, taking turns: a root span around the
//!   real `SimilarityService` call, or the request taken apart into
//!   child spans around the calls the service makes. Roots and parts
//!   are different requests of the same traffic: re-running the same
//!   request right after its root finds its posting lists in cache and
//!   reads 20 % cheaper on `serve_by_vec`. Spans inside the program are
//!   a later change.

use crate::inputs::{self, Op, OpMix, World, K};
use crate::load::{self, Tally, Target};
use crate::report::{micros, timed, Report, Scratch};
use crate::stats::{median, percentile};
use crate::workloads::{self, ServeStage};
use serde_json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2vec_core::ann::ScalarQuantizer;
use t2vec_core::kmeans::kmeans;
use t2vec_core::model::generate_pairs;
use t2vec_core::{T2Vec, Trainer};
use t2vec_nn::batch::make_batches;
use t2vec_nn::param::{apply_grad_mats, reduce_grad_sets};
use t2vec_nn::train::compute_group_grads;
use t2vec_nn::EncodeEngine;
use t2vec_obs::metrics::{counter, histogram};
use t2vec_serve::snapshot::{snapshot_from_bytes, snapshot_to_bytes, SNAP_FORMAT_VERSION};
use t2vec_serve::{
    AdmissionBatcher, AnnConfig, AnnTier, BatcherConfig, EmbeddingStore, Entry, Journal,
    SnapshotStore, StoreSnapshot,
};
use t2vec_spatial::point::Point;
use t2vec_spatial::vocab::{NeighborTable, Token};
use t2vec_tensor::opt::Adam;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::{simd, Matrix};
use t2vec_trajgen::dataset::Dataset;

/// One recorded span. `parent` indexes the span list; spans of one
/// replayed request share `request` (0 for the layer probes).
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder; single-threaded, like the traced replay.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span; [`Tracer::close`] ends it.
    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`; returns its duration.
    fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end_ns = self.t0.elapsed().as_nanos() as u64;
        Duration::from_nanos(span.end_ns - span.start_ns)
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open(name, parent, request);
        let r = f();
        (r, self.close(id))
    }

    /// A root span of a layer probe.
    fn probe<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.span(name, None, 0, f)
    }

    /// `reps` probe spans of `f`; the median duration in seconds.
    fn median_secs(&mut self, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
        let times: Vec<f64> = (0..reps)
            .map(|_| self.probe(name, &mut f).1.as_secs_f64())
            .collect();
        median(&times)
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request".into(), Value::UInt(s.request)),
                ])
            })
            .collect();
        let text = serde_json::to_string(&Value::Array(spans)).expect("a Value always serialises");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Shape of the store the serve-layer probes run on: a quarter of
/// `serve_by_vec`'s rows, its vector width, its tier settings.
const PROBE_N: usize = 5_000;
const PROBE_EXACT_N: usize = 1_500;
const PROBE_TAIL: usize = 500;
const PROBE_QUERIES: usize = 100;
const PROBE_TRIPS: usize = 320;
const KMEANS_SAMPLE: usize = 1_000;
const KMEANS_K: usize = 64;
const KMEANS_ITERS: usize = 25;
const STREAM_FLOATS: usize = 64 << 20;

fn probe_ann_config() -> AnnConfig {
    AnnConfig {
        train_sample: 1_000,
        ..AnnConfig::new(71)
    }
}

/// What every layer probe draws on.
struct Inputs<'a> {
    seed: u64,
    model: &'a T2Vec,
    dataset: &'a Dataset,
    trips: &'a [Vec<Point>],
}

fn host_probes(t: &mut Tracer, r: &mut Report) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    r.metric("host.nproc", nproc as f64);
    let buffer = vec![1.0f32; STREAM_FLOATS];
    let secs = t.median_secs("host.stream", 3, || {
        // 16 independent lanes, so the sum vectorises and the loop is
        // bound by memory, not by the add latency.
        let mut lanes = [0.0f32; 16];
        for chunk in buffer.chunks_exact(16) {
            for (lane, x) in lanes.iter_mut().zip(chunk) {
                *lane += x;
            }
        }
        std::hint::black_box(lanes);
    });
    r.metric(
        "host.stream_gb_per_s",
        (STREAM_FLOATS * 4) as f64 / secs / 1e9,
    );
}

fn gemm_gflops(t: &mut Tracer, name: &'static str, rows: usize) -> f64 {
    let (k, n) = (256, 384);
    let mut rng = det_rng(rows as u64);
    let a = t2vec_tensor::init::uniform(rows, k, 1.0, &mut rng);
    let b = t2vec_tensor::init::uniform(k, n, 1.0, &mut rng);
    let mut out = Matrix::zeros(rows, n);
    // About 50 MFLOP a repetition at every row count.
    let calls = (128 / rows).max(1) * 2;
    let secs = t.median_secs(name, 9, || {
        for _ in 0..calls {
            a.matmul_into(std::hint::black_box(&b), &mut out);
        }
        std::hint::black_box(&out);
    });
    (2 * rows * k * n * calls) as f64 / secs / 1e9
}

fn tensor_probes(t: &mut Tracer, r: &mut Report, vectors: &[Vec<f32>]) {
    r.metric(
        "tensor.gemm_row1_gflops",
        gemm_gflops(t, "tensor.gemm_row1", 1),
    );
    r.metric(
        "tensor.gemm_row64_gflops",
        gemm_gflops(t, "tensor.gemm_row64", 64),
    );
    r.metric(
        "tensor.gemm_train_gflops",
        gemm_gflops(t, "tensor.gemm_train", 32),
    );

    let rows = workloads::VEC_N;
    let dim = vectors[0].len();
    let flat: Vec<f32> = vectors
        .iter()
        .cycle()
        .take(rows)
        .flatten()
        .copied()
        .collect();
    let query = &vectors[1];
    let secs = t.median_secs("tensor.sq_dist", 9, || {
        let sum: f32 = flat
            .chunks_exact(dim)
            .map(|row| simd::sq_dist_f32(row, query))
            .sum();
        std::hint::black_box(sum);
    });
    r.metric(
        "tensor.sq_dist_gb_per_s",
        (rows * dim * 4) as f64 / secs / 1e9,
    );

    let quantizer = ScalarQuantizer::train(vectors);
    let mut codes = Vec::with_capacity(rows * dim);
    for v in vectors.iter().cycle().take(rows) {
        quantizer.encode_into(v, &mut codes);
    }
    let secs = t.median_secs("tensor.sq_dist_q8", 9, || {
        let sum: f32 = codes
            .chunks_exact(dim)
            .map(|row| simd::sq_dist_q8_f32(query, row, quantizer.scale(), quantizer.bias()))
            .sum();
        std::hint::black_box(sum);
    });
    r.metric(
        "tensor.sq_dist_q8_gb_per_s",
        (rows * dim) as f64 / secs / 1e9,
    );
}

fn trajgen_probe(t: &mut Tracer, r: &mut Report, seed: u64) {
    let mut world = World::new(seed ^ 0x5eed);
    let secs = t.median_secs("trajgen.dataset_build", 3, || {
        std::hint::black_box(world.dataset(500));
    });
    r.metric("trajgen.trips_per_s", 500.0 / secs);
}

/// One optimiser group taken apart as `run_epoch` runs it:
/// `generate_pairs`/`make_batches` -> `compute_group_grads` ->
/// `reduce_grad_sets` -> clip + Adam.
fn train_probes(t: &mut Tracer, r: &mut Report, inp: &Inputs) -> Result<(), String> {
    let config = inputs::paper_config();
    let (train, val) = (&inp.dataset.train, &inp.dataset.val);
    let setup = t.median_secs("core.trainer.setup", 3, || {
        std::hint::black_box(Trainer::new(&config, train, val, inp.seed).is_ok());
    });
    r.metric("core.trainer.setup_ms", setup * 1e3);

    let vocab = inp.model.vocab();
    let table = NeighborTable::build(
        vocab,
        config.k_nearest.min(vocab.num_hot_cells()),
        config.theta,
    );
    let mut batches = Vec::new();
    let pairgen = t.median_secs("nn.train.pairgen", 3, || {
        let mut rng = det_rng(inp.seed);
        let pairs = generate_pairs(&config, train, vocab, &mut rng);
        batches = make_batches(&pairs, config.batch_size, &mut rng);
    });
    r.metric("nn.train.pairgen_ms", pairgen * 1e3);
    // The fullest batches: what most optimiser steps look like.
    batches.sort_by_key(|b| std::cmp::Reverse(b.num_target_tokens));
    batches.truncate(config.grad_accum);
    if batches.is_empty() {
        return Err("the training probe made no batch".into());
    }
    let tokens: usize = batches.iter().map(|b| b.num_target_tokens).sum();
    let seeds: Vec<u64> = (0..batches.len() as u64).map(|i| inp.seed + i).collect();
    let mut model = inp.model.seq2seq().clone();

    let mut sets = Vec::new();
    let macs0 = counter("tensor.matmul.macs").get();
    let calls0 = counter("tensor.matmul.calls").get();
    let reps = 3;
    let grads = t.median_secs("nn.train.grads", reps, || {
        sets = compute_group_grads(&model, &batches, config.loss, &table, &seeds);
    });
    let per_token = (reps * tokens) as f64;
    r.metric(
        "tensor.matmul_macs_per_token",
        (counter("tensor.matmul.macs").get() - macs0) as f64 / per_token,
    );
    r.metric(
        "tensor.matmul_calls_per_token",
        (counter("tensor.matmul.calls").get() - calls0) as f64 / per_token,
    );
    r.metric("nn.train.grads_ms", grads * 1e3);
    r.metric("nn.train.tokens_per_step", tokens as f64);

    let mut reduced = reduce_grad_sets(&sets);
    let reduce = t.median_secs("nn.train.reduce", 3, || {
        reduced = reduce_grad_sets(&sets);
    });
    r.metric("nn.train.reduce_ms", reduce * 1e3);
    let adam = Adam::with_lr(config.learning_rate);
    let step = t.median_secs("tensor.adam_step", 3, || {
        let mut grads = reduced.grads.clone();
        apply_grad_mats(&mut model.params_mut(), &mut grads, &adam, config.grad_clip);
    });
    r.metric("tensor.adam_step_ms", step * 1e3);
    Ok(())
}

fn per_call_us(t: &mut Tracer, name: &'static str, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let times: Vec<f64> = (0..calls)
        .map(|i| micros(t.probe(name, || f(i)).1))
        .collect();
    median(&times)
}

/// Tokeniser, engine, library encode and the admission batcher, all on
/// the same trips.
fn encode_probes(t: &mut Tracer, r: &mut Report, inp: &Inputs) {
    let vocab = inp.model.vocab();
    let trips = inp.trips;
    let tokenize = per_call_us(t, "spatial.tokenize", trips.len(), |i| {
        std::hint::black_box(vocab.tokenize(&trips[i]));
    });
    r.metric("spatial.tokenize_us", tokenize);
    let tokenised: Vec<Vec<Token>> = trips.iter().map(|p| vocab.tokenize(p)).collect();
    let total: usize = tokenised.iter().map(Vec::len).sum();
    r.metric(
        "spatial.tokens_per_traj",
        total as f64 / tokenised.len() as f64,
    );

    let mut engine = EncodeEngine::new(inp.model.seq2seq().packed_encoder());
    let lone = PROBE_QUERIES.min(tokenised.len());
    let macs0 = counter("tensor.matmul.macs").get();
    let encode1 = per_call_us(t, "nn.infer.encode1", lone, |i| {
        std::hint::black_box(engine.encode_batch(&[tokenised[i].as_slice()]));
    });
    let macs = counter("tensor.matmul.macs").get() - macs0;
    r.metric("nn.infer.encode1_us", encode1);
    r.metric("tensor.matmul_macs_per_query", macs as f64 / lone as f64);

    let full = tokenised.len() / 64 * 64;
    let seqs: Vec<&[Token]> = tokenised[..full].iter().map(Vec::as_slice).collect();
    let rows = histogram("nn.encode.bucket_rows");
    let (rows_count, rows_sum) = (rows.count(), rows.sum());
    let secs = t.median_secs("nn.infer.encode64", 3, || {
        std::hint::black_box(engine.encode_batch(&seqs));
    });
    r.metric("nn.infer.encode64_us_per_traj", secs * 1e6 / full as f64);
    r.metric(
        "nn.infer.bucket_rows_mean",
        (rows.sum() - rows_sum) as f64 / (rows.count() - rows_count).max(1) as f64,
    );
    r.metric(
        "nn.infer.arena_high_water_mb",
        engine.arena_high_water_bytes() as f64 / (1 << 20) as f64,
    );

    let library = per_call_us(t, "core.model.encode", lone, |i| {
        std::hint::black_box(inp.model.encode(&trips[i]));
    });
    r.metric("core.model.encode_us", library);

    let batcher = AdmissionBatcher::new(
        inp.model.seq2seq().packed_encoder().into_owned(),
        BatcherConfig::default(),
    );
    // The same sequence through the bare engine and through the batcher,
    // back to back: the difference is what admission adds.
    let waits: Vec<f64> = (0..50)
        .map(|i| {
            let seq = &tokenised[i];
            let ((), bare) = t.probe("nn.infer.encode1", || {
                std::hint::black_box(engine.encode_batch(&[seq.as_slice()]));
            });
            let ((), admitted) = t.probe("serve.batcher.encode", || {
                std::hint::black_box(batcher.encode(seq.clone()));
            });
            micros(admitted) - micros(bare)
        })
        .collect();
    r.metric("serve.batcher.wait_us", median(&waits));

    // Two closed-loop callers on one batcher: how full its flushes get.
    let flushes = histogram("serve.batch.rows");
    let (flush_count, flush_rows) = (flushes.count(), flushes.sum());
    let (timeout, full_flush) = (
        counter("serve.batch.flush_timeout").get(),
        counter("serve.batch.flush_full").get(),
    );
    t.probe("serve.batcher.two_callers", || {
        std::thread::scope(|scope| {
            for half in tokenised[..120].chunks(60) {
                let batcher = &batcher;
                scope.spawn(move || {
                    for tokens in half {
                        std::hint::black_box(batcher.encode(tokens.clone()));
                    }
                });
            }
        });
    });
    let flush_count = (flushes.count() - flush_count).max(1);
    r.metric(
        "serve.batcher.rows_per_flush",
        (flushes.sum() - flush_rows) as f64 / flush_count as f64,
    );
    let timeout = counter("serve.batch.flush_timeout").get() - timeout;
    let full_flush = counter("serve.batch.flush_full").get() - full_flush;
    r.metric(
        "serve.batcher.flush_timeout_share",
        timeout as f64 / (timeout + full_flush).max(1) as f64,
    );
}

fn kmeans_probe(t: &mut Tracer, r: &mut Report, vectors: &[Vec<f32>], seed: u64) {
    let sample = &vectors[..KMEANS_SAMPLE];
    let (fit, took) = t.probe("core.kmeans", || {
        kmeans(sample, KMEANS_K, KMEANS_ITERS, &mut det_rng(seed))
    });
    let secs = took.as_secs_f64();
    r.metric("core.kmeans_s", secs);
    let macs = KMEANS_SAMPLE * KMEANS_K * sample[0].len() * fit.iterations;
    r.metric("core.kmeans_gmacs_per_s", macs as f64 / secs / 1e9);
}

/// The store, tier, journal and snapshot layers on a 5 000-row store.
fn store_probes(
    t: &mut Tracer,
    r: &mut Report,
    vectors: &[Vec<f32>],
    scratch: &Scratch,
) -> Result<(), String> {
    let err = |e: t2vec_core::T2VecError| e.to_string();
    let dim = vectors[0].len();
    let (stored, rest) = vectors.split_at(PROBE_N);
    let (tail, queries) = rest.split_at(PROBE_TAIL);
    let queries = &queries[..PROBE_QUERIES];
    let config = probe_ann_config();

    let exact = EmbeddingStore::new(dim, 8);
    for (id, v) in stored[..PROBE_EXACT_N].iter().enumerate() {
        exact.insert(id as u64, v);
    }
    let knn_exact = per_call_us(t, "serve.store.knn_exact", queries.len(), |i| {
        std::hint::black_box(exact.knn(&queries[i], K));
    });
    r.metric("serve.store.knn_exact_us", knn_exact);

    let store = EmbeddingStore::new(dim, 8);
    for (id, v) in stored.iter().enumerate() {
        store.insert(id as u64, v);
    }
    // `EmbeddingStore::build_ann` is fit then one upsert per entry;
    // timing the two on a tier of our own prices them separately.
    let stride = PROBE_N.div_ceil(config.train_sample);
    let training: Vec<Vec<f32>> = stored.iter().step_by(stride).cloned().collect();
    let (tier, took) = t.probe("serve.ann.fit", || AnnTier::fit(&training, config, dim));
    r.metric("serve.ann.fit_s", took.as_secs_f64());
    let ((), took) = t.probe("serve.ann.assign", || {
        for (id, v) in stored.iter().enumerate() {
            tier.upsert(id as u64, v);
        }
    });
    r.metric("serve.ann.assign_s", took.as_secs_f64());
    let upsert = per_call_us(t, "serve.ann.upsert", tail.len(), |i| {
        tier.upsert((PROBE_N + i) as u64, &tail[i]);
    });
    r.metric("serve.ann.upsert_us", upsert);
    if !store.restore_ann(&tier.state()) {
        return Err("the probe store took no tier".into());
    }

    let mut explains = Vec::with_capacity(queries.len());
    let mut recall = 0.0;
    let knn_ann = per_call_us(t, "serve.store.knn_ann", queries.len(), |i| {
        explains.push(store.knn_ann_explained(&queries[i], K));
    });
    for (q, (answer, _)) in queries.iter().zip(&explains) {
        recall += workloads::recall(&store.knn(q, K), answer);
    }
    let mean = |f: fn(&t2vec_serve::QueryExplain) -> usize| {
        explains.iter().map(|(_, e)| f(e)).sum::<usize>() as f64 / explains.len() as f64
    };
    let scan_bytes = mean(|e| e.candidates) * tier.scan_bytes_per_vector() as f64
        + mean(|e| e.rerank) * (dim * 4) as f64;
    r.metric("serve.store.knn_ann_us", knn_ann);
    r.metric("serve.ann.cells_probed", mean(|e| e.cells_probed));
    r.metric("serve.ann.candidates_per_query", mean(|e| e.candidates));
    r.metric("serve.ann.scan_bytes_per_query", scan_bytes);
    r.metric(
        "serve.ann.scan_gb_per_s",
        scan_bytes / (knn_ann * 1e-6) / 1e9,
    );
    r.metric("serve.ann.recall_at_10", recall / queries.len() as f64);

    let insert = per_call_us(t, "serve.store.insert", tail.len(), |i| {
        store.insert((PROBE_N + i) as u64, &tail[i]);
    });
    r.metric("serve.store.insert_us", insert);

    let dir = scratch.fresh_dir("probe").map_err(|e| e.to_string())?;
    let journal_path = dir.join("journal.log");
    let mut journal = Journal::open(&journal_path).map_err(err)?;
    let bytes0 = counter("serve.journal.bytes_written").get();
    let mut failed = 0;
    let append = per_call_us(t, "serve.journal.append", tail.len(), |i| {
        let entry = Entry {
            id: (PROBE_N + i) as u64,
            vec: tail[i].clone(),
        };
        failed += usize::from(journal.append(&entry).is_err());
    });
    if failed > 0 {
        return Err(format!("{failed} journal appends failed"));
    }
    r.metric("serve.journal.append_us", append);
    r.metric(
        "serve.journal.bytes_per_append",
        (counter("serve.journal.bytes_written").get() - bytes0) as f64 / tail.len() as f64,
    );

    let snapshot = StoreSnapshot {
        version: SNAP_FORMAT_VERSION,
        seq: 1,
        dim,
        entries: store.dump_sorted(),
        ann: store.ann_state(),
    };
    let (bytes, encode) = t.probe("serve.snapshot.encode", || snapshot_to_bytes(&snapshot));
    let bytes = bytes.map_err(err)?;
    let snapshots = SnapshotStore::open(&dir, 3).map_err(err)?;
    let (saved, save) = t.probe("serve.snapshot.save", || snapshots.save(&snapshot));
    saved.map_err(err)?;
    r.metric("serve.snapshot.encode_s", encode.as_secs_f64());
    r.metric(
        "serve.snapshot.write_s",
        save.saturating_sub(encode).as_secs_f64(),
    );
    r.metric(
        "serve.snapshot.bytes_per_vec",
        bytes.len() as f64 / snapshot.entries.len() as f64,
    );
    let (decoded, took) = t.probe("serve.snapshot.decode", || snapshot_from_bytes(&bytes));
    let decoded = decoded.map_err(err)?;
    r.metric("serve.snapshot.decode_s", took.as_secs_f64());
    let (rebuilt, took) = t.probe("serve.store.reinsert", || {
        EmbeddingStore::from_entries(dim, 8, decoded.entries)
    });
    r.metric("serve.store.reinsert_s", took.as_secs_f64());
    let ((replayed, warnings), took) =
        t.probe("serve.journal.replay", || Journal::replay(&journal_path));
    r.metric("serve.journal.replay_s", took.as_secs_f64());
    r.check(
        "probe store survives snapshot decode and journal replay",
        rebuilt.canonical_bytes() == store.canonical_bytes()
            && replayed.len() == tail.len()
            && warnings.is_empty(),
    );
    Ok(())
}

/// The load generator alone: its paced loop against a target that does
/// nothing.
fn loadgen_probe(t: &mut Tracer, r: &mut Report) {
    struct Nothing;
    impl Target for Nothing {
        fn exec(&self, _: Op) -> Result<(), String> {
            Ok(())
        }
    }
    let ops = vec![Op::Query(0); 500];
    let (samples, _) = t.probe("loadgen.paced_noop", || load::paced(&Nothing, &ops, 500.0));
    let late: Vec<f64> = samples.iter().map(|s| micros(s.late)).collect();
    r.metric("loadgen.late_p99_us", percentile(&late, 0.99));
}

/// The replay covers this many seconds of the workload's paced schedule.
const BUDGET_SCHEDULE_SECS: f64 = 12.0;

const BUDGET_SHARES: [&str; 7] = [
    "serve.query.tokenize_share",
    "serve.query.admission_encode_share",
    "serve.query.knn_share",
    "serve.query.budget_residual_share",
    "serve.insert.store_share",
    "serve.insert.budget_residual_share",
    "bench.trace_overhead_share",
];

/// Root and child durations of the replayed requests of one kind,
/// microseconds. Roots and children are different requests of the same
/// traffic, so a budget is taken over their medians.
#[derive(Default)]
struct Budget {
    root: Vec<f64>,
    tokenize: Vec<f64>,
    encode: Vec<f64>,
    /// `knn` for queries, store insert for inserts.
    store: Vec<f64>,
    journal: Vec<f64>,
}

impl Budget {
    fn share(&self, part: &[f64]) -> f64 {
        if part.is_empty() {
            0.0
        } else {
            median(part) / median(&self.root)
        }
    }

    /// What the child spans leave unaccounted for, as a share of the
    /// root.
    fn residual_share(&self) -> f64 {
        let children: f64 = [&self.tokenize, &self.encode, &self.store, &self.journal]
            .iter()
            .map(|part| self.share(part))
            .sum();
        (1.0 - children).abs()
    }
}

/// The serving budget of one workload (see the module docs). Requests
/// of the same traffic take turns: a root span around the real service
/// call, one taken apart into child spans, one without any span, one
/// more taken apart — so the service's encoder weights and the
/// benchmark's own copy are used equally often and stay equally warm.
fn serve_budget(
    t: &mut Tracer,
    r: &mut Report,
    stage: &mut ServeStage,
    scratch: &Scratch,
) -> Result<(), String> {
    let by_vec = stage.trips.is_empty();
    // Half queries, half inserts whatever the workload's mix: a single
    // client replays them one at a time, and both budgets need samples.
    let mix = OpMix {
        read_fraction: 0.5,
        ..stage.mix.clone()
    };
    let requests = (stage.shape.rate * BUDGET_SCHEDULE_SECS) as usize;
    let ops = mix.ops(requests, 1 << 40, stage.world.rng());
    let stage = &*stage;
    let service = &stage.service;
    let store = service.store();
    let vocab = stage.model.vocab();
    let batcher = AdmissionBatcher::new(
        stage.model.seq2seq().packed_encoder().into_owned(),
        BatcherConfig::default(),
    );
    let dir = scratch.fresh_dir("budget").map_err(|e| e.to_string())?;
    let mut journal = Journal::open(dir.join("journal.log")).map_err(|e| e.to_string())?;

    let mut queries = Budget::default();
    let mut inserts = Budget::default();
    let mut plain_query_us = Vec::new();
    let mut traced = Tally::default();
    let mut plain = Tally::default();
    for (n, &op) in ops.iter().enumerate() {
        let request = n as u64 + 1;
        let (root_name, parts_name, budget) = match op {
            Op::Query(_) => ("request.query", "parts.query", &mut queries),
            Op::Insert(..) => ("request.insert", "parts.insert", &mut inserts),
        };
        match n % 4 {
            0 => {
                let (outcome, took) = t.span(root_name, None, request, || stage.exec(op));
                traced.attempted += 1;
                match outcome {
                    Ok(()) => budget.root.push(micros(took)),
                    Err(_) => traced.failed += 1,
                }
            }
            1 | 3 => {
                let parent = t.open(parts_name, None, request);
                let (Op::Query(payload) | Op::Insert(_, payload)) = op;
                let vector = if by_vec {
                    stage.vecs[payload].clone()
                } else {
                    let trip = &stage.trips[payload];
                    let (tokens, took) = t.span("spatial.tokenize", Some(parent), request, || {
                        vocab.tokenize(trip)
                    });
                    budget.tokenize.push(micros(took));
                    let (vector, took) =
                        t.span("serve.batcher.encode", Some(parent), request, || {
                            batcher.encode(tokens)
                        });
                    budget.encode.push(micros(took));
                    vector
                };
                match op {
                    Op::Query(_) => {
                        let ((), took) = t.span("serve.store.knn", Some(parent), request, || {
                            std::hint::black_box(store.knn_ann_explained(&vector, K));
                        });
                        budget.store.push(micros(took));
                    }
                    Op::Insert(id, _) => {
                        let ((), took) =
                            t.span("serve.store.insert", Some(parent), request, || {
                                store.insert(id, &vector);
                            });
                        budget.store.push(micros(took));
                        // Only the persistent service journals its inserts.
                        if service.persist_dir().is_some() {
                            let entry = Entry { id, vec: vector };
                            let (appended, took) =
                                t.span("serve.journal.append", Some(parent), request, || {
                                    journal.append(&entry)
                                });
                            appended.map_err(|e| e.to_string())?;
                            budget.journal.push(micros(took));
                        }
                    }
                }
                t.close(parent);
            }
            _ => {
                let (outcome, took) = timed(|| stage.exec(op));
                plain.attempted += 1;
                match (outcome, op) {
                    (Ok(()), Op::Query(_)) => plain_query_us.push(micros(took)),
                    (Ok(()), Op::Insert(..)) => {}
                    (Err(_), _) => plain.failed += 1,
                }
            }
        }
    }
    r.phase("traced replay, 1 client", traced);
    r.phase("untraced replay, 1 client", plain);
    let lanes = [
        &queries.root,
        &queries.store,
        &inserts.root,
        &inserts.store,
        &plain_query_us,
    ];
    if lanes.iter().any(|lane| lane.is_empty()) {
        return Err("a replay lane completed no query or no insert".into());
    }
    r.metric(
        "serve.query.tokenize_share",
        queries.share(&queries.tokenize),
    );
    r.metric(
        "serve.query.admission_encode_share",
        queries.share(&queries.encode),
    );
    r.metric("serve.query.knn_share", queries.share(&queries.store));
    r.metric(
        "serve.query.budget_residual_share",
        queries.residual_share(),
    );
    r.metric("serve.insert.store_share", inserts.share(&inserts.store));
    r.metric(
        "serve.insert.budget_residual_share",
        inserts.residual_share(),
    );
    // A measurement-quality figure, not an output check: it does not
    // make the run incorrect.
    let closes = queries.residual_share() <= 0.10 && inserts.residual_share() <= 0.10;
    r.lines.push(format!(
        "budget: the parts leave {:.3} of a query and {:.3} of an insert unaccounted for; both must stay <= 0.10: {}",
        queries.residual_share(),
        inserts.residual_share(),
        if closes { "ok" } else { "EXCEEDED" }
    ));
    let plain = median(&plain_query_us);
    r.metric(
        "bench.trace_overhead_share",
        (median(&queries.root) - plain) / plain,
    );
    Ok(())
}

/// The traced run of `name`: set up once, price the layers, take the
/// serving budget, write the spans.
pub fn run(name: &str, seed: u64, scratch: &Scratch) -> Result<Report, String> {
    let mut report = Report::new();
    let mut tracer = Tracer::new();

    // The workload's own set-up, so the probes see its model and the
    // budget its service.
    let mut serve_stage = None;
    let (mut world, model, dataset): (World, Arc<T2Vec>, Option<Dataset>) = match name {
        "train_paper" => {
            let stage = workloads::train_setup(seed)?;
            let model = Arc::new(stage.trainer.snapshot());
            (World::new(seed ^ 0x7ace), model, Some(stage.dataset))
        }
        "build_db" => {
            let workloads::BuildStage { world, model } = workloads::build_setup(seed)?;
            (world, model, None)
        }
        _ => {
            let stage = if name == "serve_by_traj" {
                workloads::traj_setup(seed)?
            } else {
                workloads::vec_setup(seed, scratch)?
            };
            let model = Arc::clone(&stage.model);
            serve_stage = Some(stage);
            (World::new(seed ^ 0x7ace), model, None)
        }
    };
    let dataset = dataset.unwrap_or_else(|| world.dataset(inputs::MODEL_TRIPS));
    let trips = world.trips(PROBE_TRIPS);
    let bases = model.encode_batch(&trips);
    let vectors = inputs::jittered(&bases, PROBE_N + PROBE_TAIL + PROBE_QUERIES, seed);
    let inp = Inputs {
        seed,
        model: &model,
        dataset: &dataset,
        trips: &trips,
    };

    host_probes(&mut tracer, &mut report);
    trajgen_probe(&mut tracer, &mut report, seed);
    tensor_probes(&mut tracer, &mut report, &vectors);
    train_probes(&mut tracer, &mut report, &inp)?;
    encode_probes(&mut tracer, &mut report, &inp);
    kmeans_probe(&mut tracer, &mut report, &vectors, seed);
    store_probes(&mut tracer, &mut report, &vectors, scratch)?;
    loadgen_probe(&mut tracer, &mut report);
    report.phase(
        "layer probes",
        Tally {
            attempted: tracer.spans.len(),
            failed: 0,
        },
    );
    match &mut serve_stage {
        Some(stage) => serve_budget(&mut tracer, &mut report, stage, scratch)?,
        // Nothing is served, so no request has a budget to close.
        None => BUDGET_SHARES
            .iter()
            .for_each(|&share| report.metric(share, 0.0)),
    }

    let path = std::path::PathBuf::from(format!(".bench_out/trace-{name}.json"));
    tracer
        .write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.lines.push(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));
    Ok(report)
}
