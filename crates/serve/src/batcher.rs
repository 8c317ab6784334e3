//! Query admission batching: collect in-flight encode requests and run
//! them through the length-bucketed inference engine as one batch.
//!
//! Individually, concurrent encode requests would each stream every
//! weight matrix for one row; batching them amortises that exactly as
//! the engine does for bulk encodes. The batcher owns one worker thread
//! with an [`EncodeEngine`] (prepacked weights + warmed scratch) and
//! batches **naturally**: the moment the worker is free it takes
//! everything pending, up to [`BatcherConfig::max_batch`] requests, and
//! it sleeps only on an empty queue. A lone request on an idle worker
//! leaves at once in a one-row batch — there is no timer to wait out —
//! and batches form exactly when they pay: while the worker is busy
//! with one engine pass, the requests that arrive queue up and leave
//! together in the next.
//!
//! ## Determinism
//!
//! Which requests share a batch depends on arrival timing — but the
//! engine's output for a sequence is **bitwise independent of batch
//! composition** (the PR5 invariant, re-asserted by this crate's
//! batcher suite), so wall-clock time only decides *grouping*, never a
//! result byte. This keeps the obs determinism rule intact: timing
//! flows into scheduling and the event stream, not into values.
//!
//! ## A panicking engine pass
//!
//! A request that makes the engine panic (a token id outside the
//! embedding table) takes down its batch, not the batcher: the pass runs
//! under `catch_unwind`, that batch's callers see their reply channel
//! close and panic in [`AdmissionBatcher::encode`], and the worker
//! rebuilds the engine's scratch and keeps serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use t2vec_nn::{EncodeEngine, PackedEncoder};
use t2vec_obs as obs;
use t2vec_spatial::vocab::Token;

/// Batch policy of the [`AdmissionBatcher`].
#[derive(Debug, Clone, Copy)]
pub struct BatcherConfig {
    /// Most requests one engine pass takes. Defaults to the engine's
    /// bucket width ([`t2vec_nn::infer::MAX_BUCKET_ROWS`]) — a fuller
    /// batch would split into two buckets anyway.
    pub max_batch: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        Self {
            max_batch: t2vec_nn::infer::MAX_BUCKET_ROWS,
        }
    }
}

struct Pending {
    tokens: Vec<Token>,
    tx: SyncSender<Vec<f32>>,
    /// Requester's span context, captured at admission so the worker
    /// can parent a `batch_member` span under the request's trace
    /// across the thread hop ([`obs::SpanContext::NONE`] when tracing
    /// is off or the caller had no span open).
    ctx: obs::SpanContext,
}

struct State {
    pending: Vec<Pending>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

/// A shared handle collecting concurrent encode requests into engine
/// batches. Cheap to share (`Arc` inside); dropping the last handle
/// flushes the remaining requests and joins the worker.
pub struct AdmissionBatcher {
    shared: Arc<Shared>,
    repr_dim: usize,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl AdmissionBatcher {
    /// Spawns the batcher's worker thread around prepacked encoder
    /// weights (see [`PackedEncoder::into_owned`]).
    pub fn new(packed: PackedEncoder<'static>, config: BatcherConfig) -> Self {
        let max_batch = config.max_batch.max(1);
        let repr_dim = packed.repr_dim();
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                pending: Vec::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("t2vec-batcher".into())
            .spawn(move || worker_loop(&worker_shared, EncodeEngine::new(packed), max_batch))
            .expect("spawn batcher worker");
        Self {
            shared,
            repr_dim,
            worker: Some(worker),
        }
    }

    /// Representation width of encoded vectors.
    pub fn repr_dim(&self) -> usize {
        self.repr_dim
    }

    /// Encodes one token sequence, blocking until its batch has been
    /// through the engine. The result is bitwise identical to
    /// `Seq2Seq::encode_tokens(&tokens)` on the source model, whatever
    /// requests it happened to share a batch with.
    ///
    /// # Panics
    /// Panics if the engine pass for this request's batch panicked —
    /// some request in it was malformed (a token id outside the
    /// vocabulary). Later requests are served as usual.
    pub fn encode(&self, tokens: Vec<Token>) -> Vec<f32> {
        let (tx, rx) = sync_channel(1);
        let ctx = obs::context::current();
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            assert!(!st.shutdown, "encode after batcher shutdown");
            st.pending.push(Pending { tokens, tx, ctx });
            self.shared.cv.notify_all();
        }
        rx.recv().expect("the engine pass for this batch panicked")
    }
}

impl Drop for AdmissionBatcher {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.shared.cv.notify_all();
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, mut engine: EncodeEngine<'static>, max_batch: usize) {
    loop {
        let batch: Vec<Pending> = {
            let mut st = shared.state.lock().unwrap_or_else(|e| e.into_inner());
            while st.pending.is_empty() {
                if st.shutdown {
                    return;
                }
                st = shared.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            let take = st.pending.len().min(max_batch);
            st.pending.drain(..take).collect()
        };
        let full = batch.len() >= max_batch;
        if full {
            obs::counter!("serve.batch.flush_full").incr();
        }
        obs::histogram!("serve.batch.rows").record(batch.len() as u64);
        // One detached span per member, parented under the requester's
        // captured context: this is the cross-thread stitch that keeps a
        // request's span tree connected through the batcher hop. The
        // spans stay open across the engine pass (they time the member's
        // whole stay in the batch) without claiming this worker thread's
        // ambient context — see `Span::enter_detached`.
        let member_spans: Vec<obs::Span> = batch
            .iter()
            .map(|p| {
                obs::Span::enter_detached(
                    p.ctx,
                    "serve.batcher",
                    "batch_member",
                    vec![
                        ("rows", obs::FieldValue::from(batch.len())),
                        ("full", obs::FieldValue::from(full)),
                    ],
                )
            })
            .collect();
        let member_traces: Vec<u64> = member_spans.iter().map(|s| s.context().trace_id).collect();
        // Encode outside the lock so admission continues during the
        // engine pass.
        let seqs: Vec<&[Token]> = batch.iter().map(|p| p.tokens.as_slice()).collect();
        let pass = catch_unwind(AssertUnwindSafe(|| {
            engine.encode_batch_traced(&seqs, &member_traces)
        }));
        drop(member_spans);
        match pass {
            Ok(reprs) => {
                for (p, r) in batch.into_iter().zip(reprs) {
                    // A requester that gave up (disconnected) is not an error.
                    let _ = p.tx.send(r);
                }
            }
            // Dropping the batch drops its senders: those callers panic
            // in `encode`, as they would have on the bad request alone.
            // The unwound pass took buffers out of the arenas and never
            // returned them, so the next one starts from fresh scratch.
            Err(_) => engine.reset_scratch(),
        }
    }
}
