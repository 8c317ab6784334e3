//! Query admission batching: collect in-flight encode requests and run
//! them through the length-bucketed inference engine as one batch.
//!
//! Individually, concurrent encode requests would each stream every
//! weight matrix for one row; batching them amortises that exactly as
//! the engine does for bulk encodes. The batcher has no thread of its
//! own: it holds one copy of the prepacked weights and a pool of
//! [`parallel::num_threads`] engines, each only an [`EncodeScratch`],
//! and **callers run the passes**. A caller that finds an idle engine
//! takes it and runs a pass at once, on its own thread, for everything
//! pending up to [`BatcherConfig::max_batch`] requests, its own
//! included. So a lone request leaves in a one-row pass with no thread
//! hop, and two callers on two engines encode side by side instead of
//! one waiting out the other's pass.
//!
//! Batches form exactly when they pay, behind busy engines: a caller
//! that finds none idle queues its request and waits. A runner whose
//! pass ends with requests still queued does not put its engine back;
//! it takes the next batch (the oldest requests, up to `max_batch`) and
//! hands engine and batch to that batch's oldest caller through its
//! reply channel, and that caller runs the pass. A caller only ever runs
//! a pass that contains its own request.
//!
//! A pass runs its two encoder directions through [`parallel::join`]
//! only when it is the only pass in flight; beside another pass it runs
//! them one after the other on its caller ([`parallel::inline`]), so
//! two passes keep one core each.
//!
//! ## Determinism
//!
//! Which requests share a batch, which caller runs it and whether its
//! directions ran concurrently depend on arrival timing — but the
//! engine's output for a sequence is **bitwise independent of batch
//! composition** (the PR5 invariant, re-asserted by this crate's
//! batcher suite) and of the thread count, so wall-clock time only
//! decides *grouping*, never a result byte. This keeps the obs
//! determinism rule intact: timing flows into scheduling and the event
//! stream, not into values.
//!
//! ## A panicking engine pass
//!
//! A request that makes the engine panic (a token id outside the
//! embedding table) takes down its batch, not the batcher: the pass runs
//! under `catch_unwind`, the engine gets fresh scratch and goes back to
//! the pool (or on to the next batch) before anyone is told, and then
//! that batch's callers see their reply channel close and panic in
//! [`AdmissionBatcher::encode`]. The pool never loses an engine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Mutex, MutexGuard};
use t2vec_nn::infer::EncodeScratch;
use t2vec_nn::PackedEncoder;
use t2vec_obs as obs;
use t2vec_spatial::vocab::Token;
use t2vec_tensor::parallel;

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
    tx: SyncSender<Reply>,
    /// Requester's span context, captured at admission so the runner of
    /// its pass can parent a `batch_member` span under the request's
    /// trace ([`obs::SpanContext::NONE`] when tracing is off or the
    /// caller had no span open).
    ctx: obs::SpanContext,
}

/// An engine with the batch it is to run next.
struct Pass {
    scratch: EncodeScratch,
    batch: Vec<Pending>,
    /// No other pass was in flight when this one was taken: it may use
    /// the other cores for its second direction.
    alone: bool,
}

/// A message to a waiting caller: its vector, or a pass headed by its
/// request, to run itself (after which it receives its vector).
enum Reply {
    Done(Vec<f32>),
    Run(Pass),
}

struct State {
    /// Requests waiting for an engine, oldest first. Empty whenever an
    /// engine is idle: a freed engine goes to the queue before the pool.
    pending: VecDeque<Pending>,
    idle: Vec<EncodeScratch>,
    running: usize,
}

/// A shared handle collecting concurrent encode requests into engine
/// batches, run by the callers themselves (see module docs). Share it
/// by reference; it owns no thread.
pub struct AdmissionBatcher {
    packed: PackedEncoder<'static>,
    max_batch: usize,
    state: Mutex<State>,
}

impl AdmissionBatcher {
    /// Builds the batcher around prepacked encoder weights (see
    /// [`PackedEncoder::into_owned`]), with one engine per worker
    /// thread ([`parallel::num_threads`] at construction) sharing them.
    pub fn new(packed: PackedEncoder<'static>, config: BatcherConfig) -> Self {
        let idle = (0..parallel::num_threads())
            .map(|_| EncodeScratch::new())
            .collect();
        Self {
            packed,
            max_batch: config.max_batch.max(1),
            state: Mutex::new(State {
                pending: VecDeque::new(),
                idle,
                running: 0,
            }),
        }
    }

    /// Representation width of encoded vectors.
    pub fn repr_dim(&self) -> usize {
        self.packed.repr_dim()
    }

    /// Encodes one token sequence, blocking until its batch has been
    /// through the engine — on this thread, if an engine is idle or one
    /// is handed to it. The result is bitwise identical to
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
        let mut pass = {
            let mut st = self.lock();
            st.pending.push_back(Pending { tokens, tx, ctx });
            st.idle
                .pop()
                .map(|scratch| self.take_pass(&mut st, scratch))
        };
        loop {
            if let Some(pass) = pass.take() {
                self.run(pass);
            }
            // A request has at most one message waiting at a time, so
            // the channel's one slot never blocks a sender: the head of
            // a handed-off batch reads its `Run` before it runs the pass
            // and sends itself its `Done`.
            match rx.recv().expect("the engine pass for this batch panicked") {
                Reply::Done(repr) => return repr,
                Reply::Run(handed) => pass = Some(handed),
            }
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes the oldest pending requests (up to `max_batch`) as the next
    /// pass of `scratch`.
    fn take_pass(&self, st: &mut State, scratch: EncodeScratch) -> Pass {
        let take = st.pending.len().min(self.max_batch);
        st.running += 1;
        Pass {
            scratch,
            batch: st.pending.drain(..take).collect(),
            alone: st.running == 1,
        }
    }

    /// Runs one pass on the calling thread, passes its engine on, then
    /// answers the batch's callers (this one included).
    fn run(&self, pass: Pass) {
        let Pass {
            mut scratch,
            batch,
            alone,
        } = pass;
        let full = batch.len() >= self.max_batch;
        if full {
            obs::counter!("serve.batch.flush_full").incr();
        }
        obs::histogram!("serve.batch.rows").record(batch.len() as u64);
        // One detached span per member, parented under the requester's
        // captured context, so each request's span tree stays connected
        // whichever caller runs its pass. The spans stay open across the
        // engine pass (they time the member's whole stay in the batch)
        // without claiming this thread's ambient context — see
        // `Span::enter_detached`.
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
        let seqs: Vec<&[Token]> = batch.iter().map(|p| p.tokens.as_slice()).collect();
        let encoded = catch_unwind(AssertUnwindSafe(|| {
            let mut encode = || {
                self.packed
                    .encode_batch_traced(&seqs, &member_traces, &mut scratch)
            };
            if alone {
                encode()
            } else {
                parallel::inline(encode)
            }
        }));
        drop(member_spans);
        if encoded.is_err() {
            // The unwound pass took buffers out of the arenas and never
            // returned them, so the engine's next pass starts from
            // fresh scratch.
            scratch = EncodeScratch::new();
        }
        let next = {
            let mut st = self.lock();
            st.running -= 1;
            if st.pending.is_empty() {
                st.idle.push(scratch);
                None
            } else {
                Some(self.take_pass(&mut st, scratch))
            }
        };
        if let Some(next) = next {
            // The head of the batch is blocked in `encode` on its reply
            // channel, so the hand-off cannot fail.
            let head = next.batch[0].tx.clone();
            let _ = head.send(Reply::Run(next));
        }
        match encoded {
            Ok(reprs) => {
                for (p, r) in batch.into_iter().zip(reprs) {
                    let _ = p.tx.send(Reply::Done(r));
                }
            }
            // Dropping the batch drops its senders: those callers panic
            // in `encode`, as they would have on the bad request alone.
            Err(_) => drop(batch),
        }
    }
}
