//! The serving engine pool: each caller takes an idle engine and encodes
//! its own request on its own thread.
//!
//! The paper serves a query by running its trajectory once through the
//! §IV-D encoder. [`AdmissionBatcher`] holds one copy of the prepacked
//! weights and a pool of [`parallel::num_threads`] engines, each only an
//! [`EncodeScratch`]. [`AdmissionBatcher::encode`] takes an idle engine —
//! waiting on a condvar while every engine is busy — runs a one-sequence
//! pass with it on the calling thread, and puts it back. The pool owns no
//! thread and forms no batches: with one engine per core, batching pays
//! only on a one-core host under four or more concurrent callers
//! (DESIGN.md §13 has the measurement).
//!
//! A pass runs its two encoder directions through [`parallel::join`]
//! only when it is the only pass in flight; beside another pass it runs
//! them one after the other on its caller ([`parallel::inline`]), so two
//! passes keep one core each.
//!
//! ## Determinism
//!
//! Which engine serves a request and whether its directions ran
//! concurrently depend on arrival timing, but the engine's output for a
//! sequence is **bitwise independent** of both and of the thread count:
//! wall-clock time decides scheduling and the event stream, never a
//! result byte (the obs determinism rule).
//!
//! ## A panicking pass
//!
//! A request that makes the engine panic (a token id outside the
//! embedding table) panics in its own caller only. The engine goes back
//! to the pool as the panic unwinds, with fresh scratch, and the next
//! waiting caller is woken: the pool never loses an engine.

use std::sync::{Condvar, Mutex, MutexGuard};
use t2vec_nn::infer::EncodeScratch;
use t2vec_nn::PackedEncoder;
use t2vec_spatial::vocab::Token;
use t2vec_tensor::parallel;

/// Construction parameters of an [`AdmissionBatcher`]: none. The pool
/// has one engine per worker thread and nothing to tune; the type (like
/// the pool's name) stays because `benchmark/src/trace.rs` builds its
/// pools through it.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatcherConfig {}

struct Pool {
    idle: Vec<EncodeScratch>,
    /// Passes in flight, so a new pass knows whether it is alone.
    running: usize,
}

/// A shared pool of encode engines over one copy of the prepacked
/// weights, run by the callers themselves (see module docs). Share it
/// by reference; it owns no thread. Named for the admission batcher it
/// replaced, because `benchmark/src/trace.rs` names it.
pub struct AdmissionBatcher {
    packed: PackedEncoder<'static>,
    pool: Mutex<Pool>,
    /// Signalled each time an engine goes back to the pool.
    returned: Condvar,
}

/// An engine taken from the pool; dropping it puts the engine back.
struct Engine<'a> {
    from: &'a AdmissionBatcher,
    scratch: EncodeScratch,
    /// No other pass was in flight when this one was taken: it may use
    /// the other cores for its second direction.
    alone: bool,
}

impl Drop for Engine<'_> {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        if std::thread::panicking() {
            // The unwound pass took buffers out of the arenas and never
            // returned them, so the engine's next pass starts afresh.
            scratch = EncodeScratch::new();
        }
        let mut pool = self.from.lock();
        pool.running -= 1;
        pool.idle.push(scratch);
        drop(pool);
        self.from.returned.notify_one();
    }
}

impl AdmissionBatcher {
    /// Builds the pool around prepacked encoder weights (see
    /// [`PackedEncoder::into_owned`]), with one engine per worker thread
    /// ([`parallel::num_threads`] at construction) sharing them.
    pub fn new(packed: PackedEncoder<'static>, _config: BatcherConfig) -> Self {
        let idle = (0..parallel::num_threads())
            .map(|_| EncodeScratch::new())
            .collect();
        Self {
            packed,
            pool: Mutex::new(Pool { idle, running: 0 }),
            returned: Condvar::new(),
        }
    }

    /// Representation width of encoded vectors.
    pub fn repr_dim(&self) -> usize {
        self.packed.repr_dim()
    }

    /// Encodes one token sequence on this thread, once an engine is
    /// idle. The result is bitwise identical to
    /// `Seq2Seq::encode_tokens(&tokens)` on the source model.
    ///
    /// # Panics
    /// Panics if `tokens` holds a token id outside the vocabulary. The
    /// engine goes back to the pool, and other callers are served as
    /// usual.
    pub fn encode(&self, tokens: Vec<Token>) -> Vec<f32> {
        let mut engine = self.take();
        let seqs = [tokens.as_slice()];
        let mut pass = || self.packed.encode_batch_traced(&seqs, &mut engine.scratch);
        let mut reprs = if engine.alone {
            pass()
        } else {
            parallel::inline(pass)
        };
        reprs.pop().expect("one sequence in, one vector out")
    }

    fn lock(&self) -> MutexGuard<'_, Pool> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Takes an idle engine, waiting until one is returned if none is.
    fn take(&self) -> Engine<'_> {
        let mut pool = self
            .returned
            .wait_while(self.lock(), |pool| pool.idle.is_empty())
            .unwrap_or_else(|e| e.into_inner());
        let scratch = pool.idle.pop().expect("woken with an idle engine");
        pool.running += 1;
        Engine {
            from: self,
            scratch,
            alone: pool.running == 1,
        }
    }
}
