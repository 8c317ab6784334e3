//! Admission-batcher suite: natural batching read from the
//! `serve.batch.rows` histogram (a lone request leaves alone at once,
//! requests that queue behind busy engines leave together, a queue
//! longer than `max_batch` splits), two callers on two engines not
//! waiting for each other, scatter-back correctness under concurrency,
//! survival of a panicking engine pass, and the bitwise-equality
//! contract with the one-step-at-a-time packed loop
//! (`Seq2Seq::encode_states_raw`) and the `encode_tokens_batch` path.
//!
//! The batcher keeps one engine per worker thread, so the tests that
//! depend on how many there are pin the count under the suite's lock
//! and give the process's count back when they end. With one engine
//! every queued request goes through the hand-off of an engine from one
//! caller to the next.
//!
//! An untrained `Seq2Seq` (random weights) is all these properties
//! need, keeping the suite fast enough for soak loops.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Barrier, Mutex};
use std::time::Duration;
use t2vec_nn::{Seq2Seq, Seq2SeqConfig};
use t2vec_obs::metrics::{counter, histogram};
use t2vec_serve::{AdmissionBatcher, BatcherConfig};
use t2vec_spatial::vocab::Token;
use t2vec_tensor::parallel::{in_parallel_worker, num_threads, set_threads};
use t2vec_tensor::rng::det_rng;

/// Every batcher in the process records into the one `serve.batch.rows`
/// histogram, and its engine count follows the process-wide thread
/// count, so the tests must not overlap.
static ONE_BATCHER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_BATCHER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// [`serial`], with the worker count — and so the engine count of the
/// batchers built under it — pinned to `threads` until the guard drops,
/// which gives the count it found back: the tests that pin nothing run
/// at the count the process started with, not at a neighbour's.
struct Pinned {
    previous: usize,
    _serial: std::sync::MutexGuard<'static, ()>,
}

impl Drop for Pinned {
    fn drop(&mut self) {
        set_threads(self.previous);
    }
}

fn pinned(threads: usize) -> Pinned {
    let serial = serial();
    let previous = num_threads();
    set_threads(threads);
    Pinned {
        previous,
        _serial: serial,
    }
}

fn model() -> Seq2Seq {
    let config = Seq2SeqConfig {
        vocab: 50,
        embed_dim: 8,
        hidden: 16,
        layers: 1,
        bidirectional: true,
    };
    Seq2Seq::new(config, &mut det_rng(5))
}

fn batcher(s2s: &Seq2Seq, max_batch: usize) -> AdmissionBatcher {
    AdmissionBatcher::new(
        s2s.packed_encoder().into_owned(),
        BatcherConfig { max_batch },
    )
}

/// The representation by the one-step-at-a-time packed loop.
fn reference(s2s: &Seq2Seq, tokens: &[Token]) -> Vec<f32> {
    let states = s2s.encode_states_raw(tokens);
    states.last().unwrap().row(0).to_vec()
}

fn token(x: u64) -> Token {
    Token(Token::NUM_SPECIALS + (x % (50 - Token::NUM_SPECIALS as u64)) as u32)
}

/// Deterministic pseudo-random token sequences within the vocab.
fn token_seqs(n: usize) -> Vec<Vec<Token>> {
    (0..n as u64)
        .map(|i| {
            let len = 4 + (i * 7 % 13) as usize;
            (0..len as u64)
                .map(|j| {
                    token(
                        i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            .wrapping_add(j.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
                    )
                })
                .collect()
        })
        .collect()
}

/// What the engines took while `f` ran: flushes, their rows in total,
/// and how many of them were full.
fn flushes_during(f: impl FnOnce()) -> (u64, u64, u64) {
    let rows = histogram("serve.batch.rows");
    let full = counter("serve.batch.flush_full");
    let before = (rows.count(), rows.sum(), full.get());
    f();
    (
        rows.count() - before.0,
        rows.sum() - before.1,
        full.get() - before.2,
    )
}

fn long_request() -> Vec<Token> {
    (0..400_000).map(token).collect()
}

/// Occupies `longs` engines with one long request each, then lets
/// `queued` more requests arrive while they are busy. A long pass
/// (hundreds of milliseconds) outlasts the microseconds the released
/// callers need to enqueue by orders of magnitude.
fn queue_behind_long_requests(batcher: &AdmissionBatcher, longs: usize, queued: &[Vec<Token>]) {
    let flushes = histogram("serve.batch.rows");
    let taken = flushes.count() + longs as u64;
    let released = Barrier::new(queued.len() + 1);
    std::thread::scope(|s| {
        for _ in 0..longs {
            s.spawn(|| batcher.encode(long_request()));
        }
        for seq in queued {
            let released = &released;
            s.spawn(move || {
                released.wait();
                batcher.encode(seq.clone())
            });
        }
        // A flush is recorded when its pass starts, before the engine
        // runs: from here on every long request holds an engine.
        while flushes.count() < taken {
            std::thread::yield_now();
        }
        released.wait();
    });
}

#[test]
fn lone_request_leaves_alone_at_once() {
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s, 1000);
    let seq = &token_seqs(1)[0];
    // Nothing else is coming and the bucket is far from full: with no
    // timer anywhere, returning at all means the idle worker took the
    // request as it arrived.
    let mut got = Vec::new();
    let flushes = flushes_during(|| got = batcher.encode(seq.clone()));
    assert_eq!(flushes, (1, 1, 0), "one flush of one row, not a full one");
    assert_eq!(got, reference(&s2s, seq));
}

#[test]
fn requests_queued_behind_a_busy_worker_leave_together() {
    let _pinned = pinned(1);
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    let flushes = flushes_during(|| queue_behind_long_requests(&batcher, 1, &token_seqs(5)));
    assert_eq!(flushes, (2, 6, 0), "the long request alone, then all five");
}

#[test]
fn requests_queued_behind_two_busy_engines_leave_together() {
    let _pinned = pinned(2);
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    let flushes = flushes_during(|| queue_behind_long_requests(&batcher, 2, &token_seqs(5)));
    assert_eq!(flushes, (3, 7, 0), "each long request alone, then all five");
}

#[test]
fn a_queue_longer_than_max_batch_splits() {
    let _pinned = pinned(1);
    let s2s = model();
    let batcher = batcher(&s2s, 4);
    let flushes = flushes_during(|| queue_behind_long_requests(&batcher, 1, &token_seqs(6)));
    assert_eq!(flushes, (3, 7, 1), "1, then a full 4, then the other 2");
}

#[test]
fn a_short_request_does_not_wait_for_a_long_pass_on_the_other_engine() {
    let _pinned = pinned(2);
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    let seq = &token_seqs(1)[0];
    let flushes = histogram("serve.batch.rows");
    let taken = flushes.count() + 1;
    let long_done = AtomicBool::new(false);
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            batcher.encode(long_request());
            long_done.store(true, Ordering::SeqCst);
        });
        while flushes.count() < taken {
            std::thread::yield_now();
        }
        s.spawn(|| {
            let got = batcher.encode(seq.clone());
            let _ = tx.send((got, long_done.load(Ordering::SeqCst)));
        });
        let (got, long_was_done) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the short request never returned");
        assert!(
            !long_was_done,
            "the short request waited for the long pass on the other engine"
        );
        assert_eq!(got, reference(&s2s, seq));
    });
}

/// The thread counts the concurrent-caller tests run at: one engine
/// (every queued request handed off, every pass inline), two (a pass
/// joins only when it is alone), and more engines than cores.
const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn a_panicking_engine_pass_fails_its_batch_only() {
    let s2s = model();
    let seq = token_seqs(1).remove(0);
    let expected = reference(&s2s, &seq);
    for threads in THREADS {
        let _pinned = pinned(threads);
        let batcher = batcher(&s2s, 64);
        // A lone caller's pass is alone: with one engine it runs inline
        // and takes the only engine; with more it runs its two
        // directions through `join`, whose spawned side panics too and
        // is re-raised on the caller. On a thread of its own, so that a
        // lost engine — every later request waiting forever — fails the
        // deadline instead of hanging the suite.
        let (tx, rx) = channel();
        let seq = seq.clone();
        let caller = std::thread::spawn(move || {
            // A token id outside the vocabulary panics inside the engine,
            // at the first-layer table's row copy.
            let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                batcher.encode(vec![Token(10_000)])
            }));
            // The caller is not left marked as a worker, and later
            // requests are served, exactly.
            let marked = in_parallel_worker();
            let served: Vec<Vec<f32>> = (0..3).map(|_| batcher.encode(seq.clone())).collect();
            let _ = tx.send((bad.is_err(), marked, served));
        });
        let outcome = rx.recv_timeout(Duration::from_secs(10));
        assert!(
            !matches!(outcome, Err(RecvTimeoutError::Timeout)),
            "the batcher lost an engine to the panicking pass ({threads} threads)"
        );
        caller.join().expect("the caller thread panicked");
        let (bad_panicked, marked, served) = outcome.expect("the caller sent before it ended");
        assert!(bad_panicked, "the malformed request's caller panics");
        assert!(
            !marked,
            "the panicking pass left its caller marked ({threads} threads)"
        );
        for got in served {
            assert_eq!(got, expected, "{threads} threads");
        }
    }
}

#[test]
fn scatter_returns_each_caller_its_own_result() {
    let s2s = model();
    let seqs = token_seqs(24);
    for threads in THREADS {
        let _pinned = pinned(threads);
        let batcher =
            AdmissionBatcher::new(s2s.packed_encoder().into_owned(), BatcherConfig::default());
        assert_eq!(batcher.repr_dim(), s2s.repr_dim());
        // Many concurrent callers, distinct sequences: every caller must
        // get the encoding of *its* sequence back, not a neighbour's.
        let results: Vec<(usize, Vec<f32>)> = std::thread::scope(|s| {
            let handles: Vec<_> = seqs
                .iter()
                .enumerate()
                .map(|(i, seq)| {
                    let batcher = &batcher;
                    s.spawn(move || (i, batcher.encode(seq.clone())))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (i, got) in &results {
            assert_eq!(
                got,
                &reference(&s2s, &seqs[*i]),
                "caller {i} received a foreign result ({threads} threads)"
            );
        }
    }
}

#[test]
fn batched_results_bitwise_equal_engine_batch_path() {
    let s2s = model();
    let seqs = token_seqs(10);
    let refs: Vec<&[Token]> = seqs.iter().map(|s| s.as_slice()).collect();
    for threads in THREADS {
        let _pinned = pinned(threads);
        let batcher =
            AdmissionBatcher::new(s2s.packed_encoder().into_owned(), BatcherConfig::default());
        let via_batcher: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = seqs
                .iter()
                .map(|seq| {
                    let batcher = &batcher;
                    s.spawn(move || batcher.encode(seq.clone()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            via_batcher,
            s2s.encode_tokens_batch(&refs),
            "admission batching must be bitwise equal to the bulk batch path ({threads} threads)"
        );
    }
}

#[test]
fn sequential_requests_through_one_batcher_stay_exact() {
    // Singleton batches, one after another, must each match the
    // reference (no scratch state bleeding between flushes).
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    for seq in &token_seqs(6) {
        assert_eq!(batcher.encode(seq.clone()), reference(&s2s, seq));
    }
}
