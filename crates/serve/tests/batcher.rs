//! Engine-pool suite: a lone request runs one one-row pass at once, a
//! short request does not wait for a long pass on the other engine, a
//! malformed request fails only its own caller, scatter-back correctness
//! under concurrency, and the bitwise-equality contract with the
//! one-step-at-a-time packed loop (`Seq2Seq::encode_states_raw`) and
//! the `encode_tokens_batch` path.
//!
//! The pool keeps one engine per worker thread, so the tests that
//! depend on how many there are pin the count under the suite's lock
//! and give the process's count back when they end. With one engine
//! every concurrent request waits for the one before it.
//!
//! An untrained `Seq2Seq` (random weights) is all these properties
//! need, keeping the suite fast enough for soak loops.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use t2vec_nn::{Seq2Seq, Seq2SeqConfig};
use t2vec_obs::metrics::histogram;
use t2vec_serve::{AdmissionBatcher, BatcherConfig};
use t2vec_spatial::vocab::Token;
use t2vec_tensor::parallel::{in_parallel_worker, num_threads, set_threads};
use t2vec_tensor::rng::det_rng;

/// Every pass in the process records into the one `nn.encode.bucket_rows`
/// histogram, and a pool's engine count follows the process-wide thread
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

fn batcher(s2s: &Seq2Seq) -> AdmissionBatcher {
    AdmissionBatcher::new(s2s.packed_encoder().into_owned(), BatcherConfig::default())
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

/// Buckets the engines started while `f` ran, and their rows in total.
/// A bucket is recorded when its pass starts, before the engine runs.
fn buckets_during(f: impl FnOnce()) -> (u64, u64) {
    let rows = histogram("nn.encode.bucket_rows");
    let before = (rows.count(), rows.sum());
    f();
    (rows.count() - before.0, rows.sum() - before.1)
}

fn long_request() -> Vec<Token> {
    (0..400_000).map(token).collect()
}

/// Waits until `n` more buckets than `seen` have started.
fn await_buckets(seen: u64, n: u64) {
    let rows = histogram("nn.encode.bucket_rows");
    while rows.count() < seen + n {
        std::thread::yield_now();
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn lone_request_leaves_alone_at_once() {
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s);
    let seq = &token_seqs(1)[0];
    // Nothing else is in flight: with no timer anywhere, returning at
    // all means the request took an idle engine as it arrived.
    let mut got = Vec::new();
    let buckets = buckets_during(|| got = batcher.encode(seq.clone()));
    assert_eq!(buckets, (1, 1), "one pass of one row");
    assert_eq!(got, reference(&s2s, seq));
}

#[test]
fn a_short_request_does_not_wait_for_a_long_pass_on_the_other_engine() {
    let _pinned = pinned(2);
    let s2s = model();
    let batcher = batcher(&s2s);
    let seq = &token_seqs(1)[0];
    let seen = histogram("nn.encode.bucket_rows").count();
    let long_done = AtomicBool::new(false);
    let (tx, rx) = channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            batcher.encode(long_request());
            long_done.store(true, Ordering::SeqCst);
        });
        await_buckets(seen, 1);
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
/// (every pass inline once another waits), two (a pass joins only when
/// it is alone), and more engines than cores.
const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn a_malformed_request_fails_only_its_own_caller() {
    let s2s = model();
    let good = token_seqs(5);
    let expected: Vec<Vec<u32>> = good.iter().map(|q| bits(&reference(&s2s, q))).collect();
    for threads in THREADS {
        let _pinned = pinned(threads);
        let batcher = Arc::new(batcher(&s2s));
        // On a thread of its own, so that a lost engine — every later
        // request waiting forever — fails the deadline instead of
        // hanging the suite.
        let (tx, rx) = channel();
        let driver = {
            let (batcher, good) = (Arc::clone(&batcher), good.clone());
            std::thread::spawn(move || {
                // Every engine holds a long pass while one request with a
                // token id outside the vocabulary (it panics inside the
                // engine, at the first-layer table's row copy) and the good
                // ones queue behind them.
                let seen = histogram("nn.encode.bucket_rows").count();
                let released = Barrier::new(good.len() + 2);
                let (bad, served) = std::thread::scope(|s| {
                    for _ in 0..threads {
                        s.spawn(|| batcher.encode(long_request()));
                    }
                    let bad = s.spawn(|| {
                        released.wait();
                        let bad =
                            catch_unwind(AssertUnwindSafe(|| batcher.encode(vec![Token(10_000)])));
                        // The caller is not left marked as a worker.
                        (bad.is_err(), in_parallel_worker())
                    });
                    let served: Vec<_> = good
                        .iter()
                        .map(|seq| {
                            let (batcher, released) = (&batcher, &released);
                            s.spawn(move || {
                                released.wait();
                                batcher.encode(seq.clone())
                            })
                        })
                        .collect();
                    await_buckets(seen, threads as u64);
                    released.wait();
                    let served: Vec<Vec<f32>> =
                        served.into_iter().map(|h| h.join().unwrap()).collect();
                    (bad.join().unwrap(), served)
                });
                // Then a malformed request alone — its directions joined
                // when there are two engines or more — and the pool
                // still serves.
                let lone_bad =
                    catch_unwind(AssertUnwindSafe(|| batcher.encode(vec![Token(10_000)]))).is_err();
                let after = batcher.encode(good[0].clone());
                let _ = tx.send((bad, served, lone_bad, after));
            })
        };
        let ((bad_panicked, marked), served, lone_bad, after) =
            match rx.recv_timeout(Duration::from_secs(60)) {
                Ok(outcome) => outcome,
                Err(RecvTimeoutError::Timeout) => {
                    panic!("a request never returned: the pool lost an engine ({threads} threads)")
                }
                Err(RecvTimeoutError::Disconnected) => {
                    panic!("a good caller panicked beside the malformed one ({threads} threads)")
                }
            };
        driver.join().expect("the driver thread panicked");
        assert!(bad_panicked, "the malformed request's caller panics");
        assert!(
            !marked,
            "the panicking pass left its caller marked ({threads} threads)"
        );
        assert!(lone_bad, "a lone malformed request panics too");
        for (got, want) in served.iter().zip(&expected) {
            assert_eq!(&bits(got), want, "{threads} threads");
        }
        assert_eq!(bits(&after), expected[0], "{threads} threads");
    }
}

#[test]
fn scatter_returns_each_caller_its_own_result() {
    let s2s = model();
    let seqs = token_seqs(24);
    for threads in THREADS {
        let _pinned = pinned(threads);
        let batcher = batcher(&s2s);
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
        let batcher = batcher(&s2s);
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
            "pooled encodes must be bitwise equal to the bulk batch path ({threads} threads)"
        );
    }
}

#[test]
fn sequential_requests_through_one_batcher_stay_exact() {
    // Passes one after another must each match the reference (no
    // scratch state bleeding between passes).
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s);
    for seq in &token_seqs(6) {
        assert_eq!(batcher.encode(seq.clone()), reference(&s2s, seq));
    }
}
