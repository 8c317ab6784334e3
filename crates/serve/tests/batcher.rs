//! Admission-batcher suite: natural batching read from the
//! `serve.batch.rows` histogram (a lone request leaves alone at once,
//! requests that queue behind a busy worker leave together, a queue
//! longer than `max_batch` splits), scatter-back correctness under
//! concurrency, survival of a panicking engine pass, and the
//! bitwise-equality contract with the one-step-at-a-time packed loop
//! (`Seq2Seq::encode_states_raw`) and the `encode_tokens_batch` path.
//!
//! An untrained `Seq2Seq` (random weights) is all these properties
//! need, keeping the suite fast enough for soak loops.

use std::sync::{Barrier, Mutex};
use t2vec_nn::{Seq2Seq, Seq2SeqConfig};
use t2vec_obs::metrics::{counter, histogram};
use t2vec_serve::{AdmissionBatcher, BatcherConfig};
use t2vec_spatial::vocab::Token;
use t2vec_tensor::rng::det_rng;

/// Every batcher in the process records into the one `serve.batch.rows`
/// histogram, so the tests that read it must not overlap the others.
static ONE_BATCHER_AT_A_TIME: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    ONE_BATCHER_AT_A_TIME
        .lock()
        .unwrap_or_else(|e| e.into_inner())
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

/// What the worker took while `f` ran: flushes, their rows in total,
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

/// Occupies the worker with one long request, then lets `queued` more
/// requests arrive while it is busy. The long pass (hundreds of
/// milliseconds) outlasts the microseconds the released callers need to
/// enqueue by orders of magnitude.
fn queue_behind_a_long_request(batcher: &AdmissionBatcher, queued: &[Vec<Token>]) {
    let long: Vec<Token> = (0..400_000).map(token).collect();
    let flushes = histogram("serve.batch.rows");
    let taken = flushes.count() + 1;
    let released = Barrier::new(queued.len() + 1);
    std::thread::scope(|s| {
        s.spawn(|| batcher.encode(long));
        for seq in queued {
            let released = &released;
            s.spawn(move || {
                released.wait();
                batcher.encode(seq.clone())
            });
        }
        // The flush is recorded when the worker takes it, before the
        // engine pass: from here on the worker is busy.
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
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    let flushes = flushes_during(|| queue_behind_a_long_request(&batcher, &token_seqs(5)));
    assert_eq!(flushes, (2, 6, 0), "the long request alone, then all five");
}

#[test]
fn a_queue_longer_than_max_batch_splits() {
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s, 4);
    let flushes = flushes_during(|| queue_behind_a_long_request(&batcher, &token_seqs(6)));
    assert_eq!(flushes, (3, 7, 1), "1, then a full 4, then the other 2");
}

#[test]
fn a_panicking_engine_pass_fails_its_batch_only() {
    let _serial = serial();
    let s2s = model();
    let batcher = batcher(&s2s, 64);
    let seq = &token_seqs(1)[0];
    // A token id outside the embedding table panics inside the engine.
    let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        batcher.encode(vec![Token(10_000)])
    }));
    assert!(bad.is_err(), "the malformed request's caller panics");
    // The worker survived it: later requests are served, exactly.
    for _ in 0..3 {
        assert_eq!(batcher.encode(seq.clone()), reference(&s2s, seq));
    }
}

#[test]
fn scatter_returns_each_caller_its_own_result() {
    let _serial = serial();
    let s2s = model();
    let batcher =
        AdmissionBatcher::new(s2s.packed_encoder().into_owned(), BatcherConfig::default());
    assert_eq!(batcher.repr_dim(), s2s.repr_dim());
    let seqs = token_seqs(24);
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
            "caller {i} received a foreign result"
        );
    }
}

#[test]
fn batched_results_bitwise_equal_engine_batch_path() {
    let _serial = serial();
    let s2s = model();
    let batcher =
        AdmissionBatcher::new(s2s.packed_encoder().into_owned(), BatcherConfig::default());
    let seqs = token_seqs(10);
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
    let refs: Vec<&[Token]> = seqs.iter().map(|s| s.as_slice()).collect();
    assert_eq!(
        via_batcher,
        s2s.encode_tokens_batch(&refs),
        "admission batching must be bitwise equal to the bulk batch path"
    );
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
