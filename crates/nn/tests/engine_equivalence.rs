//! Bitwise equivalence of the chunked layer-major inference engine
//! (`PackedEncoder::encode_bucket`) with the per-token loop: one
//! `PackedGruStack::step_into` per token per sequence (itself pinned to
//! the unfused reference step by `gru.rs`'s proptests).
//!
//! The engine batches rows *and* timesteps; neither may change a byte.
//! The directed cases put a chunk boundary inside a sequence, let rows
//! leave the active prefix on a chunk's first and last step, and fill a
//! chunk exactly; the sampled ones cover 1–64 rows of mixed lengths
//! (empty and one-token included), uni- and bidirectional. Every case
//! runs with one worker thread (directions in sequence) and with two
//! (directions concurrently); a lock keeps the tests from moving the
//! process-wide thread count under each other.
//!
//! One level up, `Seq2Seq::encode_tokens_batch` sorts a batch into
//! buckets and hands them out across workers; over six buckets of ragged
//! lengths, every vector must be the bytes `Seq2Seq::encode_tokens`
//! gives that sequence alone, at 1, 2 and 4 threads.

use proptest::prelude::*;
use t2vec_nn::embedding::Embedding;
use t2vec_nn::gru::{GruStack, PackedGruStack};
use t2vec_nn::infer::{EncodeScratch, InputTables, PackedEncoder, CHUNK_ROWS, MAX_BUCKET_ROWS};
use t2vec_nn::{Seq2Seq, Seq2SeqConfig};
use t2vec_spatial::vocab::Token;
use t2vec_tensor::parallel;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::Workspace;

const VOCAB: usize = 24;

/// Held while a check depends on `parallel::set_threads`.
static THREAD_COUNT: std::sync::Mutex<()> = std::sync::Mutex::new(());

struct Model {
    emb: Embedding,
    fwd: GruStack,
    bwd: Option<GruStack>,
}

fn model(embed: usize, hidden: usize, layers: usize, bidirectional: bool, seed: u64) -> Model {
    let mut rng = det_rng(seed);
    Model {
        emb: Embedding::new("emb", VOCAB, embed, &mut rng),
        fwd: GruStack::new("f", embed, hidden, layers, &mut rng),
        bwd: bidirectional.then(|| GruStack::new("b", embed, hidden, layers, &mut rng)),
    }
}

/// Top-layer state after stepping `tokens` one at a time through the
/// packed stack.
fn run_per_token<'a>(
    emb: &Embedding,
    stack: &GruStack,
    tokens: impl Iterator<Item = &'a Token>,
) -> Vec<f32> {
    let packed = PackedGruStack::pack(stack);
    let mut ws = Workspace::new();
    let mut states = stack.zero_state(1);
    for tok in tokens {
        let x = emb.lookup_raw(std::slice::from_ref(tok));
        packed.step_into(&x, &mut states, &mut ws);
    }
    states.last().unwrap().row(0).to_vec()
}

fn reference(m: &Model, tokens: &[Token]) -> Vec<f32> {
    let mut v = run_per_token(&m.emb, &m.fwd, tokens.iter());
    if let Some(bwd) = &m.bwd {
        v.extend(run_per_token(&m.emb, bwd, tokens.iter().rev()));
    }
    v
}

fn sequences(lens: &[usize], seed: u64) -> Vec<Vec<Token>> {
    lens.iter()
        .enumerate()
        .map(|(i, &len)| {
            (0..len as u64)
                .map(|j| {
                    let x = (seed ^ i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add(j.wrapping_mul(0xBF58_476D_1CE4_E5B9));
                    Token((x >> 33) as u32 % VOCAB as u32)
                })
                .collect()
        })
        .collect()
}

/// One bucket of sequences with the given lengths, through the engine at
/// one and two worker threads, against the reference.
fn check_bucket(m: &Model, lens: &[usize], seed: u64) {
    assert!(lens.len() <= MAX_BUCKET_ROWS);
    let seqs = sequences(lens, seed);
    let refs: Vec<&[Token]> = seqs.iter().map(Vec::as_slice).collect();
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(refs[i].len()));
    let expect: Vec<Vec<f32>> = order.iter().map(|&i| reference(m, refs[i])).collect();
    let tables = InputTables::default();
    let packed = PackedEncoder::new(&m.emb, &m.fwd, m.bwd.as_ref(), &tables);
    // One scratch across both passes: the second runs on warm arenas
    // holding the first pass's stale bytes.
    let mut scratch = EncodeScratch::new();
    let _pinned = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2] {
        parallel::set_threads(threads);
        let got = packed.encode_bucket(&refs, &order, &mut scratch);
        assert_eq!(got, expect, "lens {lens:?}, {threads} thread(s)");
    }
}

#[test]
fn engine_bitwise_matches_per_token_loop() {
    let bidir = model(5, 3, 2, true, 1);
    let wide = model(2, 6, 3, true, 2); // hidden wider than the embedding
    let uni = model(4, 4, 2, false, 3);

    // Degenerate buckets.
    for m in [&bidir, &uni] {
        check_bucket(m, &[0], 10);
        check_bucket(m, &[1], 11);
        check_bucket(m, &[0, 0, 0], 12);
        check_bucket(m, &[3, 1, 0, 1, 7, 0, 2], 13);
    }

    // A chunk boundary inside a lone sequence, and a sequence that ends
    // exactly on it.
    for m in [&bidir, &wide, &uni] {
        check_bucket(m, &[CHUNK_ROWS + 3], 20);
        check_bucket(m, &[CHUNK_ROWS], 21);
        check_bucket(m, &[2 * CHUNK_ROWS + 1, 5], 22);
    }

    // A full bucket fills a chunk in `per` steps exactly. Rows of length
    // `per` leave on the first chunk's last step, rows of length
    // `per + 1` on the second chunk's first step, the rest later; with
    // one row short of full the boundary falls mid-step instead.
    let per = CHUNK_ROWS / MAX_BUCKET_ROWS;
    for rows in [MAX_BUCKET_ROWS, MAX_BUCKET_ROWS - 1] {
        let lens: Vec<usize> = (0..rows)
            .map(|i| match i % 4 {
                0 => per,
                1 => per + 1,
                2 => 2 * per,
                _ => 2 * per + 3,
            })
            .collect();
        check_bucket(&bidir, &lens, 30);
        check_bucket(&wide, &lens, 31);
    }
}

#[test]
fn bulk_encode_over_many_buckets_bitwise_matches_lone_encodes() {
    let config = Seq2SeqConfig {
        vocab: VOCAB,
        embed_dim: 5,
        hidden: 6,
        layers: 2,
        bidirectional: true,
    };
    let model = Seq2Seq::new(config, &mut det_rng(40));
    // Five full buckets and a seven-row last one; lengths 0..=40 in a
    // scrambled order, so every bucket holds a different length range.
    let lens: Vec<usize> = (0..5 * MAX_BUCKET_ROWS + 7)
        .map(|i| (i * 37) % 41)
        .collect();
    assert!(lens.contains(&0) && lens.contains(&1));
    let seqs = sequences(&lens, 41);
    let refs: Vec<&[Token]> = seqs.iter().map(Vec::as_slice).collect();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let expect: Vec<Vec<u32>> = refs.iter().map(|s| bits(&model.encode_tokens(s))).collect();
    let _pinned = THREAD_COUNT.lock().unwrap_or_else(|e| e.into_inner());
    for threads in [1, 2, 4] {
        parallel::set_threads(threads);
        let got = model.encode_tokens_batch(&refs);
        assert_eq!(got.len(), refs.len());
        for (i, (v, want)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(
                &bits(v),
                want,
                "sequence {i} (len {}), {threads} thread(s)",
                lens[i]
            );
        }
    }
}

proptest! {
    #[test]
    fn engine_bitwise_matches_per_token_loop_on_sampled_buckets(
        lens in collection::vec(0usize..24, 1..65),
        shape in (1usize..6, 1usize..6, 1usize..4),
        seed in 0u64..1000
    ) {
        let (embed, hidden, layers) = shape;
        let m = model(embed, hidden, layers, seed % 2 == 0, seed);
        check_bucket(&m, &lens, seed);
    }
}
