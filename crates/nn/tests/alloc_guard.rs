//! Steady-state allocation guard for the batched inference engine.
//!
//! A counting global allocator proves the fused GRU step loop performs
//! **zero heap allocations after warmup**: the `_into` kernels write
//! into recycled [`Workspace`] buffers, the embedding lookup copies
//! rows in place, and active-prefix shrinking only ever truncates
//! (capacity is retained). Counters are thread-local so the guard is
//! immune to allocations on other test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use t2vec_nn::batch::make_batches;
use t2vec_nn::embedding::Embedding;
use t2vec_nn::gru::{GruStack, PackedGruStack};
use t2vec_nn::infer::{EncodeScratch, InputTables, PackedEncoder};
use t2vec_nn::skipgram::{pretrain_cells, SkipGramConfig};
use t2vec_nn::{GradSet, LossKind, Seq2Seq, Seq2SeqConfig, TrainArena};
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::{BBox, Point};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::{init, parallel, Workspace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The core zero-alloc claim: after the first step warms the workspace
/// (and the obs counter slots), every further fused stack step is
/// allocation-free.
#[test]
fn fused_stack_step_is_alloc_free_after_warmup() {
    let mut rng = det_rng(1);
    let stack = GruStack::new("s", 16, 24, 3, &mut rng);
    let packed = PackedGruStack::pack(&stack);
    let mut states = stack.zero_state(8);
    let x = init::uniform(8, 16, 1.0, &mut rng);
    let mut ws = Workspace::new();
    packed.step_into(&x, &mut states, &mut ws); // warmup
    let before = allocations();
    for _ in 0..100 {
        packed.step_into(&x, &mut states, &mut ws);
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state fused GRU steps must not touch the heap"
    );
}

/// Whole-bucket encodes allocate only for the harvested outputs (one
/// `Vec` per trajectory), never per timestep or per chunk: encoding 8×
/// longer sequences — one chunk against several — performs exactly the
/// same number of allocations. Pinned to one worker thread so the
/// directions run on this thread, under its counter; with two, the
/// second direction's work moves to a spawned thread and the spawn
/// itself allocates (once per bucket, whatever the length).
#[test]
fn bucket_encode_allocations_are_length_independent() {
    parallel::set_threads(1);
    let mut rng = det_rng(2);
    let emb = Embedding::new("emb", 32, 16, &mut rng);
    let fwd = GruStack::new("f", 16, 24, 2, &mut rng);
    let bwd = GruStack::new("b", 16, 24, 2, &mut rng);
    let tables = InputTables::default();
    let packed = PackedEncoder::new(&emb, &fwd, Some(&bwd), &tables);
    let idxs: Vec<usize> = (0..6).collect();
    let count_for = |len: usize, ws: &mut EncodeScratch| {
        let seqs: Vec<Vec<Token>> = (0..6)
            .map(|j| (0..len).map(|i| Token(((i + j) % 20 + 4) as u32)).collect())
            .collect();
        let refs: Vec<&[Token]> = seqs.iter().map(Vec::as_slice).collect();
        packed.encode_bucket(&refs, &idxs, ws); // warm the arena for this shape
        let before = allocations();
        packed.encode_bucket(&refs, &idxs, ws);
        allocations() - before
    };
    let mut ws = EncodeScratch::new();
    let short = count_for(8, &mut ws);
    let long = count_for(64, &mut ws);
    assert_eq!(
        short, long,
        "allocation count grew with sequence length — a per-step allocation leaked in"
    );
}

fn tiny_vocab() -> (Vocab, NeighborTable) {
    let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
    let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
    let vocab = Vocab::build(grid, pts.iter(), 2);
    let table = NeighborTable::build(&vocab, 4, 100.0);
    (vocab, table)
}

/// Once the arena and the output `GradSet` have seen the batch shapes in
/// play, a full training step — layer-major forward with its stash, NCE
/// loss (with its noise sampling), and the hand-derived backward —
/// touches the heap zero times, whichever shape comes next: the slabs
/// keep the capacity the longest batch grew, so a longer batch after a
/// shorter one reuses them.
#[test]
fn fused_train_step_is_alloc_free_after_warmup() {
    parallel::set_threads(1); // keep all work (and the counter) on this thread
    let (vocab, table) = tiny_vocab();
    let config = Seq2SeqConfig {
        vocab: vocab.size(),
        embed_dim: 8,
        hidden: 8,
        layers: 2,
        bidirectional: true,
    };
    let model = Seq2Seq::new(config, &mut det_rng(3));
    let toks: Vec<Token> = vocab.hot_tokens().collect();
    let batch_of = |src: usize, tgt: usize, rows: usize| {
        let pairs = vec![(toks[..src].to_vec(), toks[..tgt].to_vec()); rows];
        make_batches(&pairs, rows, &mut det_rng(5)).remove(0)
    };
    let (short, long) = (batch_of(4, 8, 4), batch_of(9, 16, 6));
    let kind = LossKind::SpatialNce { noise: 8 };
    let mut arena = TrainArena::new();
    let mut out = GradSet {
        loss: 0.0,
        target_tokens: 0,
        grads: Vec::new(),
    };
    let mut step = |batch| {
        let mut rng = det_rng(11);
        model.compute_grads_fused_into(batch, kind, &table, &mut rng, &mut arena, &mut out);
        assert!(out.loss.is_finite() && out.loss > 0.0);
    };
    // Warmup: grows the slabs, the output slots and the obs counter
    // slots for both shapes.
    for batch in [&short, &long, &short] {
        step(batch);
    }
    let before = allocations();
    for _ in 0..10 {
        for batch in [&short, &long, &long, &short] {
            step(batch);
        }
    }
    assert_eq!(
        allocations(),
        before,
        "steady-state fused training steps must not touch the heap"
    );
}

/// Skip-gram pretraining reuses its neighbourhoods and per-epoch
/// buffers: running more epochs performs exactly the same number of
/// allocations as running few.
#[test]
fn skipgram_pretrain_allocations_are_epoch_independent() {
    parallel::set_threads(1);
    let (vocab, _) = tiny_vocab();
    let count_for = |epochs: usize| {
        let config = SkipGramConfig {
            dim: 8,
            epochs,
            k: 4,
            context_window: 4,
            negatives: 2,
            ..Default::default()
        };
        let before = allocations();
        let table = pretrain_cells(&vocab, &config, &mut det_rng(9));
        assert_eq!(table.rows(), vocab.size());
        allocations() - before
    };
    count_for(1); // absorb one-time process inits (obs slots, lazies)
    let few = count_for(2);
    let many = count_for(6);
    assert_eq!(
        few, many,
        "per-epoch allocations leaked into skip-gram pretraining"
    );
}
