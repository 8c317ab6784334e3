//! Fused, tape-free training: a layer-major forward and a hand-derived
//! backward (BPTT) over the full loss graph (embedding lookup →
//! bidirectional GRU encoder → decoder stack → projection → loss).
//!
//! **Schedule.** Each GRU stack — forward encoder, backward encoder,
//! decoder — runs *layer by layer over all timesteps*. A layer's inputs,
//! gates and states live in contiguous slabs whose row `t·rows + b` is
//! sequence `b` at step `t`, so everything that needs no recurrent state
//! is one product per layer:
//!
//! * forward: the input projection `X·Wx + b` of every step at once
//!   ([`PackedGruCell::project_into`]); only `h·Wh` and the gate pass run
//!   per step;
//! * backward: the recurrence runs per step with only the elementwise
//!   gate backward and `dG_h·Whᵀ`, storing the gate gradients `dG_x` of
//!   every step (`dG_h` differs from it only by `r` on the candidate
//!   block); then `dX = dG_x·Wxᵀ`, `dWx = Xᵀ·dG_x`, `dWh = H_prevᵀ·dG_h`
//!   and `db = colsum(dG_x)` are one product each, the sum over `t`
//!   running inside the product. `dX` is the next layer down's incoming
//!   gradient for every step; layer 0's is scattered straight into the
//!   embedding gradient, as the `L3` loss scatters its `W_out` gradient.
//!
//! Every product is [`matmul_rows_into`]'s axpy nest; the backward's run
//! on transposes packed once per batch into the arena.
//!
//! **Bytes.** The forward, its stash and the loss are bitwise the tape
//! oracle's (`Seq2Seq::compute_grads`, `#[cfg(test)]`): the projection
//! reduces in `matmul`'s k-order whichever rows share the call, and the
//! gate pass evaluates the tape's per-element expressions, only regrouped
//! into loops. The gradients are not: the tape adds a weight gradient up
//! step by step, this backward sums over all steps inside one product, so
//! the two agree to a summation-order tolerance (the `seq2seq` and
//! `train` unit tests), and the derivation is checked against finite
//! differences (`nn/tests/fused_gradcheck.rs`). What stays bitwise is the
//! contract training relies on: the same bytes across runs, thread
//! counts, SIMD backends and resume (`nn/tests/train_determinism.rs`, the
//! golden gate, the checkpoint-resume tests).
//!
//! All intermediates are persistent slabs in a [`TrainArena`], reshaped
//! per batch; once a thread has run its largest batch shape, a training
//! step performs zero heap allocations (`nn/tests/alloc_guard.rs`).
//!
//! **Two models, one schedule.** A pass reads a borrowed `FusedView`:
//! the embedding, the encoder stack(s) if any, the decoder stack and the
//! output projection. `Seq2Seq` builds one with its encoder(s); a
//! next-token language model — the vRNN baseline (§V-A), "trained by
//! predicting the next cell" — is the same decoder stack run from zero
//! states with no encoder and the `L1` loss, and trains through
//! [`language_model_grads_into`].

use crate::batch::Batch;
use crate::embedding::Embedding;
use crate::gru::{GruCell, GruStack, PackedGruCell};
use crate::loss::{dense_targets_into, sampled_targets_into, LossKind, SoftTargets};
use crate::param::{GradSet, Param};
use rand::Rng;
use std::collections::HashSet;
use t2vec_obs as obs;
use t2vec_spatial::vocab::{NeighborTable, Token};
use t2vec_tensor::matrix::{dot, matmul_rows_into};
use t2vec_tensor::simd::{self, axpy_f32};
use t2vec_tensor::Matrix;

/// The parameters one fused pass reads, borrowed from the model. The
/// gradient slots a pass writes follow the same order: the embedding,
/// each encoder's and then the decoder's `(wx, wh, b)` per layer, then
/// the output projection.
#[derive(Clone, Copy)]
pub(crate) struct FusedView<'m> {
    /// The `(vocab × embed)` token table every stack reads.
    pub(crate) embedding: &'m Matrix,
    /// The forward encoder; empty for a language model, whose batches
    /// have no source.
    pub(crate) encoder: &'m [GruCell],
    /// The backward encoder, when bidirectional (per-direction hidden
    /// `hidden / 2`, like the forward one).
    pub(crate) encoder_bwd: Option<&'m [GruCell]>,
    /// The decoder stack, started from the encoders' final states, or
    /// from zero states when the source is empty.
    pub(crate) decoder: &'m [GruCell],
    /// The `(vocab × hidden)` output projection.
    pub(crate) w_out: &'m Matrix,
}

/// The neighbour table the spatial losses read.
fn neighbours(table: Option<&NeighborTable>) -> &NeighborTable {
    table.expect("L2 and L3 read the neighbour table")
}

/// The RNG of a pass whose loss draws nothing (`L1`): reading it is a bug.
struct NoDraws;

impl Rng for NoDraws {
    fn next_u64(&mut self) -> u64 {
        unreachable!("the L1 loss draws no noise")
    }
}

/// Forward activations of one GRU stack, one slab per layer.
#[derive(Debug, Default)]
struct StackStash {
    /// Steps the stack ran (its sequence length `T`).
    steps: usize,
    /// Layer 0's input, the embedded tokens: `T·rows × embed`.
    x: Matrix,
    /// `[z | r | n]` gate values, `T·rows × 3H`, written by the gate pass
    /// over the input projection.
    zrn: Vec<Matrix>,
    /// The candidate block of `h_prev·Wh`, `T·rows × H` (the reset-gate
    /// backward reads it).
    ghn: Vec<Matrix>,
    /// States, `(T+1)·rows × H`: block 0 is the initial state, block
    /// `t + 1` the state after step `t`.
    h: Vec<Matrix>,
}

/// Backward scratch, used by the three stacks in turn.
#[derive(Debug, Default)]
struct BackScratch {
    /// Gate gradients of every step, `T·rows × 3H`, as the input
    /// projection sees them (`[dz | dr | dn]`); once `dWx`, `db` and `dX`
    /// are taken, the candidate block is scaled by `r` in place, which
    /// makes it what `h_prev·Wh` sees, for `dWh`.
    dgx: Matrix,
    /// One step's gate gradients as `h_prev·Wh` sees them, `rows × 3H`.
    dgh: Matrix,
    /// The gradient arriving at a layer's states from the layer above,
    /// every step (`T·rows × H`); once the layer's recurrence has read
    /// it, the layer's `dX` overwrites it for the layer below.
    g_in: Matrix,
    /// Per layer, `rows × H`: the gradient at the states of the step
    /// being processed, carried from step `t + 1` to `t`.
    carry: Vec<Matrix>,
    /// One step's `dG_h·Whᵀ`.
    dh: Matrix,
    /// Packed transposes: an activation slab and a weight.
    act_t: Matrix,
    w_t: Matrix,
}

/// Loss-side scratch.
#[derive(Debug, Default)]
struct LossScratch {
    /// One step's top-layer states, the dense logits' left operand.
    h_t: Matrix,
    /// One step's dense logits and their (log-)probabilities.
    z: Matrix,
    p: Matrix,
    /// One step's dense `W_out` gradient.
    dwo: Matrix,
    /// `L3` candidate rows and weight rows, `[t·rows + b]`.
    cand: Vec<Vec<usize>>,
    wts: Vec<Vec<(usize, f32)>>,
    /// Dense (`L1`/`L2`) target rows of one step.
    dense: SoftTargets,
    /// Dedup scratch for the NCE noise draw.
    seen: HashSet<usize>,
    /// One row's candidate scores / probabilities.
    sc: Vec<f32>,
    /// The forward's `exp(sc − max)`, beside the scores it keeps.
    ex: Vec<f32>,
}

/// Reusable scratch for fused training: every slab the forward stashes
/// and the backward reads, held across calls and reshaped per batch, so
/// a steady-state [`crate::Seq2Seq::compute_grads_fused_into`] call performs no
/// heap allocation. One arena per worker thread; reuse it across
/// batches.
#[derive(Debug, Default)]
pub struct TrainArena {
    enc_fwd: StackStash,
    enc_bwd: StackStash,
    dec: StackStash,
    /// One step's `h·Wh` in the forward.
    gh: Matrix,
    back: BackScratch,
    /// The gradient the loss sends into the decoder's top-layer states,
    /// `T·rows × hidden`.
    d_top: Matrix,
    /// Gradients at the decoder's initial states (`rows × hidden` per
    /// layer), routed back to the encoder(s).
    d_init: Vec<Matrix>,
    loss: LossScratch,
}

impl TrainArena {
    /// An empty arena; slabs grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The tokens a stack reads at step `t`; the backward encoder reads the
/// source from its end.
fn step_tokens(seq: &[Vec<Token>], rev: bool, t: usize) -> &[Token] {
    if rev {
        &seq[seq.len() - 1 - t]
    } else {
        &seq[t]
    }
}

/// Packs `dst = srcᵀ` for a row-major `rows × cols` slice, tile by tile.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut Matrix) {
    const TILE: usize = 32;
    debug_assert_eq!(src.len(), rows * cols, "transpose source shape");
    dst.reshape_scratch(cols, rows);
    let d = dst.as_mut_slice();
    for r0 in (0..rows).step_by(TILE) {
        for c0 in (0..cols).step_by(TILE) {
            for r in r0..(r0 + TILE).min(rows) {
                for c in c0..(c0 + TILE).min(cols) {
                    d[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// The gradient slot of parameter `i` (prepared by [`prep_slots`]).
fn slot(slots: &mut [Option<Matrix>], i: usize) -> &mut Matrix {
    slots[i].as_mut().expect("prepped gradient slot")
}

/// The forward gate pass of one step: turns the projected inputs `g`
/// (`[gx_z | gx_r | gx_n]` per row) into `[z | r | n]` in place, saves the
/// candidate block `ghₙ` of `gh = h_prev·Wh`, and writes the new states
/// `h = n + z∘(h_prev − n)`. The expressions are the tape's —
/// `σ(gx + gh)` as `1/(1 + exp(−(gx + gh)))`, `tanh(gxₙ + r∘ghₙ)` — run
/// as the regrouped loops of [`PackedGruCell::recur_into`]; rounding is
/// per element, so the regrouping changes no bit.
fn gates_forward(
    hidden: usize,
    g: &mut [f32],
    gh: &[f32],
    h_prev: &[f32],
    h: &mut [f32],
    ghn: &mut [f32],
) {
    let rows = g
        .chunks_exact_mut(3 * hidden)
        .zip(gh.chunks_exact(3 * hidden))
        .zip(h_prev.chunks_exact(hidden).zip(h.chunks_exact_mut(hidden)))
        .zip(ghn.chunks_exact_mut(hidden));
    for (((g, gh), (hp, h)), ghn) in rows {
        let (zr, n) = g.split_at_mut(2 * hidden);
        for (v, &w) in zr.iter_mut().zip(&gh[..2 * hidden]) {
            *v = -(*v + w);
        }
        simd::exp_f32(zr);
        for v in zr.iter_mut() {
            *v = 1.0 / (1.0 + *v);
        }
        ghn.copy_from_slice(&gh[2 * hidden..]);
        for ((v, &r), &c) in n.iter_mut().zip(&zr[hidden..]).zip(ghn.iter()) {
            *v += r * c;
        }
        simd::tanh_f32(n);
        for (((h, &hp), &z), &n) in h.iter_mut().zip(hp).zip(&zr[..hidden]).zip(n.iter()) {
            *h = n + z * (hp - n);
        }
    }
}

/// The backward gate pass of one step. `carry` arrives holding the
/// gradient `g` at the step's states and leaves holding the direct
/// `h_prev` term of `h = n + z∘(h_prev − n)`, `g∘z`; `dgx`/`dgh` receive
/// the gate gradients (see [`BackScratch::dgx`]).
fn gates_backward(
    hidden: usize,
    carry: &mut [f32],
    zrn: &[f32],
    ghn: &[f32],
    h_prev: &[f32],
    dgx: &mut [f32],
    dgh: &mut [f32],
) {
    let h3 = 3 * hidden;
    let rows = carry
        .chunks_exact_mut(hidden)
        .zip(zrn.chunks_exact(h3).zip(ghn.chunks_exact(hidden)))
        .zip(h_prev.chunks_exact(hidden))
        .zip(dgx.chunks_exact_mut(h3).zip(dgh.chunks_exact_mut(h3)));
    for (((c, (gates, ghn)), hp), (dx, dh)) in rows {
        let (z, rn) = gates.split_at(hidden);
        let (r, n) = rn.split_at(hidden);
        for k in 0..hidden {
            let g = c[k];
            // h = n + z∘(h_prev − n): dz = g∘(h_prev − n), dh_prev = g∘z,
            // dn = g − g∘z; then through tanh and the two sigmoids.
            let dz = g * (hp[k] - n[k]);
            let dsub = g * z[k];
            let dn = (g - dsub) * (1.0 - n[k] * n[k]);
            let dr = dn * ghn[k] * r[k] * (1.0 - r[k]);
            let dzg = dz * z[k] * (1.0 - z[k]);
            c[k] = dsub;
            dx[k] = dzg;
            dx[hidden + k] = dr;
            dx[2 * hidden + k] = dn;
            dh[k] = dzg;
            dh[hidden + k] = dr;
            dh[2 * hidden + k] = dn * r[k];
        }
    }
}

/// Runs one GRU stack forward over `seq`, layer-major, stashing what the
/// backward needs. `init(l, h0)` writes layer `l`'s initial states.
#[allow(clippy::too_many_arguments)]
fn stack_forward(
    cells: &[GruCell],
    emb: &Matrix,
    seq: &[Vec<Token>],
    rev: bool,
    rows: usize,
    init: impl Fn(usize, &mut [f32]),
    stash: &mut StackStash,
    gh: &mut Matrix,
) {
    let hidden = cells[0].hidden();
    let steps = seq.len();
    let n = steps * rows;
    let block = rows * hidden;
    stash.steps = steps;
    stash.x.reshape_scratch(n, emb.cols());
    for t in 0..steps {
        for (b, tok) in step_tokens(seq, rev, t).iter().enumerate() {
            stash
                .x
                .row_mut(t * rows + b)
                .copy_from_slice(emb.row(tok.idx()));
        }
    }
    gh.reshape_scratch(rows, 3 * hidden);
    for slabs in [&mut stash.zrn, &mut stash.ghn, &mut stash.h] {
        slabs.resize_with(cells.len(), Matrix::default);
    }
    for (l, cell) in cells.iter().enumerate() {
        let (below, rest) = stash.h.split_at_mut(l);
        let h = &mut rest[0];
        let zrn = &mut stash.zrn[l];
        let ghn = &mut stash.ghn[l];
        zrn.reshape_scratch(n, 3 * hidden);
        ghn.reshape_scratch(n, hidden);
        h.reshape_scratch(n + rows, hidden);
        let input = if l == 0 {
            stash.x.as_slice()
        } else {
            &below[l - 1].as_slice()[block..]
        };
        PackedGruCell::pack(cell).project_into(input, zrn.as_mut_slice());
        init(l, &mut h.as_mut_slice()[..block]);
        for t in 0..steps {
            let (done, next) = h.as_mut_slice().split_at_mut((t + 1) * block);
            let h_prev = &done[t * block..];
            matmul_rows_into(h_prev, &cell.wh.value, gh.as_mut_slice());
            gates_forward(
                hidden,
                &mut zrn.as_mut_slice()[3 * t * block..3 * (t + 1) * block],
                gh.as_slice(),
                h_prev,
                &mut next[..block],
                &mut ghn.as_mut_slice()[t * block..(t + 1) * block],
            );
        }
    }
}

/// Backward through one GRU stack, top layer down, writing each layer's
/// `(wx, wh, b)` gradients into `slots[3l..3l + 3]` and scattering layer
/// 0's input gradient into `demb`. On entry `back.carry[l]` holds the
/// gradient at layer `l`'s final states and `d_top`, if any, the
/// gradient from above at the top layer's states of every step. With
/// `init_grad`, `back.carry[l]` leaves holding the gradient at layer
/// `l`'s initial states; without, step 0's `dG_h·Whᵀ` is skipped (an
/// encoder starts from the zero state, whose gradient nothing reads).
#[allow(clippy::too_many_arguments)]
fn stack_backward(
    cells: &[GruCell],
    stash: &StackStash,
    seq: &[Vec<Token>],
    rev: bool,
    rows: usize,
    d_top: Option<&Matrix>,
    init_grad: bool,
    slots: &mut [Option<Matrix>],
    demb: &mut Matrix,
    back: &mut BackScratch,
) {
    let hidden = cells[0].hidden();
    let steps = stash.steps;
    let n = steps * rows;
    let block = rows * hidden;
    back.dgx.reshape_scratch(n, 3 * hidden);
    back.dgh.reshape_scratch(rows, 3 * hidden);
    back.dh.reshape_scratch(rows, hidden);
    for l in (0..cells.len()).rev() {
        let cell = &cells[l];
        let in_dim = cell.input_dim();
        let (zrn, ghn, h) = (
            stash.zrn[l].as_slice(),
            stash.ghn[l].as_slice(),
            stash.h[l].as_slice(),
        );
        let g_in = if l + 1 == cells.len() {
            d_top.map(Matrix::as_slice)
        } else {
            Some(back.g_in.as_slice())
        };
        transpose_into(cell.wh.value.as_slice(), hidden, 3 * hidden, &mut back.w_t);
        let carry = back.carry[l].as_mut_slice();
        for t in (0..steps).rev() {
            let states = t * block..(t + 1) * block;
            let gates = 3 * t * block..3 * (t + 1) * block;
            if let Some(g) = g_in {
                for (c, &v) in carry.iter_mut().zip(&g[states.clone()]) {
                    *c += v;
                }
            }
            gates_backward(
                hidden,
                carry,
                &zrn[gates.clone()],
                &ghn[states.clone()],
                &h[states],
                &mut back.dgx.as_mut_slice()[gates],
                back.dgh.as_mut_slice(),
            );
            if t > 0 || init_grad {
                matmul_rows_into(back.dgh.as_slice(), &back.w_t, back.dh.as_mut_slice());
                for (c, &v) in carry.iter_mut().zip(back.dh.as_slice()) {
                    *c += v;
                }
            }
        }
        // The sums over t, one product each.
        let input = if l == 0 {
            stash.x.as_slice()
        } else {
            &stash.h[l - 1].as_slice()[block..]
        };
        transpose_into(input, n, in_dim, &mut back.act_t);
        let dgx = &mut back.dgx;
        matmul_rows_into(
            back.act_t.as_slice(),
            dgx,
            slot(slots, 3 * l).as_mut_slice(),
        );
        dgx.sum_rows_into(slot(slots, 3 * l + 2));
        transpose_into(cell.wx.value.as_slice(), in_dim, 3 * hidden, &mut back.w_t);
        back.g_in.reshape_scratch(n, in_dim);
        matmul_rows_into(dgx.as_slice(), &back.w_t, back.g_in.as_mut_slice());
        for (g, gates) in dgx
            .as_mut_slice()
            .chunks_exact_mut(3 * hidden)
            .zip(zrn.chunks_exact(3 * hidden))
        {
            for (dn, &r) in g[2 * hidden..].iter_mut().zip(&gates[hidden..2 * hidden]) {
                *dn *= r;
            }
        }
        transpose_into(&h[..n * hidden], n, hidden, &mut back.act_t);
        matmul_rows_into(
            back.act_t.as_slice(),
            dgx,
            slot(slots, 3 * l + 1).as_mut_slice(),
        );
        if l == 0 {
            for t in 0..steps {
                for (b, tok) in step_tokens(seq, rev, t).iter().enumerate() {
                    let src = back.g_in.row(t * rows + b);
                    for (d, &s) in demb.row_mut(tok.idx()).iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
        }
    }
}

/// Shapes `out`'s slots in [`FusedView`] order: embedding, the forward
/// encoder's, the backward encoder's (if any) and the decoder's `(wx, wh,
/// b)` per layer, then the output projection. Buffers are reused call
/// over call; contents are unspecified until the backward writes them.
fn prep_slots(view: FusedView<'_>, out: &mut GradSet) {
    let cells = (view.encoder.iter())
        .chain(view.encoder_bwd.into_iter().flatten())
        .chain(view.decoder);
    let n_slots = 2 + 3 * cells.clone().count();
    out.grads.resize_with(n_slots, || None);
    let shapes = std::iter::once(view.embedding.shape())
        .chain(cells.flat_map(|c| [c.wx.value.shape(), c.wh.value.shape(), c.b.value.shape()]))
        .chain(std::iter::once(view.w_out.shape()));
    for (g, (r, c)) in out.grads.iter_mut().zip(shapes) {
        g.get_or_insert_with(Matrix::default).reshape_scratch(r, c);
    }
}

/// Forward, stash and loss: the mean per-token loss of `batch`, bitwise
/// the tape's value, consuming the RNG in the tape's order (the `L3`
/// noise draw, step by step, row by row). `table` is read by `L2` and
/// `L3` only.
pub(crate) fn forward(
    view: FusedView<'_>,
    batch: &Batch,
    kind: LossKind,
    table: Option<&NeighborTable>,
    rng: &mut impl Rng,
    arena: &mut TrainArena,
) -> f32 {
    let dec_cells = view.decoder;
    let (hidden, vocab) = (dec_cells[0].hidden(), view.w_out.rows());
    let rows = batch.batch_size;
    let (emb, enc, enc_b, w_out) = (view.embedding, view.encoder, view.encoder_bwd, view.w_out);
    let s_len = batch.src.len();
    let t_steps = batch.dec_inputs.len();
    assert!(t_steps > 0, "batch has at least one decode step");
    assert!(
        s_len == 0 || !enc.is_empty(),
        "a model without an encoder reads no source"
    );
    let TrainArena {
        enc_fwd,
        enc_bwd,
        dec,
        gh,
        loss,
        ..
    } = arena;

    let zero = |_: usize, h0: &mut [f32]| h0.fill(0.0);
    if s_len > 0 {
        stack_forward(enc, emb, &batch.src, false, rows, zero, enc_fwd, gh);
        if let Some(cells) = enc_b {
            stack_forward(cells, emb, &batch.src, true, rows, zero, enc_bwd, gh);
        }
    }
    // The decoder starts from the encoders' final states of every layer,
    // the two directions side by side.
    let (enc_fwd, enc_bwd) = (&*enc_fwd, &*enc_bwd);
    let dec_init = |l: usize, h0: &mut [f32]| {
        if s_len == 0 {
            return h0.fill(0.0);
        }
        let dh = enc[0].hidden();
        let last = s_len * rows * dh;
        let fwd = &enc_fwd.h[l].as_slice()[last..];
        if enc_b.is_none() {
            return h0.copy_from_slice(fwd);
        }
        let bwd = &enc_bwd.h[l].as_slice()[last..];
        for ((h, f), b) in h0
            .chunks_exact_mut(hidden)
            .zip(fwd.chunks_exact(dh))
            .zip(bwd.chunks_exact(dh))
        {
            h[..dh].copy_from_slice(f);
            h[dh..].copy_from_slice(b);
        }
    };
    stack_forward(
        dec_cells,
        emb,
        &batch.dec_inputs,
        false,
        rows,
        dec_init,
        dec,
        gh,
    );

    let h_top = dec.h[dec_cells.len() - 1].as_slice();
    let block = rows * hidden;
    let mut running = 0.0f32;
    match kind {
        LossKind::Nll | LossKind::Spatial => {
            let dense_table = (kind == LossKind::Spatial).then(|| neighbours(table));
            loss.h_t.reshape_scratch(rows, hidden);
            loss.z.reshape_scratch(rows, vocab);
            loss.p.reshape_scratch(rows, vocab);
            for t in 0..t_steps {
                loss.h_t
                    .as_mut_slice()
                    .copy_from_slice(&h_top[(t + 1) * block..(t + 2) * block]);
                loss.h_t.matmul_transpose_into(w_out, &mut loss.z);
                loss.z.log_softmax_rows_into(&mut loss.p);
                dense_targets_into(&batch.dec_targets[t], dense_table, &mut loss.dense);
                let mut total = 0.0f64;
                for (row, row_targets) in loss.dense.iter().enumerate() {
                    for &(u, w) in row_targets {
                        total -= f64::from(w) * f64::from(loss.p.get(row, u));
                    }
                }
                let l_t = total as f32;
                running = if t == 0 { l_t } else { running + l_t };
            }
        }
        LossKind::SpatialNce { noise } => {
            let need = t_steps * rows;
            if loss.cand.len() < need {
                loss.cand.resize_with(need, Vec::new);
                loss.wts.resize_with(need, Vec::new);
            }
            for t in 0..t_steps {
                let at = t * rows..(t + 1) * rows;
                sampled_targets_into(
                    &batch.dec_targets[t],
                    neighbours(table),
                    noise,
                    vocab,
                    rng,
                    &mut loss.cand[at.clone()],
                    &mut loss.wts[at],
                    &mut loss.seen,
                );
                let mut total = 0.0f64;
                for row in 0..rows {
                    let (cand, wts) = (&loss.cand[t * rows + row], &loss.wts[t * rows + row]);
                    if cand.is_empty() || wts.is_empty() {
                        continue;
                    }
                    let h_row = &h_top[(t + 1) * block + row * hidden..][..hidden];
                    loss.sc.clear();
                    loss.sc
                        .extend(cand.iter().map(|&c| dot(w_out.row(c), h_row)));
                    let max = loss.sc.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    loss.ex.clear();
                    loss.ex.extend(loss.sc.iter().map(|v| v - max));
                    simd::exp_f32(&mut loss.ex);
                    let log_z = loss.ex.iter().copied().sum::<f32>().ln() + max;
                    for &(pos, wgt) in wts {
                        total -= f64::from(wgt) * f64::from(loss.sc[pos] - log_z);
                    }
                }
                let l_t = total as f32;
                running = if t == 0 { l_t } else { running + l_t };
            }
        }
    }
    running * (1.0 / batch.num_target_tokens.max(1) as f32)
}

/// The loss backward (into `d_top` and the `W_out` slot), then the three
/// stacks' backward, decoder first; the decoder's initial-state gradient
/// seeds the encoders' final states.
fn backward(
    view: FusedView<'_>,
    batch: &Batch,
    kind: LossKind,
    table: Option<&NeighborTable>,
    arena: &mut TrainArena,
    out: &mut GradSet,
) {
    let dec_cells = view.decoder;
    let (hidden, vocab, layers) = (dec_cells[0].hidden(), view.w_out.rows(), dec_cells.len());
    let rows = batch.batch_size;
    let w_out = view.w_out;
    let t_steps = batch.dec_inputs.len();
    let scale = 1.0 / batch.num_target_tokens.max(1) as f32;
    let TrainArena {
        enc_fwd,
        enc_bwd,
        dec,
        back,
        d_top,
        d_init,
        loss,
        ..
    } = arena;

    prep_slots(view, out);
    let (emb_slot, slots) = out.grads.split_at_mut(1);
    let demb = emb_slot[0].as_mut().expect("prepped gradient slot");
    demb.as_mut_slice().fill(0.0);
    // `slots[i]` is parameter `i + 1`: the encoder cells, then the decoder
    // cells, then the output projection.
    let (enc, enc_b) = (view.encoder, view.encoder_bwd);
    let enc_slots = 3 * enc.len();
    let dec_base = if enc_b.is_some() { 2 } else { 1 } * enc_slots;
    let dwo = slot(slots, dec_base + 3 * layers);
    dwo.as_mut_slice().fill(0.0);

    // ---- Loss backward: d_top for every step, dW_out.
    let h_top = dec.h[layers - 1].as_slice();
    let block = rows * hidden;
    d_top.reshape_scratch(t_steps * rows, hidden);
    d_top.as_mut_slice().fill(0.0);
    match kind {
        LossKind::Nll | LossKind::Spatial => {
            let dense_table = (kind == LossKind::Spatial).then(|| neighbours(table));
            loss.dwo.reshape_scratch(vocab, hidden);
            for t in 0..t_steps {
                loss.h_t
                    .as_mut_slice()
                    .copy_from_slice(&h_top[(t + 1) * block..(t + 2) * block]);
                loss.h_t.matmul_transpose_into(w_out, &mut loss.z);
                loss.z.softmax_rows_into(&mut loss.p);
                dense_targets_into(&batch.dec_targets[t], dense_table, &mut loss.dense);
                // dLogits = (Σw)·p − w at the targets, per live row.
                for (row, row_targets) in loss.dense.iter().enumerate() {
                    let dz = loss.p.row_mut(row);
                    if row_targets.is_empty() {
                        dz.fill(0.0);
                        continue;
                    }
                    let w_total: f32 = row_targets.iter().map(|&(_, w)| w).sum();
                    for d in dz.iter_mut() {
                        *d *= w_total;
                    }
                    for &(u, w) in row_targets {
                        dz[u] -= w;
                    }
                    for d in dz.iter_mut() {
                        *d *= scale;
                    }
                }
                matmul_rows_into(
                    loss.p.as_slice(),
                    w_out,
                    &mut d_top.as_mut_slice()[t * block..(t + 1) * block],
                );
                loss.p.transpose_matmul_into(&loss.h_t, &mut loss.dwo);
                dwo.add_assign(&loss.dwo);
            }
        }
        LossKind::SpatialNce { .. } => {
            for t in 0..t_steps {
                for row in 0..rows {
                    let (cand, wts) = (&loss.cand[t * rows + row], &loss.wts[t * rows + row]);
                    if cand.is_empty() || wts.is_empty() {
                        continue;
                    }
                    let at = t * block + row * hidden;
                    let h_row = &h_top[block + at..][..hidden];
                    loss.sc.clear();
                    loss.sc
                        .extend(cand.iter().map(|&c| dot(h_row, w_out.row(c))));
                    let max = loss.sc.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    for v in loss.sc.iter_mut() {
                        *v -= max;
                    }
                    simd::exp_f32(&mut loss.sc);
                    let mut sum = 0.0;
                    for &v in loss.sc.iter() {
                        sum += v;
                    }
                    let w_total: f32 = wts.iter().map(|&(_, w)| w).sum();
                    for v in loss.sc.iter_mut() {
                        *v = *v / sum * w_total;
                    }
                    for &(pos, w) in wts {
                        loss.sc[pos] -= w;
                    }
                    let d_row = &mut d_top.as_mut_slice()[at..at + hidden];
                    for (&c, &s) in cand.iter().zip(&loss.sc) {
                        let ds = s * scale;
                        if ds != 0.0 {
                            axpy_f32(d_row, ds, w_out.row(c));
                            axpy_f32(dwo.row_mut(c), ds, h_row);
                        }
                    }
                }
            }
        }
    }

    // ---- The decoder, whose initial-state gradient is kept.
    back.carry.resize_with(layers, Matrix::default);
    for c in back.carry.iter_mut() {
        c.reshape_scratch(rows, hidden);
        c.as_mut_slice().fill(0.0);
    }
    let dec_slots = &mut slots[dec_base..dec_base + 3 * layers];
    let inputs = &batch.dec_inputs;
    stack_backward(
        dec_cells,
        dec,
        inputs,
        false,
        rows,
        Some(d_top),
        true,
        dec_slots,
        demb,
        back,
    );
    if batch.src.is_empty() {
        // No encoder step ran: its parameters, if any, report no gradient.
        slots[..dec_base].fill(None);
        return;
    }
    let dh = enc[0].hidden();

    // ---- The encoders, each seeded at its final states with its half of
    // the decoder's initial-state gradient; the backward direction first.
    d_init.resize_with(layers, Matrix::default);
    for (d, c) in d_init.iter_mut().zip(&back.carry) {
        d.reshape_scratch(rows, hidden);
        d.as_mut_slice().copy_from_slice(c.as_slice());
    }
    let seed = |carry: &mut [Matrix], half: std::ops::Range<usize>| {
        for (c, d) in carry.iter_mut().zip(d_init.iter()) {
            c.reshape_scratch(rows, dh);
            let halves = d.as_slice().chunks_exact(hidden).map(|r| &r[half.clone()]);
            for (c, d) in c.as_mut_slice().chunks_exact_mut(dh).zip(halves) {
                c.copy_from_slice(d);
            }
        }
    };
    let src = &batch.src;
    let (enc_f_slots, rest) = slots.split_at_mut(enc_slots);
    if let Some(cells) = enc_b {
        seed(&mut back.carry, dh..hidden);
        let slots = &mut rest[..enc_slots];
        stack_backward(
            cells, enc_bwd, src, true, rows, None, false, slots, demb, back,
        );
    }
    seed(&mut back.carry, 0..dh);
    stack_backward(
        enc,
        enc_fwd,
        src,
        false,
        rows,
        None,
        false,
        enc_f_slots,
        demb,
        back,
    );
}

/// One fused training step: forward with activation stash, loss and
/// hand-derived backward, writing the loss and the gradients into `out`
/// (buffers reused across calls). See the module docs.
pub(crate) fn run(
    view: FusedView<'_>,
    batch: &Batch,
    kind: LossKind,
    table: Option<&NeighborTable>,
    rng: &mut impl Rng,
    arena: &mut TrainArena,
    out: &mut GradSet,
) {
    obs::counter!("nn.train.fused_steps").incr();
    out.loss = forward(view, batch, kind, table, rng, arena);
    out.target_tokens = batch.num_target_tokens;
    backward(view, batch, kind, table, arena, out);
}

/// One fused step of a next-token language model — the vRNN baseline
/// (§V-A): `embedding`, then `stack` run from zero states, then the
/// `(vocab × hidden)` projection `w_out` under the `L1` loss. `batch`
/// has an empty `src`; `dec_inputs[t]` is each sequence's token `t` and
/// `dec_targets[t]` its token `t + 1`, as [`crate::batch::next_token_batch`]
/// builds it. Writes the mean per-token loss
/// and the gradients into `out` in `[embedding, stack.params()…,
/// w_out]` order, ready for [`crate::param::apply_grad_mats`]; `L1` draws
/// no randomness and reads no neighbour table. The schedule, arena and
/// bytes are those of [`crate::Seq2Seq::compute_grads_fused_into`] with
/// no encoder.
///
/// # Panics
/// Panics if `batch.src` is not empty or has no decode step.
pub fn language_model_grads_into(
    embedding: &Embedding,
    stack: &GruStack,
    w_out: &Param,
    batch: &Batch,
    arena: &mut TrainArena,
    out: &mut GradSet,
) {
    let view = FusedView {
        embedding: &embedding.table.value,
        encoder: &[],
        encoder_bwd: None,
        decoder: stack.cells(),
        w_out: &w_out.value,
    };
    run(view, batch, LossKind::Nll, None, &mut NoDraws, arena, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::next_token_batch;
    use crate::loss::step_loss;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::{BBox, Point};
    use t2vec_spatial::vocab::Vocab;
    use t2vec_tape::{Tape, Var};
    use t2vec_tensor::init;
    use t2vec_tensor::rng::det_rng;

    /// The tape oracle of [`language_model_grads_into`]: the embedding
    /// and a bound stack stepped from zero states, `L1` per step, the
    /// mean over target tokens, differentiated by the tape. Its RNG is
    /// [`NoDraws`], so the oracle also proves `L1` draws nothing.
    fn lm_tape(
        emb: &Embedding,
        stack: &GruStack,
        w_out: &Param,
        batch: &Batch,
        table: &NeighborTable,
    ) -> GradSet {
        let tape = Tape::new();
        let e = emb.bind(&tape);
        let gru = stack.bind(&tape);
        let w = w_out.bind(&tape);
        let mut vars = vec![e];
        vars.extend(gru.vars());
        vars.push(w);
        let mut states: Vec<Var<'_>> = stack
            .zero_state(batch.batch_size)
            .into_iter()
            .map(|m| tape.leaf(m))
            .collect();
        let mut total: Option<Var<'_>> = None;
        for (inputs, targets) in batch.dec_inputs.iter().zip(&batch.dec_targets) {
            states = gru.step(emb.lookup(e, inputs), &states);
            let h = *states.last().expect("non-empty stack");
            let vocab = w_out.value.rows();
            let l = step_loss(LossKind::Nll, h, w, targets, table, vocab, &mut NoDraws);
            total = Some(match total {
                Some(t) => t.add(l),
                None => l,
            });
        }
        let loss = total
            .expect("at least one step")
            .scale(1.0 / batch.num_target_tokens as f32);
        let value = loss.value().item();
        let mut grads = tape.backward(loss);
        GradSet {
            loss: value,
            target_tokens: batch.num_target_tokens,
            grads: vars.iter().map(|&v| grads.take(v)).collect(),
        }
    }

    #[test]
    fn language_model_entry_matches_the_tape_oracle() {
        let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
        let pts: Vec<Point> = (0..25).flat_map(|c| vec![grid.centroid(c); 3]).collect();
        let vocab = Vocab::build(grid, pts.iter(), 2);
        let table = NeighborTable::build(&vocab, 4, 100.0);
        let mut rng = det_rng(12);
        let emb = Embedding::new("e", vocab.size(), 6, &mut rng);
        let stack = GruStack::new("g", 6, 5, 2, &mut rng);
        let w_out = Param::new("w", init::xavier_uniform(vocab.size(), 5, &mut rng));
        let toks: Vec<Token> = vocab.hot_tokens().collect();
        // Length 2 is a single step; every bucket shares one arena and
        // one output set, so reuse must not leak state between shapes.
        let buckets: [Vec<&[Token]>; 3] = [
            vec![&toks[0..2], &toks[7..9], &toks[3..5]],
            vec![&toks[2..7], &toks[10..15]],
            vec![&toks[4..13]],
        ];
        let mut arena = TrainArena::new();
        let mut fused = GradSet::default();
        for seqs in &buckets {
            let batch = next_token_batch(seqs);
            language_model_grads_into(&emb, &stack, &w_out, &batch, &mut arena, &mut fused);
            assert_eq!(fused.grads.len(), 2 + 3 * stack.num_layers());
            assert!(
                fused.grads.iter().all(Option::is_some),
                "every slot written"
            );
            let oracle = lm_tape(&emb, &stack, &w_out, &batch, &table);
            oracle.assert_matches_oracle(&fused, &format!("length {}", seqs[0].len()));
        }
    }
}
