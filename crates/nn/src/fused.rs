//! Fused, tape-free training backward: hand-derived BPTT over the full
//! loss graph (embedding lookup → bidirectional GRU encoder → decoder
//! stack → projection → loss).
//!
//! The test oracle `Seq2Seq::compute_grads` builds a fresh autograd
//! [`Tape`] per batch: every backward op allocates a `Matrix`, every
//! GRU step records ~19 nodes, and the gate math runs through six
//! unfused slice/add/activation ops. This module replays the *same*
//! computation with the derivative expressions written out by hand, the
//! forward activations stashed in a [`Workspace`] arena, and every
//! gradient reduction running a kernel that reduces in exactly the tape
//! kernel's float order:
//!
//! * `dY·Wᵀ` uses [`Matrix::matmul_transpose_into`] (the 32-lane
//!   tree-`dot` twin of `matmul_transpose`);
//! * `Xᵀ·dY` uses [`Matrix::transpose_matmul_into`] (the blocked-axpy
//!   twin of `transpose_matmul`);
//! * the per-`(t, layer)` gate backward is a single elementwise loop
//!   whose expressions mirror the tape's op-by-op chain, including the
//!   `+ 0.0` the tape's padded slice-gradient adds apply to every gate
//!   block (which flips `-0.0` to `+0.0` — see DESIGN.md §16).
//!
//! Accumulation order is replayed too: first-arrival gradients are
//! *copied* (the tape moves the first contribution into an empty slot),
//! later arrivals `add_assign` in the tape's node-visit order. The
//! result is **bitwise identical** to `compute_grads` — the tape stays
//! in the crate as the reference implementation and the equality is
//! asserted at 1 and 4 threads by the `seq2seq` and `train` tests.
//!
//! All intermediates live in a [`TrainArena`]; after the first call at
//! a given batch shape, a training step performs zero heap allocations
//! (asserted by `nn/tests/alloc_guard.rs`).
//!
//! [`Tape`]: t2vec_tensor::Tape

use crate::batch::Batch;
use crate::gru::GruCell;
use crate::loss::{dense_targets_into, sampled_targets_into, LossKind};
use crate::param::GradSet;
use crate::seq2seq::Seq2Seq;
use rand::Rng;
use std::collections::HashSet;
use t2vec_obs as obs;
use t2vec_spatial::vocab::{NeighborTable, Token};
use t2vec_tensor::matrix::dot;
use t2vec_tensor::tape::SoftTargets;
use t2vec_tensor::{Matrix, Workspace};

/// Per-step forward activations of one GRU stack, indexed
/// `[t * layers + l]`. `z`/`r`/`n` are the gate values, `ghn` the
/// `h_prev · Wh` candidate block (needed by the reset-gate backward),
/// `h` the post-step states.
#[derive(Debug, Default)]
struct StackStash {
    z: Vec<Matrix>,
    r: Vec<Matrix>,
    n: Vec<Matrix>,
    ghn: Vec<Matrix>,
    h: Vec<Matrix>,
}

impl StackStash {
    fn recycle_into(&mut self, ws: &mut Workspace) {
        for m in self.z.drain(..) {
            ws.recycle(m);
        }
        for m in self.r.drain(..) {
            ws.recycle(m);
        }
        for m in self.n.drain(..) {
            ws.recycle(m);
        }
        for m in self.ghn.drain(..) {
            ws.recycle(m);
        }
        for m in self.h.drain(..) {
            ws.recycle(m);
        }
    }
}

/// The double-buffered state-gradient machinery of one backward unroll:
/// `d_cur[l]` accumulates the gradient w.r.t. the states of the step
/// being processed, `d_prev[l]` collects the gradient w.r.t. the
/// previous step's states; the pair swaps after each step. The `*_init`
/// flags implement the tape's copy-on-first-arrival accumulate.
#[derive(Debug, Default)]
struct BackState {
    d_cur: Vec<Matrix>,
    d_prev: Vec<Matrix>,
    cur_init: Vec<bool>,
    prev_init: Vec<bool>,
}

impl BackState {
    fn recycle_into(&mut self, ws: &mut Workspace) {
        for m in self.d_cur.drain(..) {
            ws.recycle(m);
        }
        for m in self.d_prev.drain(..) {
            ws.recycle(m);
        }
        self.cur_init.clear();
        self.prev_init.clear();
    }
}

/// Reusable scratch for the fused training backward: a [`Workspace`]
/// matrix arena plus every `Vec` spine the unrolls need, so a
/// steady-state [`Seq2Seq::compute_grads_fused_into`] call performs no
/// heap allocation. One arena per worker thread; reuse it across
/// batches.
#[derive(Debug, Default)]
pub struct TrainArena {
    ws: Workspace,
    enc_fwd: StackStash,
    enc_bwd: StackStash,
    dec: StackStash,
    bs: BackState,
    /// Decoder initial states (one `(batch × hidden)` per layer).
    dec_init: Vec<Matrix>,
    /// Gradients w.r.t. the decoder initial states, routed back to the
    /// encoder(s).
    d_init: Vec<Matrix>,
    /// Flattened `L3` candidate rows, `[t * batch + b]`.
    cand: Vec<Vec<usize>>,
    /// Flattened `L3` weight rows, `[t * batch + b]`.
    wts: Vec<Vec<(usize, f32)>>,
    /// Dense (`L1`/`L2`) target rows for one step.
    dense: SoftTargets,
    /// Dedup scratch for the NCE noise draw.
    seen: HashSet<usize>,
    /// Token indices of one step.
    idx: Vec<usize>,
    /// Per-row candidate scores/probabilities for the sampled loss.
    sc: Vec<f32>,
    /// Copy-on-first-arrival flags, one per parameter slot.
    ginit: Vec<bool>,
}

impl TrainArena {
    /// An empty arena; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        Self::default()
    }

    /// Peak bytes the matrix arena has held (live + free buffers).
    pub fn high_water_bytes(&self) -> usize {
        self.ws.high_water_bytes()
    }
}

/// Parameter-gradient accumulators, aligned with [`Seq2Seq::params`]
/// order. Replays the tape's `accumulate`: the first arrival takes the
/// slot (a copy — preserving `-0.0` bits the way the tape's move does),
/// later arrivals `add_assign`.
struct Grads<'g> {
    slots: &'g mut Vec<Option<Matrix>>,
    init: &'g mut Vec<bool>,
}

impl Grads<'_> {
    fn acc(&mut self, i: usize, src: &Matrix) {
        let dst = self.slots[i].as_mut().expect("prepped gradient slot");
        if self.init[i] {
            dst.add_assign(src);
        } else {
            dst.as_mut_slice().copy_from_slice(src.as_slice());
            self.init[i] = true;
        }
    }
}

/// Copy-on-first-arrival accumulate for a state-gradient buffer.
fn acc_state(dst: &mut Matrix, init: &mut bool, src: &Matrix) {
    if *init {
        dst.add_assign(src);
    } else {
        dst.as_mut_slice().copy_from_slice(src.as_slice());
        *init = true;
    }
}

/// Runs one GRU stack forward over a time-major token sequence,
/// stashing every activation the backward pass needs. `rev` reads
/// `seq[len − 1 − t]` at step `t` (the backward-direction encoder).
/// `init` supplies per-layer initial states (the decoder); `h0` is the
/// shared zero state used otherwise.
///
/// Bitwise identical to the taped unroll: `matmul_into` /
/// `add_row_broadcast_assign` match the tape's `matmul`/`add_broadcast`
/// values, and the gate loop evaluates exactly the tape's per-element
/// expression chain (`σ(gx + gh)`, `tanh(gxₙ + r∘ghₙ)`,
/// `n + z∘(h − n)`).
#[allow(clippy::too_many_arguments)]
fn unroll_forward(
    cells: &[GruCell],
    emb_table: &Matrix,
    seq: &[Vec<Token>],
    rev: bool,
    rows: usize,
    init: Option<&[Matrix]>,
    stash: &mut StackStash,
    ws: &mut Workspace,
    h0: &Matrix,
) {
    debug_assert!(stash.h.is_empty(), "stash must start recycled");
    let layers = cells.len();
    let hidden = cells[0].hidden();
    let steps = seq.len();
    for _ in 0..steps * layers {
        stash.z.push(ws.take_scratch(rows, hidden));
        stash.r.push(ws.take_scratch(rows, hidden));
        stash.n.push(ws.take_scratch(rows, hidden));
        stash.ghn.push(ws.take_scratch(rows, hidden));
        stash.h.push(ws.take_scratch(rows, hidden));
    }
    let mut x_in = ws.take_scratch(rows, emb_table.cols());
    let mut gx = ws.take_scratch(rows, 3 * hidden);
    let mut gh = ws.take_scratch(rows, 3 * hidden);
    for t in 0..steps {
        let toks = if rev { &seq[steps - 1 - t] } else { &seq[t] };
        for (pos, tok) in toks.iter().enumerate() {
            x_in.row_mut(pos).copy_from_slice(emb_table.row(tok.idx()));
        }
        for l in 0..layers {
            let si = t * layers + l;
            {
                let input: &Matrix = if l == 0 { &x_in } else { &stash.h[si - 1] };
                input.matmul_into(&cells[l].wx.value, &mut gx);
            }
            gx.add_row_broadcast_assign(&cells[l].b.value);
            let (head, tail) = stash.h.split_at_mut(si);
            let h_prev: &Matrix = if t == 0 {
                init.map_or(h0, |s| &s[l])
            } else {
                &head[(t - 1) * layers + l]
            };
            h_prev.matmul_into(&cells[l].wh.value, &mut gh);
            let cur = &mut tail[0];
            let z_m = &mut stash.z[si];
            let r_m = &mut stash.r[si];
            let n_m = &mut stash.n[si];
            let ghn_m = &mut stash.ghn[si];
            for row in 0..rows {
                let gxr = gx.row(row);
                let ghr = gh.row(row);
                let hp = h_prev.row(row);
                let zr = z_m.row_mut(row);
                let rr = r_m.row_mut(row);
                let nr = n_m.row_mut(row);
                let gr = ghn_m.row_mut(row);
                let hr = cur.row_mut(row);
                for k in 0..hidden {
                    let zv = 1.0 / (1.0 + (-(gxr[k] + ghr[k])).exp());
                    let rv = 1.0 / (1.0 + (-(gxr[hidden + k] + ghr[hidden + k])).exp());
                    let ghn_v = ghr[2 * hidden + k];
                    let nv = (gxr[2 * hidden + k] + rv * ghn_v).tanh();
                    zr[k] = zv;
                    rr[k] = rv;
                    nr[k] = nv;
                    gr[k] = ghn_v;
                    hr[k] = nv + zv * (hp[k] - nv);
                }
            }
        }
    }
    ws.recycle(x_in);
    ws.recycle(gx);
    ws.recycle(gh);
}

/// The hand-derived backward of one GRU layer at one step.
///
/// The elementwise loop fuses the tape's chain — Hadamard, Sub, Tanh,
/// Sigmoid and the padded SliceCols adds — into one pass producing the
/// fused-gate gradients `dgx`/`dgh` (`[z|r|n]` blocks) and the `h − n`
/// branch gradient `dsub`. Each block value carries the tape's trailing
/// `+ 0.0` from accumulating the three padded slice gradients, which
/// flips `-0.0` to `+0.0` exactly as the tape does. The follow-up
/// kernel calls then replay the tape's node order: `dH` (into
/// `d_prev`), `dWh`, `db`, `dX` (into `dx_out` for the caller to
/// route), `dWx`.
#[allow(clippy::too_many_arguments)]
fn layer_backward(
    cell: &GruCell,
    g: &Matrix,
    z: &Matrix,
    r: &Matrix,
    n: &Matrix,
    ghn: &Matrix,
    h_prev: &Matrix,
    x_val: &Matrix,
    d_prev: Option<(&mut Matrix, &mut bool)>,
    dgx: &mut Matrix,
    dgh: &mut Matrix,
    dsub_m: &mut Matrix,
    dx_out: &mut Matrix,
    wx_slot: usize,
    grads: &mut Grads<'_>,
    ws: &mut Workspace,
) {
    let rows = g.rows();
    let hidden = cell.hidden();
    for row in 0..rows {
        let gr_ = g.row(row);
        let zr = z.row(row);
        let rr = r.row(row);
        let nr = n.row(row);
        let gnr = ghn.row(row);
        let hp = h_prev.row(row);
        let dgxr = dgx.row_mut(row);
        let dghr = dgh.row_mut(row);
        let dsr = dsub_m.row_mut(row);
        for k in 0..hidden {
            let gv = gr_[k];
            let zv = zr[k];
            let rv = rr[k];
            let nv = nr[k];
            // h' = n + z∘(h − n): dz = g∘(h − n), dsub = g∘z,
            // dn = g + (−1)·dsub (the tape's Sub backward scales by −1).
            let sub = hp[k] - nv;
            let dzg = gv * sub;
            let dsub_v = gv * zv;
            #[allow(clippy::neg_multiply)] // spell the op the way the tape runs it
            let dn = gv + -1.0 * dsub_v;
            // tanh: da = dn·(1 − n²); r-branch: drg = da₃∘ghₙ, ds₆ = da₃∘r.
            let da3 = dn * (1.0 - nv * nv);
            let drg = da3 * gnr[k];
            let ds6 = da3 * rv;
            // sigmoid: g·y·(1 − y), grouped exactly as the tape's zip.
            let da2 = drg * rv * (1.0 - rv);
            let da1 = dzg * zv * (1.0 - zv);
            // The `+ 0.0` replays the tape accumulating three padded
            // slice gradients into each fused block (flips −0.0).
            dgxr[k] = da1 + 0.0;
            dgxr[hidden + k] = da2 + 0.0;
            dgxr[2 * hidden + k] = da3 + 0.0;
            dghr[k] = da1 + 0.0;
            dghr[hidden + k] = da2 + 0.0;
            dghr[2 * hidden + k] = ds6 + 0.0;
            dsr[k] = dsub_v;
        }
    }
    // dH = dsub, then dgh·Whᵀ — the tape's Sub-then-MatMul arrival
    // order at the previous state node.
    if let Some((dp, dp_init)) = d_prev {
        acc_state(dp, dp_init, dsub_m);
        let mut sh = ws.take_scratch(rows, hidden);
        dgh.matmul_transpose_into(&cell.wh.value, &mut sh);
        acc_state(dp, dp_init, &sh);
        ws.recycle(sh);
    }
    // dWh = h_prevᵀ · dgh (computed even for a zero h_prev: the tape
    // adds that all-zero-product contribution, and ±0.0 signs matter).
    let mut swh = ws.take_scratch(hidden, 3 * hidden);
    h_prev.transpose_matmul_into(dgh, &mut swh);
    grads.acc(wx_slot + 1, &swh);
    ws.recycle(swh);
    // db = column sums of dgx (the broadcast-add backward).
    let mut sb = ws.take_scratch(1, 3 * hidden);
    dgx.sum_rows_into(&mut sb);
    grads.acc(wx_slot + 2, &sb);
    ws.recycle(sb);
    // dX = dgx·Wxᵀ, then dWx = xᵀ·dgx — the tape's MatMul order.
    dgx.matmul_transpose_into(&cell.wx.value, dx_out);
    let mut swx = ws.take_scratch(cell.input_dim(), 3 * hidden);
    x_val.transpose_matmul_into(dgx, &mut swx);
    grads.acc(wx_slot, &swx);
    ws.recycle(swx);
}

/// Backward through one *encoder* unroll (the decoder's backward is
/// inline in [`run`] because it interleaves with the loss backward).
/// `st.d_cur` must arrive seeded with the final-state gradients (all
/// `cur_init` true). At `t == 0` the previous state is the zero leaf,
/// whose gradient the tape computes but never reads — the `dH`
/// accumulation is skipped, while `dWh` still runs against the zero
/// state (its contribution's `±0.0` signs participate in the sum).
#[allow(clippy::too_many_arguments)]
fn unroll_backward(
    cells: &[GruCell],
    emb_table: &Matrix,
    seq: &[Vec<Token>],
    rev: bool,
    rows: usize,
    stash: &StackStash,
    slot_base: usize,
    st: &mut BackState,
    grads: &mut Grads<'_>,
    ws: &mut Workspace,
    h0: &Matrix,
    demb: &mut Matrix,
    idx: &mut Vec<usize>,
) {
    let layers = cells.len();
    let hidden = cells[0].hidden();
    let s_len = seq.len();
    let mut dgx = ws.take_scratch(rows, 3 * hidden);
    let mut dgh = ws.take_scratch(rows, 3 * hidden);
    let mut dsub = ws.take_scratch(rows, hidden);
    let mut x_in = ws.take_scratch(rows, emb_table.cols());
    for t in (0..s_len).rev() {
        let toks = if rev { &seq[s_len - 1 - t] } else { &seq[t] };
        for (pos, tok) in toks.iter().enumerate() {
            x_in.row_mut(pos).copy_from_slice(emb_table.row(tok.idx()));
        }
        idx.clear();
        idx.extend(toks.iter().map(|tk| tk.idx()));
        for l in (0..layers).rev() {
            let si = t * layers + l;
            let h_prev: &Matrix = if t == 0 {
                h0
            } else {
                &stash.h[(t - 1) * layers + l]
            };
            let x_val: &Matrix = if l == 0 { &x_in } else { &stash.h[si - 1] };
            let mut dx = ws.take_scratch(rows, cells[l].input_dim());
            {
                let d_prev = if t > 0 {
                    Some((&mut st.d_prev[l], &mut st.prev_init[l]))
                } else {
                    None
                };
                layer_backward(
                    &cells[l],
                    &st.d_cur[l],
                    &stash.z[si],
                    &stash.r[si],
                    &stash.n[si],
                    &stash.ghn[si],
                    h_prev,
                    x_val,
                    d_prev,
                    &mut dgx,
                    &mut dgh,
                    &mut dsub,
                    &mut dx,
                    slot_base + 3 * l,
                    grads,
                    ws,
                );
            }
            if l > 0 {
                acc_state(&mut st.d_cur[l - 1], &mut st.cur_init[l - 1], &dx);
            } else {
                // The tape's GatherRows backward: scatter into a full
                // zeroed table, then add the whole matrix.
                demb.as_mut_slice().fill(0.0);
                demb.scatter_add_rows(idx, &dx);
                grads.acc(0, demb);
            }
            ws.recycle(dx);
        }
        if t > 0 {
            std::mem::swap(&mut st.d_cur, &mut st.d_prev);
            std::mem::swap(&mut st.cur_init, &mut st.prev_init);
            for f in st.prev_init.iter_mut() {
                *f = false;
            }
        }
    }
    ws.recycle(dgx);
    ws.recycle(dgh);
    ws.recycle(dsub);
    ws.recycle(x_in);
}

/// `(rows, cols)` of parameter slot `i` in [`Seq2Seq::params`] order:
/// embedding, forward-encoder cells, backward-encoder cells (if
/// bidirectional), decoder cells, output projection. Cell slots are
/// `(wx, wh, b)` per layer.
#[allow(clippy::too_many_arguments)]
fn slot_shape(
    i: usize,
    vocab: usize,
    embed_dim: usize,
    hidden: usize,
    dh: usize,
    layers: usize,
    dec_base: usize,
    wout_slot: usize,
) -> (usize, usize) {
    if i == 0 {
        return (vocab, embed_dim);
    }
    if i == wout_slot {
        return (vocab, hidden);
    }
    let (cell_i, width) = if i >= dec_base {
        (i - dec_base, hidden)
    } else {
        ((i - 1) % (3 * layers), dh)
    };
    let (l, part) = (cell_i / 3, cell_i % 3);
    let in_dim = if l == 0 { embed_dim } else { width };
    match part {
        0 => (in_dim, 3 * width),
        1 => (width, 3 * width),
        _ => (1, 3 * width),
    }
}

/// The fused training step: forward with activation stash, loss, and
/// hand-derived backward, writing the gradients into `out` (buffers
/// reused across calls). Bitwise identical to the tape path — see the
/// module docs.
pub(crate) fn run(
    model: &Seq2Seq,
    batch: &Batch,
    kind: LossKind,
    table: &NeighborTable,
    rng: &mut impl Rng,
    arena: &mut TrainArena,
    out: &mut GradSet,
) {
    obs::counter!("nn.train.fused_steps").incr();
    let cfg = *model.config();
    let layers = cfg.layers;
    let hidden = cfg.hidden;
    let dh = cfg.dir_hidden();
    let vocab = cfg.vocab;
    let rows = batch.batch_size;
    let emb_t = &model.embedding().table.value;
    let embed_dim = emb_t.cols();
    let enc = model.encoder().cells();
    let enc_b = model.encoder_bwd().map(|s| s.cells());
    let dec = model.decoder_stack().cells();
    let w_out = model.w_out_value();
    let bidir = enc_b.is_some();

    let enc_base = 1;
    let encb_base = enc_base + 3 * layers;
    let dec_base = encb_base + if bidir { 3 * layers } else { 0 };
    let wout_slot = dec_base + 3 * layers;
    let n_slots = wout_slot + 1;

    // Prepare the output slots: reuse each call's matrices, reshaped to
    // the parameter shapes. Contents are unspecified until the first
    // arrival copies over them.
    if out.grads.len() != n_slots {
        out.grads.clear();
        out.grads.resize_with(n_slots, || None);
    }
    for i in 0..n_slots {
        let (r, c) = slot_shape(i, vocab, embed_dim, hidden, dh, layers, dec_base, wout_slot);
        let mut m = out.grads[i]
            .take()
            .unwrap_or_else(|| arena.ws.take_scratch(r, c));
        m.reshape_scratch(r, c);
        out.grads[i] = Some(m);
    }
    arena.ginit.clear();
    arena.ginit.resize(n_slots, false);

    let s_len = batch.src.len();
    let t_steps = batch.dec_inputs.len();
    assert!(t_steps > 0, "batch has at least one decode step");
    let scale = 1.0 / batch.num_target_tokens.max(1) as f32;

    // ---- Forward ----
    let h0 = arena.ws.take(rows, dh);
    if s_len > 0 {
        unroll_forward(
            enc,
            emb_t,
            &batch.src,
            false,
            rows,
            None,
            &mut arena.enc_fwd,
            &mut arena.ws,
            &h0,
        );
        if let Some(cells_b) = enc_b {
            unroll_forward(
                cells_b,
                emb_t,
                &batch.src,
                true,
                rows,
                None,
                &mut arena.enc_bwd,
                &mut arena.ws,
                &h0,
            );
        }
    }
    debug_assert!(arena.dec_init.is_empty());
    for l in 0..layers {
        let mut m = arena.ws.take_scratch(rows, hidden);
        if s_len == 0 {
            m.as_mut_slice().fill(0.0);
        } else if bidir {
            let f = &arena.enc_fwd.h[(s_len - 1) * layers + l];
            let b = &arena.enc_bwd.h[(s_len - 1) * layers + l];
            for row in 0..rows {
                let dst = m.row_mut(row);
                dst[..dh].copy_from_slice(f.row(row));
                dst[dh..].copy_from_slice(b.row(row));
            }
        } else {
            m.as_mut_slice()
                .copy_from_slice(arena.enc_fwd.h[(s_len - 1) * layers + l].as_slice());
        }
        arena.dec_init.push(m);
    }
    unroll_forward(
        dec,
        emb_t,
        &batch.dec_inputs,
        false,
        rows,
        Some(&arena.dec_init),
        &mut arena.dec,
        &mut arena.ws,
        &h0,
    );

    // ---- Loss forward (consumes the RNG in the tape's step order) ----
    let dense_table = match kind {
        LossKind::Nll => None,
        LossKind::Spatial => Some(table),
        LossKind::SpatialNce { .. } => None,
    };
    let mut running = 0.0f32;
    match kind {
        LossKind::Nll | LossKind::Spatial => {
            let mut z = arena.ws.take_scratch(rows, vocab);
            let mut lsm = arena.ws.take_scratch(rows, vocab);
            for t in 0..t_steps {
                let h_top = &arena.dec.h[t * layers + layers - 1];
                h_top.matmul_transpose_into(w_out, &mut z);
                z.log_softmax_rows_into(&mut lsm);
                dense_targets_into(&batch.dec_targets[t], dense_table, &mut arena.dense);
                let mut total = 0.0f64;
                for (row, row_targets) in arena.dense.iter().enumerate() {
                    for &(u, w) in row_targets {
                        total -= f64::from(w) * f64::from(lsm.get(row, u));
                    }
                }
                let l_t = total as f32;
                running = if t == 0 { l_t } else { running + l_t };
            }
            arena.ws.recycle(z);
            arena.ws.recycle(lsm);
        }
        LossKind::SpatialNce { noise } => {
            let need = t_steps * rows;
            if arena.cand.len() < need {
                arena.cand.resize_with(need, Vec::new);
            }
            if arena.wts.len() < need {
                arena.wts.resize_with(need, Vec::new);
            }
            for t in 0..t_steps {
                sampled_targets_into(
                    &batch.dec_targets[t],
                    table,
                    noise,
                    vocab,
                    rng,
                    &mut arena.cand[t * rows..(t + 1) * rows],
                    &mut arena.wts[t * rows..(t + 1) * rows],
                    &mut arena.seen,
                );
                let h_top = &arena.dec.h[t * layers + layers - 1];
                let mut total = 0.0f64;
                for row in 0..rows {
                    let cand = &arena.cand[t * rows + row];
                    let wts = &arena.wts[t * rows + row];
                    if cand.is_empty() || wts.is_empty() {
                        continue;
                    }
                    let h_row = h_top.row(row);
                    arena.sc.clear();
                    arena
                        .sc
                        .extend(cand.iter().map(|&c| dot(w_out.row(c), h_row)));
                    let max = arena.sc.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let log_z = arena.sc.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
                    for &(pos, wgt) in wts {
                        total -= f64::from(wgt) * f64::from(arena.sc[pos] - log_z);
                    }
                }
                let l_t = total as f32;
                running = if t == 0 { l_t } else { running + l_t };
            }
        }
    }
    out.loss = running * scale;
    out.target_tokens = batch.num_target_tokens;

    // ---- Backward ----
    let mut grads = Grads {
        slots: &mut out.grads,
        init: &mut arena.ginit,
    };
    debug_assert!(arena.bs.d_cur.is_empty());
    for _ in 0..layers {
        arena.bs.d_cur.push(arena.ws.take_scratch(rows, hidden));
        arena.bs.d_prev.push(arena.ws.take_scratch(rows, hidden));
    }
    arena.bs.cur_init.resize(layers, false);
    arena.bs.prev_init.resize(layers, false);

    let mut demb = arena.ws.take_scratch(vocab, embed_dim);
    let mut dgx = arena.ws.take_scratch(rows, 3 * hidden);
    let mut dgh = arena.ws.take_scratch(rows, 3 * hidden);
    let mut dsub = arena.ws.take_scratch(rows, hidden);
    let mut x_in = arena.ws.take_scratch(rows, embed_dim);
    let mut dh_m = arena.ws.take_scratch(rows, hidden);
    // Dense-loss scratch (logits, probabilities, dLogits); the sampled
    // loss reuses `dt` for its scattered table gradient.
    let (mut z_s, mut p_s, mut dz_s) = match kind {
        LossKind::Nll | LossKind::Spatial => (
            Some(arena.ws.take_scratch(rows, vocab)),
            Some(arena.ws.take_scratch(rows, vocab)),
            Some(arena.ws.take_scratch(rows, vocab)),
        ),
        LossKind::SpatialNce { .. } => (None, None, None),
    };
    let mut dt_s = match kind {
        LossKind::SpatialNce { .. } => Some(arena.ws.take_scratch(vocab, hidden)),
        _ => None,
    };

    for t in (0..t_steps).rev() {
        let h_top = &arena.dec.h[t * layers + layers - 1];
        // Loss backward first (the loss nodes sit above the step's GRU
        // nodes on the tape): dh into the top state, dW_out.
        match kind {
            LossKind::Nll | LossKind::Spatial => {
                let z = z_s.as_mut().expect("dense scratch");
                let p = p_s.as_mut().expect("dense scratch");
                let dz = dz_s.as_mut().expect("dense scratch");
                h_top.matmul_transpose_into(w_out, z);
                z.softmax_rows_into(p);
                dz.as_mut_slice().fill(0.0);
                dense_targets_into(&batch.dec_targets[t], dense_table, &mut arena.dense);
                for (row, row_targets) in arena.dense.iter().enumerate() {
                    if row_targets.is_empty() {
                        continue;
                    }
                    let w_total: f32 = row_targets.iter().map(|&(_, w)| w).sum();
                    let dz_row = dz.row_mut(row);
                    for (d, &pv) in dz_row.iter_mut().zip(p.row(row).iter()) {
                        *d = w_total * pv;
                    }
                    for &(u, w) in row_targets {
                        dz_row[u] -= w;
                    }
                    for d in dz_row.iter_mut() {
                        *d *= scale;
                    }
                }
                dz.matmul_into(w_out, &mut dh_m);
                acc_state(
                    &mut arena.bs.d_cur[layers - 1],
                    &mut arena.bs.cur_init[layers - 1],
                    &dh_m,
                );
                let mut dwo = arena.ws.take_scratch(vocab, hidden);
                dz.transpose_matmul_into(h_top, &mut dwo);
                grads.acc(wout_slot, &dwo);
                arena.ws.recycle(dwo);
            }
            LossKind::SpatialNce { .. } => {
                let dt = dt_s.as_mut().expect("sampled scratch");
                dh_m.as_mut_slice().fill(0.0);
                dt.as_mut_slice().fill(0.0);
                for row in 0..rows {
                    let cand = &arena.cand[t * rows + row];
                    let wts = &arena.wts[t * rows + row];
                    if cand.is_empty() || wts.is_empty() {
                        continue;
                    }
                    let h_row = h_top.row(row);
                    arena.sc.clear();
                    arena
                        .sc
                        .extend(cand.iter().map(|&c| dot(h_row, w_out.row(c))));
                    let max = arena.sc.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                    let mut sum = 0.0;
                    for v in arena.sc.iter_mut() {
                        *v = (*v - max).exp();
                        sum += *v;
                    }
                    for v in arena.sc.iter_mut() {
                        *v /= sum;
                    }
                    let w_total: f32 = wts.iter().map(|&(_, w)| w).sum();
                    for v in arena.sc.iter_mut() {
                        *v *= w_total;
                    }
                    for &(pos, w) in wts {
                        arena.sc[pos] -= w;
                    }
                    for (j, &c) in cand.iter().enumerate() {
                        let dsj = arena.sc[j] * scale;
                        if dsj == 0.0 {
                            continue;
                        }
                        let w_row = w_out.row(c);
                        let dh_row = dh_m.row_mut(row);
                        for (dhv, &wv) in dh_row.iter_mut().zip(w_row.iter()) {
                            *dhv += dsj * wv;
                        }
                        let dt_row = dt.row_mut(c);
                        for (dtv, &hv) in dt_row.iter_mut().zip(h_row.iter()) {
                            *dtv += dsj * hv;
                        }
                    }
                }
                acc_state(
                    &mut arena.bs.d_cur[layers - 1],
                    &mut arena.bs.cur_init[layers - 1],
                    &dh_m,
                );
                grads.acc(wout_slot, dt);
            }
        }
        // GRU layers, top down; the previous-state gradient is always
        // tracked (at t == 0 it is the decoder-init gradient the
        // encoders consume).
        let toks = &batch.dec_inputs[t];
        for (pos, tok) in toks.iter().enumerate() {
            x_in.row_mut(pos).copy_from_slice(emb_t.row(tok.idx()));
        }
        arena.idx.clear();
        arena.idx.extend(toks.iter().map(|tk| tk.idx()));
        for l in (0..layers).rev() {
            let si = t * layers + l;
            let h_prev: &Matrix = if t == 0 {
                &arena.dec_init[l]
            } else {
                &arena.dec.h[(t - 1) * layers + l]
            };
            let x_val: &Matrix = if l == 0 { &x_in } else { &arena.dec.h[si - 1] };
            let mut dx = arena.ws.take_scratch(rows, dec[l].input_dim());
            layer_backward(
                &dec[l],
                &arena.bs.d_cur[l],
                &arena.dec.z[si],
                &arena.dec.r[si],
                &arena.dec.n[si],
                &arena.dec.ghn[si],
                h_prev,
                x_val,
                Some((&mut arena.bs.d_prev[l], &mut arena.bs.prev_init[l])),
                &mut dgx,
                &mut dgh,
                &mut dsub,
                &mut dx,
                dec_base + 3 * l,
                &mut grads,
                &mut arena.ws,
            );
            if l > 0 {
                acc_state(
                    &mut arena.bs.d_cur[l - 1],
                    &mut arena.bs.cur_init[l - 1],
                    &dx,
                );
            } else {
                demb.as_mut_slice().fill(0.0);
                demb.scatter_add_rows(&arena.idx, &dx);
                grads.acc(0, &demb);
            }
            arena.ws.recycle(dx);
        }
        std::mem::swap(&mut arena.bs.d_cur, &mut arena.bs.d_prev);
        std::mem::swap(&mut arena.bs.cur_init, &mut arena.bs.prev_init);
        for f in arena.bs.prev_init.iter_mut() {
            *f = false;
        }
    }
    if let Some(m) = z_s.take() {
        arena.ws.recycle(m);
    }
    if let Some(m) = p_s.take() {
        arena.ws.recycle(m);
    }
    if let Some(m) = dz_s.take() {
        arena.ws.recycle(m);
    }
    if let Some(m) = dt_s.take() {
        arena.ws.recycle(m);
    }
    arena.ws.recycle(dh_m);

    // ---- Route the decoder-init gradients back into the encoder(s).
    // The tape distributes every ConcatCols gradient before visiting
    // any encoder node, then walks the backward encoder (higher node
    // indices) before the forward one.
    if s_len > 0 {
        debug_assert!(arena.bs.cur_init.iter().all(|&f| f));
        if bidir {
            debug_assert!(arena.d_init.is_empty());
            std::mem::swap(&mut arena.bs.d_cur, &mut arena.d_init);
            for m in arena.bs.d_prev.drain(..) {
                arena.ws.recycle(m);
            }
            for _ in 0..layers {
                arena.bs.d_cur.push(arena.ws.take_scratch(rows, dh));
                arena.bs.d_prev.push(arena.ws.take_scratch(rows, dh));
            }
            // Backward-direction encoder first: seed with the right
            // half of each concat gradient.
            for l in 0..layers {
                for row in 0..rows {
                    arena.bs.d_cur[l]
                        .row_mut(row)
                        .copy_from_slice(&arena.d_init[l].row(row)[dh..]);
                }
                arena.bs.cur_init[l] = true;
                arena.bs.prev_init[l] = false;
            }
            unroll_backward(
                enc_b.expect("bidirectional"),
                emb_t,
                &batch.src,
                true,
                rows,
                &arena.enc_bwd,
                encb_base,
                &mut arena.bs,
                &mut grads,
                &mut arena.ws,
                &h0,
                &mut demb,
                &mut arena.idx,
            );
            // Forward encoder: seed with the left half.
            for l in 0..layers {
                for row in 0..rows {
                    arena.bs.d_cur[l]
                        .row_mut(row)
                        .copy_from_slice(&arena.d_init[l].row(row)[..dh]);
                }
                arena.bs.cur_init[l] = true;
                arena.bs.prev_init[l] = false;
            }
            unroll_backward(
                enc,
                emb_t,
                &batch.src,
                false,
                rows,
                &arena.enc_fwd,
                enc_base,
                &mut arena.bs,
                &mut grads,
                &mut arena.ws,
                &h0,
                &mut demb,
                &mut arena.idx,
            );
            for m in arena.d_init.drain(..) {
                arena.ws.recycle(m);
            }
        } else {
            // Unidirectional: the decoder-init gradients *are* the
            // forward encoder's final-state gradients.
            for f in arena.bs.prev_init.iter_mut() {
                *f = false;
            }
            unroll_backward(
                enc,
                emb_t,
                &batch.src,
                false,
                rows,
                &arena.enc_fwd,
                enc_base,
                &mut arena.bs,
                &mut grads,
                &mut arena.ws,
                &h0,
                &mut demb,
                &mut arena.idx,
            );
        }
    }

    // ---- Cleanup: untouched parameters report `None` exactly like the
    // tape (their buffers return to the arena for the next call).
    arena.ws.recycle(demb);
    arena.ws.recycle(dgx);
    arena.ws.recycle(dgh);
    arena.ws.recycle(dsub);
    arena.ws.recycle(x_in);
    arena.ws.recycle(h0);
    arena.bs.recycle_into(&mut arena.ws);
    for m in arena.dec_init.drain(..) {
        arena.ws.recycle(m);
    }
    arena.enc_fwd.recycle_into(&mut arena.ws);
    arena.enc_bwd.recycle_into(&mut arena.ws);
    arena.dec.recycle_into(&mut arena.ws);
    for i in 0..n_slots {
        if !arena.ginit[i] {
            if let Some(m) = out.grads[i].take() {
                arena.ws.recycle(m);
            }
        }
    }
}
