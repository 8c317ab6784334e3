//! Gated Recurrent Unit cells and stacks.
//!
//! The paper (§V-B) chooses GRU over LSTM — *"it has been shown to be as
//! good as LSTM in sequence modeling tasks, while it is much more
//! efficient to compute"* — with 3 layers and hidden size 256. The cell
//! follows Chung et al. 2014:
//!
//! ```text
//! z = σ(x·Wxz + h·Whz + bz)          update gate
//! r = σ(x·Wxr + h·Whr + br)          reset gate
//! n = tanh(x·Wxn + r ∘ (h·Whn) + bn) candidate state
//! h' = (1 − z) ∘ n + z ∘ h
//! ```
//!
//! The three input projections are fused into one `(input × 3H)` matrix
//! (and likewise the hidden projections) so each step costs two matmuls.
//! Two cell types ship here: [`GruCell`], the canonical (serialised)
//! weights, and [`PackedGruCell`], the one step everything that runs
//! uses — the inference engine ([`crate::infer`]), training
//! ([`crate::fused`]) and the decoders, the t2vec model and the vRNN
//! baseline alike. Two references exist only under `cfg(test)`: an
//! unfused, allocating `GruCell::step_raw` that the packed step is
//! pinned to bit for bit, and the tape-bound `BoundGruCell`, the
//! gradient oracle.

use crate::param::Param;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use t2vec_obs as obs;
#[cfg(test)]
use t2vec_tape::{Tape, Var};
use t2vec_tensor::matrix::matmul_rows_into;
use t2vec_tensor::{init, simd, Matrix, Workspace};

/// One GRU layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Fused input projection `(input_dim × 3·hidden)`, gate order
    /// `[z | r | n]`.
    pub wx: Param,
    /// Fused hidden projection `(hidden × 3·hidden)`, same gate order.
    pub wh: Param,
    /// Fused bias `(1 × 3·hidden)`.
    pub b: Param,
    input_dim: usize,
    hidden: usize,
}

/// The per-step tape bindings of one cell (the gradient oracle).
#[cfg(test)]
#[derive(Clone, Copy)]
pub(crate) struct BoundGruCell<'t> {
    wx: Var<'t>,
    wh: Var<'t>,
    b: Var<'t>,
    hidden: usize,
}

impl GruCell {
    /// A new cell with Xavier-initialised projections.
    pub fn new(name: &str, input_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        Self {
            wx: Param::new(
                format!("{name}.wx"),
                init::xavier_uniform(input_dim, 3 * hidden, rng),
            ),
            wh: Param::new(
                format!("{name}.wh"),
                init::xavier_uniform(hidden, 3 * hidden, rng),
            ),
            b: Param::new(format!("{name}.b"), Matrix::zeros(1, 3 * hidden)),
            input_dim,
            hidden,
        }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Binds the cell's parameters on `tape` (the gradient oracle).
    #[cfg(test)]
    pub(crate) fn bind<'t>(&self, tape: &'t Tape) -> BoundGruCell<'t> {
        BoundGruCell {
            wx: self.wx.bind(tape),
            wh: self.wh.bind(tape),
            b: self.b.bind(tape),
            hidden: self.hidden,
        }
    }

    /// Mutable references to the parameters, in `[wx, wh, b]` order —
    /// the order of the cell's gradient slots in a [`crate::GradSet`].
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.wx, &mut self.wh, &mut self.b]
    }

    /// Immutable access to the parameters, in [`GruCell::params_mut`]
    /// order.
    pub fn params(&self) -> Vec<&Param> {
        vec![&self.wx, &self.wh, &self.b]
    }

    /// The unfused reference step `h' = GRU(x, h)`: both projections
    /// into fresh matrices, then one pass per element in the order the
    /// equations read. [`PackedGruCell::step_into`] must match it bit
    /// for bit.
    #[cfg(test)]
    pub(crate) fn step_raw(&self, x: &Matrix, h: &Matrix) -> Matrix {
        let hidden = self.hidden;
        let mut gx = Matrix::zeros(x.rows(), 3 * hidden);
        x.matmul_into(&self.wx.value, &mut gx);
        let gx = gx.add_row_broadcast(&self.b.value);
        let mut gh = Matrix::zeros(h.rows(), 3 * hidden);
        h.matmul_into(&self.wh.value, &mut gh);
        let mut out = Matrix::zeros(h.rows(), hidden);
        for row in 0..h.rows() {
            let gxr = gx.row(row);
            let ghr = gh.row(row);
            let hr = h.row(row);
            let o = out.row_mut(row);
            for k in 0..hidden {
                let z = sigmoid(gxr[k] + ghr[k]);
                let r = sigmoid(gxr[hidden + k] + ghr[hidden + k]);
                let n = (gxr[2 * hidden + k] + r * ghr[2 * hidden + k]).tanh();
                o[k] = (1.0 - z) * n + z * hr[k];
            }
        }
        out
    }
}

#[cfg(test)]
fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One GRU layer prepacked for batched inference.
///
/// The canonical [`crate::param::Param`] storage already holds the
/// fused `(input × 3H)` projections in the row-major layout
/// [`matmul_rows_into`]'s fused-axpy nest streams through contiguously,
/// so packing **borrows** them — a bulk encode copies no weight — and
/// only [`PackedGruCell::into_owned`] (a long-lived service detaching
/// from the model) clones, once. (A transposed weight layout was
/// benchmarked too: its one-accumulator-per-element dot chain is
/// latency-bound and loses to the axpy nest on every GRU shape.)
///
/// A step is split into its two halves so the inference engine can run
/// a layer over many timesteps at once: [`PackedGruCell::project_into`]
/// (`x·Wx + b`, which needs no state and so takes every timestep's rows
/// in one GEMM) and [`PackedGruCell::recur_into`] (`h·Wh` and the gate
/// loop, one timestep at a time). [`PackedGruCell::step_into`] is the
/// two in sequence, bitwise identical to the unfused `cfg(test)`
/// reference `GruCell::step_raw` (asserted by proptest below).
///
/// Packed weights are never serialised; checkpoints keep the canonical
/// `GruCell` layout.
#[derive(Debug, Clone)]
pub struct PackedGruCell<'m> {
    wx: Cow<'m, Matrix>,
    wh: Cow<'m, Matrix>,
    b: Cow<'m, Matrix>,
    input_dim: usize,
    hidden: usize,
}

impl<'m> PackedGruCell<'m> {
    /// Borrows a cell's weights in the dense inference layout.
    pub fn pack(cell: &'m GruCell) -> Self {
        Self {
            wx: Cow::Borrowed(&cell.wx.value),
            wh: Cow::Borrowed(&cell.wh.value),
            b: Cow::Borrowed(&cell.b.value),
            input_dim: cell.input_dim,
            hidden: cell.hidden,
        }
    }

    /// Detaches the cell from the source model by cloning its weights.
    pub fn into_owned(self) -> PackedGruCell<'static> {
        PackedGruCell {
            wx: Cow::Owned(self.wx.into_owned()),
            wh: Cow::Owned(self.wh.into_owned()),
            b: Cow::Owned(self.b.into_owned()),
            input_dim: self.input_dim,
            hidden: self.hidden,
        }
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The recurrent weights `Wh` (`H × 3H`).
    pub(crate) fn wh(&self) -> &Matrix {
        &self.wh
    }

    /// The input half of a step, for any number of rows at once:
    /// `gx = x·Wx + b`, with `x` holding `rows × input_dim` and `gx`
    /// `rows × 3H` row-major elements. It reads no state, so the rows
    /// may be one timestep's batch, every timestep of a chunk, or every
    /// row of the embedding table — the inference engine's first layer
    /// projects each token once, into [`crate::infer::InputTables`], and
    /// copies rows from there. Each row's bytes are the same either way
    /// (see [`matmul_rows_into`]).
    pub fn project_into(&self, x: &[f32], gx: &mut [f32]) {
        obs::counter!("nn.gru.fused_step.macs").add((x.len() * 3 * self.hidden) as u64);
        matmul_rows_into(x, &self.wx, gx);
        for row in gx.chunks_exact_mut(3 * self.hidden) {
            for (g, &b) in row.iter_mut().zip(self.b.as_slice()) {
                *g += b;
            }
        }
    }

    /// The recurrent half of a step, in place: `h = GRU(gx, h)` for the
    /// `rows × H` states in `h`, given their projected inputs `gx`
    /// (`rows × 3H`, consumed as gate scratch) and a `rows × 3H` scratch
    /// `gh`. Nothing is allocated here.
    ///
    /// Bitwise identical to the unfused reference step: the matmul
    /// reduces in the same k-order, and the gate passes below apply the same
    /// per-element expressions — they are only *regrouped* so the
    /// `exp`/`tanh` run as one slice kernel each ([`simd::exp_f32`],
    /// [`simd::tanh_f32`], equal to libm's `expf`/`tanhf` bit for bit)
    /// and the pure-arithmetic passes (adds, the sigmoid divides, the
    /// state blend) vectorise. Per-element float ops are exactly rounded
    /// whatever their neighbours do, so regrouping across elements
    /// cannot change a single bit.
    pub fn recur_into(&self, gx: &mut [f32], h: &mut [f32], gh: &mut [f32]) {
        recur_into(&self.wh, gx, h, gh);
    }

    /// One whole fused step, in place: [`PackedGruCell::project_into`]
    /// then [`PackedGruCell::recur_into`] on `(batch × 3H)` scratch
    /// buffers `gx`/`gh`.
    pub fn step_into(&self, x: &Matrix, h: &mut Matrix, gx: &mut Matrix, gh: &mut Matrix) {
        let batch = x.rows();
        debug_assert_eq!(x.cols(), self.input_dim, "input width mismatch");
        debug_assert_eq!(h.shape(), (batch, self.hidden), "state shape mismatch");
        debug_assert_eq!(gx.shape(), (batch, 3 * self.hidden), "gx scratch shape");
        debug_assert_eq!(gh.shape(), (batch, 3 * self.hidden), "gh scratch shape");
        self.project_into(x.as_slice(), gx.as_mut_slice());
        self.recur_into(gx.as_mut_slice(), h.as_mut_slice(), gh.as_mut_slice());
    }
}

/// [`PackedGruCell::recur_into`] given only the cell's recurrent
/// weights `wh` (`H × 3H`): all a layer needs whose input projection
/// comes from elsewhere — the inference engine's first layer reads it
/// from a per-token table ([`crate::infer::InputTables`]).
pub(crate) fn recur_into(wh: &Matrix, gx: &mut [f32], h: &mut [f32], gh: &mut [f32]) {
    let hidden = wh.rows();
    debug_assert_eq!(gx.len(), 3 * h.len(), "gx shape");
    debug_assert_eq!(gh.len(), 3 * h.len(), "gh scratch shape");
    obs::counter!("nn.gru.fused_step.macs").add((h.len() * 3 * hidden) as u64);
    matmul_rows_into(h, wh, gh);
    let rows = gx
        .chunks_exact_mut(3 * hidden)
        .zip(gh.chunks_exact(3 * hidden))
        .zip(h.chunks_exact_mut(hidden));
    for ((gxr, ghr), o) in rows {
        // z/r gates: overwrite gx[0..2H] with sigmoid(gx + gh),
        // computed as the identical 1/(1 + exp(-(a + b))) sequence.
        for k in 0..2 * hidden {
            gxr[k] = -(gxr[k] + ghr[k]);
        }
        simd::exp_f32(&mut gxr[..2 * hidden]);
        for v in gxr[..2 * hidden].iter_mut() {
            *v = 1.0 / (1.0 + *v);
        }
        // candidate pre-activation: gx_n + r ∘ gh_n, then tanh.
        for k in 0..hidden {
            gxr[2 * hidden + k] += gxr[hidden + k] * ghr[2 * hidden + k];
        }
        simd::tanh_f32(&mut gxr[2 * hidden..3 * hidden]);
        // h' = (1 − z)∘n + z∘h, same expression as the unfused step.
        for k in 0..hidden {
            let z = gxr[k];
            o[k] = (1.0 - z) * gxr[2 * hidden + k] + z * o[k];
        }
    }
}

/// A stack of [`PackedGruCell`]s for batched inference.
#[derive(Debug, Clone)]
pub struct PackedGruStack<'m> {
    layers: Vec<PackedGruCell<'m>>,
}

impl<'m> PackedGruStack<'m> {
    /// Packs (borrows) every layer of a [`GruStack`].
    pub fn pack(stack: &'m GruStack) -> Self {
        Self {
            layers: stack.layers.iter().map(PackedGruCell::pack).collect(),
        }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.layers[0].hidden()
    }

    /// One timestep through every layer: updates each layer's
    /// `(batch × hidden)` state in place; layer `l > 0` reads layer
    /// `l−1`'s *new* state. This is the one-timestep case of what
    /// [`crate::infer`] does a chunk of timesteps at a time with the same
    /// two cell primitives, and the step the decoders take. Rows are
    /// independent: each row's bytes are the ones it would get stepped
    /// alone. Scratch comes from `ws`, so the step allocates nothing once
    /// the workspace has warmed up.
    ///
    /// # Panics
    /// Panics if `states` does not have one entry per layer.
    pub fn step_into(&self, x: &Matrix, states: &mut [Matrix], ws: &mut Workspace) {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        let batch = x.rows();
        let h3 = 3 * self.hidden();
        // Scratch (unzeroed) is safe: the matmuls overwrite every
        // element of gx/gh before the gate passes read them.
        let mut gx = ws.take_scratch(batch, h3);
        let mut gh = ws.take_scratch(batch, h3);
        for l in 0..self.layers.len() {
            let (prev, rest) = states.split_at_mut(l);
            let input = if l == 0 { x } else { &prev[l - 1] };
            self.layers[l].step_into(input, &mut rest[0], &mut gx, &mut gh);
        }
        ws.recycle(gx);
        ws.recycle(gh);
    }
}

#[cfg(test)]
impl<'t> BoundGruCell<'t> {
    /// The bound parameter vars, in the same order as
    /// [`GruCell::params_mut`].
    pub(crate) fn vars(&self) -> Vec<Var<'t>> {
        vec![self.wx, self.wh, self.b]
    }

    /// Tape-recorded step: `h' = GRU(x, h)` where `x` is `(batch ×
    /// input)` and `h` is `(batch × hidden)`.
    pub(crate) fn step(&self, x: Var<'t>, h: Var<'t>) -> Var<'t> {
        let hd = self.hidden;
        let gx = x.matmul(self.wx).add_broadcast(self.b); // (B × 3H)
        let gh = h.matmul(self.wh); // (B × 3H)
        let z = gx.slice_cols(0, hd).add(gh.slice_cols(0, hd)).sigmoid();
        let r = gx
            .slice_cols(hd, 2 * hd)
            .add(gh.slice_cols(hd, 2 * hd))
            .sigmoid();
        let n = gx
            .slice_cols(2 * hd, 3 * hd)
            .add(r.hadamard(gh.slice_cols(2 * hd, 3 * hd)))
            .tanh();
        // h' = (1 - z)∘n + z∘h = n + z∘(h - n)
        n.add(z.hadamard(h.sub(n)))
    }
}

/// A stack of GRU layers (layer `l` feeds layer `l+1`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruStack {
    layers: Vec<GruCell>,
}

/// Per-step tape bindings of a stack (the gradient oracle).
#[cfg(test)]
pub(crate) struct BoundGruStack<'t> {
    layers: Vec<BoundGruCell<'t>>,
}

impl GruStack {
    /// A stack of `num_layers` cells; the first takes `input_dim`, the
    /// rest take `hidden`.
    ///
    /// # Panics
    /// Panics if `num_layers == 0`.
    pub fn new(
        name: &str,
        input_dim: usize,
        hidden: usize,
        num_layers: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_layers > 0, "GRU stack needs at least one layer");
        let layers = (0..num_layers)
            .map(|l| {
                let in_dim = if l == 0 { input_dim } else { hidden };
                GruCell::new(&format!("{name}.l{l}"), in_dim, hidden, rng)
            })
            .collect();
        Self { layers }
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Hidden size.
    pub fn hidden(&self) -> usize {
        self.layers[0].hidden()
    }

    /// Binds all layers on `tape` (the gradient oracle).
    #[cfg(test)]
    pub(crate) fn bind<'t>(&self, tape: &'t Tape) -> BoundGruStack<'t> {
        BoundGruStack {
            layers: self.layers.iter().map(|l| l.bind(tape)).collect(),
        }
    }

    /// Mutable parameter references, layer by layer in
    /// [`GruCell::params_mut`] order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(GruCell::params_mut)
            .collect()
    }

    /// Immutable parameter references, in [`GruStack::params_mut`]
    /// order.
    pub fn params(&self) -> Vec<&Param> {
        self.layers.iter().flat_map(GruCell::params).collect()
    }

    /// Zero initial states, one `(batch × hidden)` matrix per layer.
    pub fn zero_state(&self, batch: usize) -> Vec<Matrix> {
        self.layers
            .iter()
            .map(|l| Matrix::zeros(batch, l.hidden()))
            .collect()
    }

    /// The unfused reference step through every layer (see
    /// [`GruCell::step_raw`]): updates `states` in place, layer `l > 0`
    /// reading layer `l−1`'s new state, and returns the top-layer state.
    #[cfg(test)]
    pub(crate) fn step_raw<'s>(&self, x: &Matrix, states: &'s mut [Matrix]) -> &'s Matrix {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        for l in 0..self.layers.len() {
            let (prev, rest) = states.split_at_mut(l);
            let input = if l == 0 { x } else { &prev[l - 1] };
            rest[0] = self.layers[l].step_raw(input, &rest[0]);
        }
        states.last().expect("non-empty stack")
    }

    /// Borrowed per-layer cells, in stacking order — the fused training
    /// path reads each cell's prepacked `[z|r|n]` weight matrices
    /// directly (the canonical `Param` storage already uses the fused
    /// dense layout that [`PackedGruCell::pack`] borrows).
    pub(crate) fn cells(&self) -> &[GruCell] {
        &self.layers
    }
}

#[cfg(test)]
impl<'t> BoundGruStack<'t> {
    /// All bound vars, aligned with [`GruStack::params_mut`].
    pub(crate) fn vars(&self) -> Vec<Var<'t>> {
        self.layers.iter().flat_map(BoundGruCell::vars).collect()
    }

    /// Tape-recorded step: consumes the per-layer states and returns the
    /// new ones; the last element is the top layer's output.
    pub(crate) fn step(&self, x: Var<'t>, states: &[Var<'t>]) -> Vec<Var<'t>> {
        assert_eq!(states.len(), self.layers.len(), "state count mismatch");
        let mut out = Vec::with_capacity(states.len());
        let mut input = x;
        for (layer, &state) in self.layers.iter().zip(states.iter()) {
            let h = layer.step(input, state);
            input = h;
            out.push(h);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use t2vec_tape::gradcheck::check_scalar_fn;
    use t2vec_tensor::rng::det_rng;

    #[test]
    fn taped_and_raw_steps_agree() {
        let mut rng = det_rng(1);
        let cell = GruCell::new("g", 3, 5, &mut rng);
        let x = init::uniform(4, 3, 1.0, &mut rng);
        let h = init::uniform(4, 5, 0.5, &mut rng);
        let raw = cell.step_raw(&x, &h);
        let tape = Tape::new();
        let bound = cell.bind(&tape);
        let taped = bound.step(tape.leaf(x), tape.leaf(h)).value();
        assert!(raw.max_abs_diff(&taped) < 1e-5, "taped vs raw mismatch");
    }

    #[test]
    fn stack_taped_and_raw_agree() {
        let mut rng = det_rng(2);
        let stack = GruStack::new("s", 3, 4, 3, &mut rng);
        let x = init::uniform(2, 3, 1.0, &mut rng);
        let mut states = stack.zero_state(2);
        let raw_top = stack.step_raw(&x, &mut states).clone();

        let tape = Tape::new();
        let bound = stack.bind(&tape);
        let state_vars: Vec<Var<'_>> = stack
            .zero_state(2)
            .into_iter()
            .map(|m| tape.leaf(m))
            .collect();
        let new_states = bound.step(tape.leaf(x), &state_vars);
        let taped_top = new_states.last().unwrap().value();
        assert!(raw_top.max_abs_diff(&taped_top) < 1e-5);
        // Intermediate states match too.
        for (s, v) in states.iter().zip(new_states.iter()) {
            assert!(s.max_abs_diff(&v.value()) < 1e-5);
        }
    }

    #[test]
    fn gradcheck_gru_cell_end_to_end() {
        // Check gradients through a two-step GRU unroll w.r.t. all three
        // parameter matrices and the input.
        let mut rng = det_rng(3);
        let (in_dim, hidden) = (2, 3);
        let wx = init::xavier_uniform(in_dim, 3 * hidden, &mut rng);
        let wh = init::xavier_uniform(hidden, 3 * hidden, &mut rng);
        let b = init::uniform(1, 3 * hidden, 0.1, &mut rng);
        let x1 = init::uniform(2, in_dim, 1.0, &mut rng);
        let x2 = init::uniform(2, in_dim, 1.0, &mut rng);
        check_scalar_fn(&[wx, wh, b, x1, x2], |tape, vars| {
            let (wx, wh, b, x1, x2) = (vars[0], vars[1], vars[2], vars[3], vars[4]);
            let cell = BoundGruCell {
                wx,
                wh,
                b,
                hidden: 3,
            };
            let h0 = tape.leaf(Matrix::zeros(2, 3));
            let h1 = cell.step(x1, h0);
            let h2 = cell.step(x2, h1);
            h2.tanh().sum()
        });
    }

    #[test]
    fn hidden_state_stays_bounded() {
        // GRU state is a convex combination of tanh outputs and previous
        // state, so |h| <= 1 forever when starting from zero.
        let mut rng = det_rng(4);
        let cell = GruCell::new("g", 2, 6, &mut rng);
        let mut h = Matrix::zeros(1, 6);
        for step in 0..200 {
            let x = init::uniform(1, 2, 10.0, &mut rng); // large inputs
            h = cell.step_raw(&x, &h);
            assert!(
                h.as_slice().iter().all(|v| v.abs() <= 1.0 + 1e-6),
                "state escaped bounds at step {step}"
            );
        }
    }

    #[test]
    fn zero_input_zero_state_is_stable() {
        let mut rng = det_rng(5);
        let mut cell = GruCell::new("g", 2, 3, &mut rng);
        // Zero bias => with x = 0, h = 0: z = 0.5, r = 0.5, n = 0 => h' = 0.
        cell.b = Param::new("g.b", Matrix::zeros(1, 9));
        let h = cell.step_raw(&Matrix::zeros(1, 2), &Matrix::zeros(1, 3));
        assert!(h.as_slice().iter().all(|&v| v.abs() < 1e-7));
    }

    #[test]
    fn params_order_matches_vars_order() {
        let mut rng = det_rng(6);
        let mut stack = GruStack::new("s", 2, 3, 2, &mut rng);
        let names: Vec<String> = stack.params_mut().iter().map(|p| p.name.clone()).collect();
        assert_eq!(names.len(), 6);
        assert_eq!(names[0], "s.l0.wx");
        assert_eq!(names[5], "s.l1.b");
        let tape = Tape::new();
        let bound = stack.bind(&tape);
        assert_eq!(bound.vars().len(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        let mut rng = det_rng(7);
        let _ = GruStack::new("s", 2, 3, 0, &mut rng);
    }

    proptest! {
        /// The fused/prepacked step must be **bitwise** identical to the
        /// unfused reference — every output element is the same
        /// k-ordered dot product. This identity is what lets the
        /// batched inference engine replace the per-trajectory path
        /// without perturbing GOLDEN_EXP.json.
        #[test]
        fn fused_cell_step_bitwise_matches_unfused(
            in_dim in 1usize..9, hidden in 1usize..9, batch in 1usize..6,
            seed in 0u64..1000
        ) {
            let mut rng = det_rng(seed);
            let cell = GruCell::new("g", in_dim, hidden, &mut rng);
            let packed = PackedGruCell::pack(&cell);
            let x = init::uniform(batch, in_dim, 1.0, &mut rng);
            let mut h = init::uniform(batch, hidden, 0.5, &mut rng);
            let reference = cell.step_raw(&x, &h);
            let mut gx = Matrix::zeros(batch, 3 * hidden);
            let mut gh = Matrix::zeros(batch, 3 * hidden);
            packed.step_into(&x, &mut h, &mut gx, &mut gh);
            prop_assert_eq!(h.as_slice(), reference.as_slice());
        }

        /// Same identity through a multi-layer stack over several steps
        /// (state feedback would amplify any divergence).
        #[test]
        fn fused_stack_steps_bitwise_match_unfused(
            layers in 1usize..4, steps in 1usize..6, batch in 1usize..4,
            seed in 0u64..1000
        ) {
            let mut rng = det_rng(seed);
            let stack = GruStack::new("s", 3, 5, layers, &mut rng);
            let packed = PackedGruStack::pack(&stack);
            let mut ref_states = stack.zero_state(batch);
            let mut fused_states = stack.zero_state(batch);
            let mut ws = Workspace::new();
            for _ in 0..steps {
                let x = init::uniform(batch, 3, 1.0, &mut rng);
                stack.step_raw(&x, &mut ref_states);
                packed.step_into(&x, &mut fused_states, &mut ws);
                for (a, b) in ref_states.iter().zip(fused_states.iter()) {
                    prop_assert_eq!(a.as_slice(), b.as_slice());
                }
            }
        }
    }
}
