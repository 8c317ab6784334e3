//! Reverse-mode automatic differentiation on a tape.
//!
//! A [`Tape`] records every operation applied to [`Var`] handles. Calling
//! [`Tape::backward`] on a result walks the recorded graph in reverse
//! topological order (which, for a tape, is simply reverse insertion order)
//! and accumulates adjoints into a [`Gradients`] store.
//!
//! Two *fused* loss operators are provided in addition to the generic
//! building blocks, because they are the computational core of the paper:
//!
//! * [`Var::weighted_ce_dense`] — the exact spatial-proximity-aware loss
//!   `L2` (paper Eq. 5): a cross-entropy where the target is a *soft*
//!   distribution of weights over the whole vocabulary. The plain NLL loss
//!   `L1` (Eq. 4) is the special case of one-hot weights.
//! * [`Var::sampled_weighted_ce`] — the approximate loss `L3` (paper
//!   Eq. 7): logits are computed only for a per-row candidate set
//!   `N_K(y_t) ∪ O(y_t)` (K spatial nearest cells plus NCE noise cells)
//!   and the partition function is restricted to that set.
//!
//! Both are gradient-checked against finite differences in the tests.

use std::cell::RefCell;
use t2vec_tensor::matrix::dot;
use t2vec_tensor::Matrix;

/// Per-row soft target used by the fused cross-entropy losses: pairs of
/// `(column index, weight)`. An empty row contributes zero loss and zero
/// gradient, which is how padded positions are masked out. The same type
/// as `t2vec_nn::loss::SoftTargets`.
pub type SoftTargets = Vec<Vec<(usize, f32)>>;

/// The recorded operation for one tape node.
enum Op {
    Leaf,
    MatMul(usize, usize),
    MatMulT(usize, usize),
    Add(usize, usize),
    AddBroadcast(usize, usize),
    Sub(usize, usize),
    Hadamard(usize, usize),
    Scale(usize, f32),
    Sigmoid(usize),
    Tanh(usize),
    ConcatCols(usize, usize, usize), // a, b, a.cols
    SliceCols(usize, usize, usize),  // a, start, end
    GatherRows(usize, Vec<usize>),
    Sum(usize),
    /// Fused dense weighted cross-entropy; see [`Var::weighted_ce_dense`].
    WeightedCeDense {
        logits: usize,
        targets: SoftTargets,
    },
    /// Fused candidate-sampled weighted cross-entropy; see
    /// [`Var::sampled_weighted_ce`].
    SampledWeightedCe {
        h: usize,
        table: usize,
        candidates: Vec<Vec<usize>>,
        weights: SoftTargets,
    },
}

struct Node {
    value: Matrix,
    op: Op,
}

/// The autodiff tape. Create one per forward/backward pass.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

/// A handle to a value recorded on a [`Tape`].
///
/// `Var` is `Copy`; all arithmetic methods record a new node and return a
/// new handle. Handles from different tapes must not be mixed (debug
/// assertions catch this only through shape errors).
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

/// Gradients produced by [`Tape::backward`], indexed by [`Var`].
pub struct Gradients {
    grads: Vec<Option<Matrix>>,
}

impl Gradients {
    /// The gradient of the backward root with respect to `var`, if `var`
    /// participated in the computation.
    pub fn get(&self, var: Var<'_>) -> Option<&Matrix> {
        self.grads.get(var.idx).and_then(|g| g.as_ref())
    }

    /// Takes ownership of the gradient for `var`, leaving `None`.
    pub fn take(&mut self, var: Var<'_>) -> Option<Matrix> {
        self.grads.get_mut(var.idx).and_then(|g| g.take())
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, value: Matrix, op: Op) -> Var<'_> {
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op });
        Var {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    /// Records an input (parameter or constant) on the tape.
    pub fn leaf(&self, value: Matrix) -> Var<'_> {
        self.push(value, Op::Leaf)
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.nodes.borrow()[idx].value.clone()
    }

    /// Runs reverse-mode differentiation from `root`.
    ///
    /// The adjoint of `root` is seeded with ones (for a scalar loss this is
    /// the usual `dL/dL = 1`). Returns the gradient store for every node.
    pub fn backward(&self, root: Var<'_>) -> Gradients {
        let nodes = self.nodes.borrow();
        let mut grads: Vec<Option<Matrix>> = (0..nodes.len()).map(|_| None).collect();
        let (r, c) = nodes[root.idx].value.shape();
        grads[root.idx] = Some(Matrix::full(r, c, 1.0));

        for idx in (0..nodes.len()).rev() {
            let Some(g) = grads[idx].clone() else {
                continue;
            };
            match &nodes[idx].op {
                Op::Leaf => {}
                Op::MatMul(a, b) => {
                    let da = matmul_transpose(&g, &nodes[*b].value);
                    let db = transpose_matmul(&nodes[*a].value, &g);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::MatMulT(a, b) => {
                    // y = a · bᵀ ⇒ da = g · b, db = gᵀ · a
                    let da = matmul(&g, &nodes[*b].value);
                    let db = transpose_matmul(&g, &nodes[*a].value);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Add(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g);
                }
                Op::AddBroadcast(x, bias) => {
                    accumulate(&mut grads, *bias, sum_rows(&g));
                    accumulate(&mut grads, *x, g);
                }
                Op::Sub(a, b) => {
                    accumulate(&mut grads, *a, g.clone());
                    accumulate(&mut grads, *b, g.scale(-1.0));
                }
                Op::Hadamard(a, b) => {
                    let da = hadamard(&g, &nodes[*b].value);
                    let db = hadamard(&g, &nodes[*a].value);
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::Scale(a, s) => accumulate(&mut grads, *a, g.scale(*s)),
                Op::Sigmoid(a) => {
                    let y = &nodes[idx].value;
                    let da = g.zip(y, |gv, yv| gv * yv * (1.0 - yv));
                    accumulate(&mut grads, *a, da);
                }
                Op::Tanh(a) => {
                    let y = &nodes[idx].value;
                    let da = g.zip(y, |gv, yv| gv * (1.0 - yv * yv));
                    accumulate(&mut grads, *a, da);
                }
                Op::ConcatCols(a, b, a_cols) => {
                    let da = slice_cols(&g, 0, *a_cols);
                    let db = slice_cols(&g, *a_cols, g.cols());
                    accumulate(&mut grads, *a, da);
                    accumulate(&mut grads, *b, db);
                }
                Op::SliceCols(a, start, end) => {
                    let (rows, cols) = nodes[*a].value.shape();
                    let mut da = Matrix::zeros(rows, cols);
                    for r in 0..rows {
                        da.row_mut(r)[*start..*end].copy_from_slice(g.row(r));
                    }
                    accumulate(&mut grads, *a, da);
                }
                Op::GatherRows(table, indices) => {
                    let (rows, cols) = nodes[*table].value.shape();
                    let mut dt = Matrix::zeros(rows, cols);
                    scatter_add_rows(&mut dt, indices, &g);
                    accumulate(&mut grads, *table, dt);
                }
                Op::Sum(a) => {
                    let (rows, cols) = nodes[*a].value.shape();
                    accumulate(&mut grads, *a, Matrix::full(rows, cols, g.item()));
                }
                Op::WeightedCeDense { logits, targets } => {
                    // dL/dz[t] = W_t * softmax(z[t]) - w[t]   (W_t = Σ_u w[t,u])
                    let z = &nodes[*logits].value;
                    let p = softmax_rows(z);
                    let mut dz = Matrix::zeros(z.rows(), z.cols());
                    let scale = g.item();
                    for (t, row_targets) in targets.iter().enumerate() {
                        if row_targets.is_empty() {
                            continue;
                        }
                        let w_total: f32 = row_targets.iter().map(|&(_, w)| w).sum();
                        let dz_row = dz.row_mut(t);
                        for (d, &pv) in dz_row.iter_mut().zip(p.row(t).iter()) {
                            *d = w_total * pv;
                        }
                        for &(u, w) in row_targets {
                            dz_row[u] -= w;
                        }
                        for d in dz_row.iter_mut() {
                            *d *= scale;
                        }
                    }
                    accumulate(&mut grads, *logits, dz);
                }
                Op::SampledWeightedCe {
                    h,
                    table,
                    candidates,
                    weights,
                } => {
                    let hv = &nodes[*h].value;
                    let tv = &nodes[*table].value;
                    let d = hv.cols();
                    let mut dh = Matrix::zeros(hv.rows(), d);
                    let mut dt = Matrix::zeros(tv.rows(), tv.cols());
                    let scale = g.item();
                    for (t, cand) in candidates.iter().enumerate() {
                        if cand.is_empty() || weights[t].is_empty() {
                            continue;
                        }
                        // scores over candidates
                        let h_row = hv.row(t);
                        let mut s: Vec<f32> = cand.iter().map(|&c| dot(h_row, tv.row(c))).collect();
                        let max = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                        let mut sum = 0.0;
                        for v in &mut s {
                            *v = (*v - max).exp();
                            sum += *v;
                        }
                        for v in &mut s {
                            *v /= sum; // now p_j
                        }
                        let w_total: f32 = weights[t].iter().map(|&(_, w)| w).sum();
                        // ds_j = W_t p_j - w_j
                        let mut ds = s;
                        for v in &mut ds {
                            *v *= w_total;
                        }
                        for &(pos, w) in &weights[t] {
                            ds[pos] -= w;
                        }
                        for (j, &c) in cand.iter().enumerate() {
                            let dsj = ds[j] * scale;
                            if dsj == 0.0 {
                                continue;
                            }
                            let w_row = tv.row(c);
                            let dh_row = dh.row_mut(t);
                            for (dhv, &wv) in dh_row.iter_mut().zip(w_row.iter()) {
                                *dhv += dsj * wv;
                            }
                            let dt_row = dt.row_mut(c);
                            for (dtv, &hvv) in dt_row.iter_mut().zip(h_row.iter()) {
                                *dtv += dsj * hvv;
                            }
                        }
                    }
                    accumulate(&mut grads, *h, dh);
                    accumulate(&mut grads, *table, dt);
                }
            }
        }
        Gradients { grads }
    }
}

fn accumulate(grads: &mut [Option<Matrix>], idx: usize, g: Matrix) {
    match &mut grads[idx] {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

impl<'t> Var<'t> {
    /// A clone of the value stored at this node.
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// Shape of the value at this node.
    pub fn shape(&self) -> (usize, usize) {
        let nodes = self.tape.nodes.borrow();
        nodes[self.idx].value.shape()
    }

    /// Matrix product.
    pub fn matmul(self, other: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            matmul(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        self.tape.push(v, Op::MatMul(self.idx, other.idx))
    }

    /// Matrix product against the transpose: `self (m×k) · otherᵀ (n×k)
    /// -> (m×n)`. Used for vocabulary logits `h · Wᵀ` where the output
    /// projection `W` is stored `(vocab × hidden)` so that the sampled
    /// loss can gather its rows.
    pub fn matmul_t(self, other: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            matmul_transpose(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        self.tape.push(v, Op::MatMulT(self.idx, other.idx))
    }

    /// Element-wise sum.
    #[allow(clippy::should_implement_trait)] // tape DSL, not std::ops
    pub fn add(self, other: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            nodes[self.idx].value.add(&nodes[other.idx].value)
        };
        self.tape.push(v, Op::Add(self.idx, other.idx))
    }

    /// Adds a `(1, cols)` bias row vector to every row of `self`.
    pub fn add_broadcast(self, bias: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            nodes[self.idx]
                .value
                .add_row_broadcast(&nodes[bias.idx].value)
        };
        self.tape.push(v, Op::AddBroadcast(self.idx, bias.idx))
    }

    /// Element-wise difference.
    #[allow(clippy::should_implement_trait)] // tape DSL, not std::ops
    pub fn sub(self, other: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            nodes[self.idx].value.sub(&nodes[other.idx].value)
        };
        self.tape.push(v, Op::Sub(self.idx, other.idx))
    }

    /// Element-wise product.
    pub fn hadamard(self, other: Var<'t>) -> Var<'t> {
        let v = {
            let nodes = self.tape.nodes.borrow();
            hadamard(&nodes[self.idx].value, &nodes[other.idx].value)
        };
        self.tape.push(v, Op::Hadamard(self.idx, other.idx))
    }

    /// Scalar multiple.
    pub fn scale(self, s: f32) -> Var<'t> {
        let v = self.tape.nodes.borrow()[self.idx].value.scale(s);
        self.tape.push(v, Op::Scale(self.idx, s))
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(self) -> Var<'t> {
        let v = self.tape.nodes.borrow()[self.idx]
            .value
            .map(|x| 1.0 / (1.0 + (-x).exp()));
        self.tape.push(v, Op::Sigmoid(self.idx))
    }

    /// Element-wise tanh.
    pub fn tanh(self) -> Var<'t> {
        let v = self.tape.nodes.borrow()[self.idx].value.map(f32::tanh);
        self.tape.push(v, Op::Tanh(self.idx))
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(self, other: Var<'t>) -> Var<'t> {
        let (v, a_cols) = {
            let nodes = self.tape.nodes.borrow();
            let a = &nodes[self.idx].value;
            (a.concat_cols(&nodes[other.idx].value), a.cols())
        };
        self.tape
            .push(v, Op::ConcatCols(self.idx, other.idx, a_cols))
    }

    /// Copies columns `start..end`.
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        let v = slice_cols(&self.tape.nodes.borrow()[self.idx].value, start, end);
        self.tape.push(v, Op::SliceCols(self.idx, start, end))
    }

    /// Treats `self` as an embedding table and stacks the rows at
    /// `indices` (duplicates allowed).
    pub fn gather_rows(self, indices: &[usize]) -> Var<'t> {
        let v = self.tape.nodes.borrow()[self.idx]
            .value
            .gather_rows(indices);
        self.tape
            .push(v, Op::GatherRows(self.idx, indices.to_vec()))
    }

    /// Sum of all elements (a `1x1` result).
    pub fn sum(self) -> Var<'t> {
        let v = Matrix::scalar(self.tape.nodes.borrow()[self.idx].value.sum());
        self.tape.push(v, Op::Sum(self.idx))
    }

    /// Fused dense weighted cross-entropy (paper Eq. 5 / `L2`; Eq. 4 / `L1`
    /// when the weights are one-hot).
    ///
    /// `self` holds per-row logits over the whole vocabulary. `targets[t]`
    /// lists `(cell, weight)` pairs; the loss is
    /// `−Σ_t Σ_(u,w) w · log softmax(logits[t])[u]`, returned as a `1x1`
    /// sum (callers typically divide by the number of live rows).
    /// Rows with an empty target list are masked out.
    pub fn weighted_ce_dense(self, targets: SoftTargets) -> Var<'t> {
        let loss = {
            let nodes = self.tape.nodes.borrow();
            let z = &nodes[self.idx].value;
            assert_eq!(
                z.rows(),
                targets.len(),
                "targets rows must match logits rows"
            );
            let lsm = log_softmax_rows(z);
            let mut total = 0.0f64;
            for (t, row_targets) in targets.iter().enumerate() {
                for &(u, w) in row_targets {
                    assert!(u < z.cols(), "target column {u} out of range");
                    total -= f64::from(w) * f64::from(lsm.get(t, u));
                }
            }
            Matrix::scalar(total as f32)
        };
        self.tape.push(
            loss,
            Op::WeightedCeDense {
                logits: self.idx,
                targets,
            },
        )
    }

    /// Fused candidate-sampled weighted cross-entropy (paper Eq. 7 / `L3`).
    ///
    /// `self` holds decoder hidden states, one row per output position;
    /// `table` is the output projection matrix `W` (vocab × hidden).
    /// For each row `t` the logits are `h_t · W[c]ᵀ` for `c ∈
    /// candidates[t]` only — the union of the K spatially nearest cells of
    /// the target and the NCE noise sample — and the softmax normalises
    /// over that candidate set. `weights[t]` assigns the spatial-proximity
    /// weights to *positions within* `candidates[t]`. Rows with empty
    /// candidates are masked out.
    ///
    /// Following Gutmann & Hyvärinen-style estimation as used in the paper,
    /// this turns the `O(|y|·|V|)` per-trajectory decoding cost of `L2`
    /// into `O(|y|·(K+|O|))`.
    pub fn sampled_weighted_ce(
        self,
        table: Var<'t>,
        candidates: Vec<Vec<usize>>,
        weights: SoftTargets,
    ) -> Var<'t> {
        assert_eq!(
            candidates.len(),
            weights.len(),
            "candidates/weights length mismatch"
        );
        let loss = {
            let nodes = self.tape.nodes.borrow();
            let h = &nodes[self.idx].value;
            let w = &nodes[table.idx].value;
            assert_eq!(
                h.rows(),
                candidates.len(),
                "candidate rows must match h rows"
            );
            assert_eq!(
                h.cols(),
                w.cols(),
                "hidden size mismatch between h and table"
            );
            let mut total = 0.0f64;
            for (t, cand) in candidates.iter().enumerate() {
                if cand.is_empty() || weights[t].is_empty() {
                    continue;
                }
                let h_row = h.row(t);
                let s: Vec<f32> = cand
                    .iter()
                    .map(|&c| {
                        assert!(c < w.rows(), "candidate {c} out of vocabulary");
                        dot(w.row(c), h_row)
                    })
                    .collect();
                let max = s.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                let log_z = s.iter().map(|v| (v - max).exp()).sum::<f32>().ln() + max;
                for &(pos, wgt) in &weights[t] {
                    assert!(pos < cand.len(), "weight position out of candidate range");
                    total -= f64::from(wgt) * f64::from(s[pos] - log_z);
                }
            }
            Matrix::scalar(total as f32)
        };
        self.tape.push(
            loss,
            Op::SampledWeightedCe {
                h: self.idx,
                table: table.idx,
                candidates,
                weights,
            },
        )
    }
}

// Each tape value and adjoint is a fresh matrix: these run the serial
// `_into` kernels into a new one.

/// `a · b`.
fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.matmul_into(b, &mut out);
    out
}

/// `a · bᵀ`.
fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    a.matmul_transpose_into(b, &mut out);
    out
}

/// `aᵀ · b`.
fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    a.transpose_matmul_into(b, &mut out);
    out
}

/// Column sums as a `(1, cols)` row vector.
fn sum_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    a.sum_rows_into(&mut out);
    out
}

/// Row-wise softmax.
fn softmax_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), a.cols());
    a.softmax_rows_into(&mut out);
    out
}

/// Row-wise log-softmax.
fn log_softmax_rows(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), a.cols());
    a.log_softmax_rows_into(&mut out);
    out
}

/// Element-wise (Hadamard) product; shapes must match.
fn hadamard(a: &Matrix, b: &Matrix) -> Matrix {
    a.zip(b, |x, y| x * y)
}

/// Copies columns `start..end` into a new matrix.
fn slice_cols(m: &Matrix, start: usize, end: usize) -> Matrix {
    assert!(start <= end && end <= m.cols(), "slice_cols out of range");
    let mut out = Matrix::zeros(m.rows(), end - start);
    for r in 0..m.rows() {
        out.row_mut(r).copy_from_slice(&m.row(r)[start..end]);
    }
    out
}

/// Adds row `i` of `grad` into row `indices[i]` of `dst` (the adjoint of
/// [`Matrix::gather_rows`]).
fn scatter_add_rows(dst: &mut Matrix, indices: &[usize], grad: &Matrix) {
    assert_eq!(indices.len(), grad.rows(), "scatter rows mismatch");
    assert_eq!(dst.cols(), grad.cols(), "scatter cols mismatch");
    for (i, &idx) in indices.iter().enumerate() {
        for (d, &s) in dst.row_mut(idx).iter_mut().zip(grad.row(i)) {
            *d += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_scalar_fn;
    use t2vec_tensor::init::uniform;
    use t2vec_tensor::rng::det_rng;

    #[test]
    fn scatter_add_rows_is_the_adjoint_of_gather() {
        let mut grad = Matrix::zeros(3, 2);
        scatter_add_rows(&mut grad, &[2, 0, 2], &Matrix::full(3, 2, 1.0));
        assert_eq!(grad.row(2), &[2.0, 2.0]); // index 2 hit twice
        assert_eq!(grad.row(0), &[1.0, 1.0]);
        assert_eq!(grad.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn slice_cols_inverts_concat_cols() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(slice_cols(&c, 0, 2), a);
        assert_eq!(slice_cols(&c, 2, 3), b);
    }

    #[test]
    fn hadamard_multiplies_elementwise() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[3.0, 0.5]]);
        let b = Matrix::from_rows(&[&[4.0, 5.0], &[-1.0, 2.0]]);
        assert_eq!(
            hadamard(&a, &b),
            Matrix::from_rows(&[&[4.0, -10.0], &[-3.0, 1.0]])
        );
    }

    #[test]
    fn backward_of_simple_chain() {
        // y = sum(tanh(x * w)); verify against hand-derived gradient.
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[0.5, -1.0]]));
        let w = tape.leaf(Matrix::from_rows(&[&[1.0], &[2.0]]));
        let y = x.matmul(w).tanh().sum();
        let pre: f32 = 0.5 * 1.0 - 2.0; // -1.5
        assert!((y.value().item() - pre.tanh()) < 1e-6);
        let grads = tape.backward(y);
        let sech2 = 1.0 - pre.tanh() * pre.tanh();
        let gw = grads.get(w).unwrap();
        assert!((gw.get(0, 0) - 0.5 * sech2).abs() < 1e-5);
        assert!((gw.get(1, 0) + sech2).abs() < 1e-5);
        let gx = grads.get(x).unwrap();
        assert!((gx.get(0, 0) - 1.0 * sech2).abs() < 1e-5);
        assert!((gx.get(0, 1) - 2.0 * sech2).abs() < 1e-5);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // y = sum(x + x) => dy/dx = 2
        let tape = Tape::new();
        let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
        let y = x.add(x).sum();
        let grads = tape.backward(y);
        assert_eq!(grads.get(x).unwrap(), &Matrix::from_rows(&[&[2.0, 2.0]]));
    }

    #[test]
    fn unused_leaf_has_no_grad() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::scalar(1.0));
        let unused = tape.leaf(Matrix::scalar(5.0));
        let y = x.scale(3.0).sum();
        let grads = tape.backward(y);
        assert!(grads.get(unused).is_none());
        assert_eq!(grads.get(x).unwrap().item(), 3.0);
    }

    #[test]
    fn gradcheck_matmul_add_bias_sigmoid() {
        let mut rng = det_rng(10);
        let x = uniform(3, 4, 1.0, &mut rng);
        let w = uniform(4, 2, 1.0, &mut rng);
        let b = uniform(1, 2, 1.0, &mut rng);
        check_scalar_fn(&[x, w, b], |_tape, vars| {
            vars[0]
                .matmul(vars[1])
                .add_broadcast(vars[2])
                .sigmoid()
                .sum()
        });
    }

    #[test]
    fn gradcheck_matmul_t() {
        let mut rng = det_rng(19);
        let h = uniform(3, 4, 1.0, &mut rng);
        let w = uniform(5, 4, 1.0, &mut rng);
        check_scalar_fn(&[h, w], |_tape, vars| {
            vars[0].matmul_t(vars[1]).tanh().sum()
        });
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let mut rng = det_rng(20);
        let a = uniform(2, 3, 1.0, &mut rng);
        let b = uniform(4, 3, 1.0, &mut rng);
        let tape = Tape::new();
        let av = tape.leaf(a.clone());
        let bv = tape.leaf(b.clone());
        let fused = av.matmul_t(bv).value();
        let explicit = matmul(&a, &b.transpose());
        assert!(fused.max_abs_diff(&explicit) < 1e-6);
    }

    #[test]
    fn gradcheck_tanh_hadamard_sub_scale() {
        let mut rng = det_rng(11);
        let a = uniform(2, 3, 1.0, &mut rng);
        let b = uniform(2, 3, 1.0, &mut rng);
        check_scalar_fn(&[a, b], |_tape, vars| {
            let t = vars[0].tanh();
            let h = t.hadamard(vars[1]);
            h.sub(vars[0]).scale(0.7).sum()
        });
    }

    #[test]
    fn gradcheck_concat_slice() {
        let mut rng = det_rng(12);
        let a = uniform(2, 3, 1.0, &mut rng);
        let b = uniform(2, 2, 1.0, &mut rng);
        check_scalar_fn(&[a, b], |_tape, vars| {
            let c = vars[0].concat_cols(vars[1]);
            let left = c.slice_cols(0, 2);
            let right = c.slice_cols(2, 5);
            left.sum().add(right.tanh().sum())
        });
    }

    #[test]
    fn gradcheck_gather_rows() {
        let mut rng = det_rng(13);
        let table = uniform(5, 3, 1.0, &mut rng);
        check_scalar_fn(&[table], |_tape, vars| {
            vars[0].gather_rows(&[0, 3, 3, 1]).tanh().sum()
        });
    }

    #[test]
    fn gradcheck_weighted_ce_dense() {
        let mut rng = det_rng(14);
        let logits = uniform(3, 6, 1.0, &mut rng);
        let targets: SoftTargets = vec![
            vec![(0, 0.6), (1, 0.3), (2, 0.1)],
            vec![(5, 1.0)],
            vec![], // masked row
        ];
        check_scalar_fn(&[logits], move |_tape, vars| {
            vars[0].weighted_ce_dense(targets.clone())
        });
    }

    #[test]
    fn gradcheck_weighted_ce_through_matmul() {
        let mut rng = det_rng(15);
        let h = uniform(2, 4, 1.0, &mut rng);
        let w = uniform(4, 5, 1.0, &mut rng);
        let targets: SoftTargets = vec![vec![(1, 0.8), (2, 0.2)], vec![(4, 1.0)]];
        check_scalar_fn(&[h, w], move |_tape, vars| {
            vars[0].matmul(vars[1]).weighted_ce_dense(targets.clone())
        });
    }

    #[test]
    fn gradcheck_sampled_weighted_ce() {
        let mut rng = det_rng(16);
        let h = uniform(3, 4, 1.0, &mut rng);
        let table = uniform(8, 4, 1.0, &mut rng);
        let candidates = vec![vec![0, 2, 5, 7], vec![1, 3], vec![]];
        let weights: SoftTargets = vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 0.9), (1, 0.1)], vec![]];
        check_scalar_fn(&[h, table], move |_tape, vars| {
            vars[0].sampled_weighted_ce(vars[1], candidates.clone(), weights.clone())
        });
    }

    #[test]
    fn sampled_ce_equals_dense_ce_when_candidates_cover_vocab() {
        // With the candidate set equal to the full vocabulary, L3's value
        // must equal L2's.
        let mut rng = det_rng(17);
        let h = uniform(2, 3, 1.0, &mut rng);
        let table = uniform(4, 3, 1.0, &mut rng);

        let tape = Tape::new();
        let hv = tape.leaf(h.clone());
        let tv = tape.leaf(table.clone());
        let cands = vec![vec![0, 1, 2, 3], vec![0, 1, 2, 3]];
        let weights: SoftTargets = vec![vec![(2, 1.0)], vec![(0, 0.7), (3, 0.3)]];
        let sampled = hv
            .sampled_weighted_ce(tv, cands, weights.clone())
            .value()
            .item();

        let tape2 = Tape::new();
        let hv2 = tape2.leaf(h);
        let tv2 = tape2.leaf(table.transpose());
        let dense_targets: SoftTargets = vec![vec![(2, 1.0)], vec![(0, 0.7), (3, 0.3)]];
        let dense = hv2
            .matmul(tv2)
            .weighted_ce_dense(dense_targets)
            .value()
            .item();
        let _ = weights;
        assert!(
            (sampled - dense).abs() < 1e-4,
            "sampled {sampled} dense {dense}"
        );
    }

    #[test]
    fn masked_rows_contribute_nothing() {
        let tape = Tape::new();
        let logits = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]));
        let loss = logits.weighted_ce_dense(vec![vec![], vec![]]);
        assert_eq!(loss.value().item(), 0.0);
        let grads = tape.backward(loss);
        assert_eq!(grads.get(logits).unwrap(), &Matrix::zeros(2, 2));
    }

    #[test]
    fn gradients_take_removes_entry() {
        let tape = Tape::new();
        let x = tape.leaf(Matrix::scalar(2.0));
        let y = x.scale(4.0).sum();
        let mut grads = tape.backward(y);
        assert_eq!(grads.take(x).unwrap().item(), 4.0);
        assert!(grads.get(x).is_none());
    }
}
