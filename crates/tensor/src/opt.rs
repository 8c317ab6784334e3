//! First-order optimizers and gradient clipping.
//!
//! The paper trains with Adam (initial learning rate `1e-3`, §V-B) and
//! clips gradients by a global max norm of 5 (§V-B, following Graves 2013).

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// Rescales a set of gradients so their *global* L2 norm does not exceed
/// `max_norm`, and returns the pre-clip norm.
///
/// This is the "enforce a maximum gradient norm constraint" scheme the
/// paper adopts (max norm 5). A non-finite norm leaves the gradients as
/// they are (scaling by `max_norm / ∞ = 0` would turn an infinite element
/// into NaN); the caller decides what such a step means.
pub fn clip_global_norm(grads: &mut [&mut Matrix], max_norm: f32) -> f32 {
    let total: f32 = grads
        .iter()
        .map(|g| g.as_slice().iter().map(|v| v * v).sum::<f32>())
        .sum();
    let norm = total.sqrt();
    if norm.is_finite() && norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        for g in grads.iter_mut() {
            g.map_inplace(|v| v * scale);
        }
    }
    norm
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// A new SGD optimizer.
    pub fn new(lr: f32) -> Self {
        Self { lr }
    }

    /// `param -= lr * grad`.
    pub fn step(&self, param: &mut Matrix, grad: &Matrix) {
        param.axpy(-self.lr, grad);
    }
}

/// Adam optimizer state for a single parameter matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl AdamState {
    /// Zero-initialised state for a parameter of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
        }
    }

    /// Number of steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Reassembles a state from its parts (used when restoring
    /// checkpoints or constructing test fixtures).
    ///
    /// # Panics
    /// Panics if the moment matrices disagree in shape.
    pub fn from_parts(m: Matrix, v: Matrix, t: u64) -> Self {
        assert_eq!(m.shape(), v.shape(), "adam: moment shape mismatch");
        Self { m, v, t }
    }

    /// The first-moment (mean) estimate.
    pub fn first_moment(&self) -> &Matrix {
        &self.m
    }

    /// The second-moment (uncentred variance) estimate.
    pub fn second_moment(&self) -> &Matrix {
        &self.v
    }
}

/// Adam hyper-parameters (Kingma & Ba 2014), shared across parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate (paper: `1e-3`).
    pub lr: f32,
    /// Exponential decay for the first moment.
    pub beta1: f32,
    /// Exponential decay for the second moment.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
}

impl Default for Adam {
    fn default() -> Self {
        Self {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

impl Adam {
    /// Adam with the given learning rate and standard betas.
    pub fn with_lr(lr: f32) -> Self {
        Self {
            lr,
            ..Self::default()
        }
    }

    /// One Adam update of `param` given `grad`, mutating `state`.
    ///
    /// # Panics
    /// Panics if shapes disagree.
    pub fn step(&self, state: &mut AdamState, param: &mut Matrix, grad: &Matrix) {
        assert_eq!(
            param.shape(),
            grad.shape(),
            "adam: param/grad shape mismatch"
        );
        assert_eq!(param.shape(), state.m.shape(), "adam: state shape mismatch");
        state.t += 1;
        let t = state.t as f32;
        let bc1 = 1.0 - self.beta1.powf(t);
        let bc2 = 1.0 - self.beta2.powf(t);
        let (b1, b2) = (self.beta1, self.beta2);
        let (lr, eps) = (self.lr, self.eps);
        let m = state.m.as_mut_slice();
        let v = state.v.as_mut_slice();
        let p = param.as_mut_slice();
        let g = grad.as_slice();
        for i in 0..p.len() {
            m[i] = b1 * m[i] + (1.0 - b1) * g[i];
            v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
            let m_hat = m[i] / bc1;
            let v_hat = v[i] / bc2;
            p[i] -= lr * m_hat / (v_hat.sqrt() + eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimise f(x) = (x - 3)^2 with each optimizer; both must converge.
    fn quadratic_descent(mut step: impl FnMut(&mut Matrix, &Matrix, usize)) -> f32 {
        let mut x = Matrix::scalar(-4.0);
        for it in 0..2000 {
            let grad = Matrix::scalar(2.0 * (x.item() - 3.0));
            step(&mut x, &grad, it);
        }
        x.item()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let sgd = Sgd::new(0.05);
        let x = quadratic_descent(|p, g, _| sgd.step(p, g));
        assert!((x - 3.0).abs() < 1e-3, "sgd ended at {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let adam = Adam::with_lr(0.05);
        let mut state = AdamState::new(1, 1);
        let x = quadratic_descent(|p, g, _| adam.step(&mut state, p, g));
        assert!((x - 3.0).abs() < 1e-2, "adam ended at {x}");
        assert_eq!(state.steps(), 2000);
    }

    #[test]
    fn adam_bias_correction_first_step() {
        // After one step from zero state, update direction must be -lr *
        // sign(g) approximately (bias-corrected), not scaled down by
        // (1-beta1).
        let adam = Adam::with_lr(0.1);
        let mut state = AdamState::new(1, 1);
        let mut p = Matrix::scalar(0.0);
        adam.step(&mut state, &mut p, &Matrix::scalar(5.0));
        assert!(
            (p.item() + 0.1).abs() < 1e-3,
            "first adam step was {}",
            p.item()
        );
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut a = Matrix::from_rows(&[&[0.3, 0.4]]);
        let before = a.clone();
        let norm = clip_global_norm(&mut [&mut a], 5.0);
        assert!((norm - 0.5).abs() < 1e-6);
        assert_eq!(a, before);
    }

    #[test]
    fn clip_rescales_large_gradients_globally() {
        let mut a = Matrix::from_rows(&[&[3.0, 0.0]]);
        let mut b = Matrix::from_rows(&[&[0.0, 4.0]]);
        let norm = clip_global_norm(&mut [&mut a, &mut b], 1.0);
        assert!((norm - 5.0).abs() < 1e-5);
        // Rescaled by 1/5; global norm is now 1.
        let new_norm = (a
            .as_slice()
            .iter()
            .chain(b.as_slice())
            .map(|v| v * v)
            .sum::<f32>())
        .sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-6);
        assert!((b.get(0, 1) - 0.8).abs() < 1e-6);
    }

    #[test]
    fn clip_leaves_non_finite_gradients_alone() {
        let mut a = Matrix::from_rows(&[&[f32::INFINITY, 1.0]]);
        let norm = clip_global_norm(&mut [&mut a], 1.0);
        assert_eq!(norm, f32::INFINITY);
        assert_eq!(a.as_slice(), &[f32::INFINITY, 1.0]);
    }

    #[test]
    fn clip_zero_gradients_is_safe() {
        let mut a = Matrix::zeros(2, 2);
        let norm = clip_global_norm(&mut [&mut a], 1.0);
        assert_eq!(norm, 0.0);
        assert_eq!(a, Matrix::zeros(2, 2));
    }
}
