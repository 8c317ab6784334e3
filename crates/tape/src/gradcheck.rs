//! Finite-difference gradient checking.
//!
//! Every tape operator is validated by comparing its reverse-mode
//! gradient against a central finite difference; `t2vec-nn`'s
//! `fused_gradcheck` battery uses the same step and tolerances on the
//! fused backward. Because the
//! matrices are `f32`, the checker uses a relatively large step and a
//! combined absolute/relative tolerance.

use crate::tape::{Tape, Var};
use t2vec_tensor::Matrix;

/// Default step for central differences (tuned for `f32`).
pub const DEFAULT_EPS: f32 = 2e-2;
/// Default tolerance: `|analytic − numeric| ≤ ATOL + RTOL·|numeric|`.
pub const DEFAULT_ATOL: f32 = 2e-2;
/// See [`DEFAULT_ATOL`].
pub const DEFAULT_RTOL: f32 = 5e-2;

/// Checks the analytic gradients of a scalar-valued tape function against
/// central finite differences, panicking with a diagnostic on mismatch.
///
/// `f` receives a fresh [`Tape`] and one [`Var`] per input matrix and must
/// return a `1x1` result. Used pervasively in tests:
///
/// ```
/// use t2vec_tape::gradcheck::check_scalar_fn;
/// use t2vec_tensor::Matrix;
/// let x = Matrix::from_rows(&[&[0.3, -0.7]]);
/// check_scalar_fn(&[x], |_tape, vars| vars[0].tanh().sum());
/// ```
///
/// # Panics
/// Panics if any partial derivative deviates beyond tolerance or the
/// function is not scalar-valued.
pub fn check_scalar_fn<F>(inputs: &[Matrix], f: F)
where
    F: for<'t> Fn(&'t Tape, &[Var<'t>]) -> Var<'t>,
{
    check_scalar_fn_with(inputs, f, DEFAULT_EPS, DEFAULT_ATOL, DEFAULT_RTOL)
}

/// [`check_scalar_fn`] with explicit step and tolerances.
pub fn check_scalar_fn_with<F>(inputs: &[Matrix], f: F, eps: f32, atol: f32, rtol: f32)
where
    F: for<'t> Fn(&'t Tape, &[Var<'t>]) -> Var<'t>,
{
    // Analytic gradients.
    let tape = Tape::new();
    let vars: Vec<Var<'_>> = inputs.iter().map(|m| tape.leaf(m.clone())).collect();
    let out = f(&tape, &vars);
    assert_eq!(out.shape(), (1, 1), "gradcheck requires a scalar output");
    let grads = tape.backward(out);
    let analytic: Vec<Matrix> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            grads
                .get(v)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(inputs[i].rows(), inputs[i].cols()))
        })
        .collect();

    let eval = |mats: &[Matrix]| -> f32 {
        let tape = Tape::new();
        let vars: Vec<Var<'_>> = mats.iter().map(|m| tape.leaf(m.clone())).collect();
        f(&tape, &vars).value().item()
    };

    // Numeric gradients, element by element.
    let mut work: Vec<Matrix> = inputs.to_vec();
    for (pi, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let orig = input.as_slice()[e];
            work[pi].as_mut_slice()[e] = orig + eps;
            let plus = eval(&work);
            work[pi].as_mut_slice()[e] = orig - eps;
            let minus = eval(&work);
            work[pi].as_mut_slice()[e] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let got = analytic[pi].as_slice()[e];
            let tol = atol + rtol * numeric.abs();
            assert!(
                (got - numeric).abs() <= tol,
                "gradient mismatch at input {pi} element {e}: analytic {got}, numeric \
                 {numeric} (f+: {plus}, f-: {minus})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_on_correct_gradient() {
        let x = Matrix::from_rows(&[&[0.2, -0.4], &[0.9, 0.1]]);
        check_scalar_fn(&[x], |_t, v| v[0].sigmoid().sum());
    }

    #[test]
    #[should_panic(expected = "gradient mismatch")]
    fn fails_on_wrong_gradient() {
        // scale(2) but we lie by re-scaling the value outside the tape:
        // build a function whose analytic gradient can't match numerics by
        // breaking the dependence: use value() detachment.
        let x = Matrix::from_rows(&[&[0.3]]);
        check_scalar_fn(&[x], |tape, v| {
            // detach: create a constant from the current value, so the
            // analytic gradient is zero but the numeric one is not.
            let detached = tape.leaf(v[0].value());
            detached.scale(3.0).sum()
        });
    }

    #[test]
    #[should_panic(expected = "scalar output")]
    fn rejects_non_scalar() {
        let x = Matrix::zeros(2, 2);
        check_scalar_fn(&[x], |_t, v| v[0].tanh());
    }
}
