//! Named trainable parameters and the clip-then-Adam update.

use serde::{Deserialize, Serialize};
use t2vec_obs as obs;
#[cfg(test)]
use t2vec_tape::{Gradients, Tape, Var};
use t2vec_tensor::opt::{clip_global_norm, Adam, AdamState};
use t2vec_tensor::Matrix;

/// A trainable parameter: a matrix plus its Adam state and a stable name
/// (names make checkpoints and debugging legible).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Param {
    /// Diagnostic name, e.g. `"enc.l0.wx"`.
    pub name: String,
    /// Current value.
    pub value: Matrix,
    adam: AdamState,
}

impl Param {
    /// A parameter from an initial value.
    pub fn new(name: impl Into<String>, value: Matrix) -> Self {
        let (r, c) = value.shape();
        Self {
            name: name.into(),
            value,
            adam: AdamState::new(r, c),
        }
    }

    /// Records the current value as a leaf on `tape` (the gradient
    /// oracle).
    #[cfg(test)]
    pub(crate) fn bind<'t>(&self, tape: &'t Tape) -> Var<'t> {
        tape.leaf(self.value.clone())
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// `true` if the parameter is empty (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// The gradients of one training batch, detached from any tape.
///
/// Produced by `Seq2Seq::compute_grads_fused` on a worker thread against
/// shared read-only parameters (or by
/// `fused::language_model_grads_into`); consumed by [`reduce_grad_sets`]
/// and [`apply_grad_mats`] on the coordinating thread. `grads` is aligned
/// with the model's parameter order; `None` marks parameters the batch
/// never touched. The default is an empty set for the fused pass to
/// shape and fill.
#[derive(Debug, Clone, Default)]
pub struct GradSet {
    /// Mean per-token loss of the batch.
    pub loss: f32,
    /// Target-token count the mean was taken over.
    pub target_tokens: usize,
    /// Per-parameter gradients of the mean per-token loss.
    pub grads: Vec<Option<Matrix>>,
}

/// Token-weighted combination of per-batch gradient sets, reduced in
/// input order.
///
/// The result is the gradient (and loss) the group would have produced
/// as one large batch: each set is weighted by its share of the group's
/// target tokens. The reduction order — and the order of every
/// floating-point addition inside it — depends only on the input order,
/// never on which threads computed the sets, which is what makes
/// data-parallel training reproduce the serial loss trajectory exactly.
///
/// # Panics
/// Panics if `sets` is empty or the sets disagree on parameter count.
pub fn reduce_grad_sets(sets: &[GradSet]) -> GradSet {
    let first = sets.first().expect("cannot reduce zero gradient sets");
    let total_tokens: usize = sets.iter().map(|s| s.target_tokens).sum();
    let mut acc: Vec<Option<Matrix>> = vec![None; first.grads.len()];
    let mut loss = 0.0f64;
    for set in sets {
        assert_eq!(
            set.grads.len(),
            acc.len(),
            "gradient sets disagree on parameter count"
        );
        let w = set.target_tokens as f32 / total_tokens.max(1) as f32;
        loss += f64::from(set.loss) * set.target_tokens as f64;
        for (slot, grad) in acc.iter_mut().zip(set.grads.iter()) {
            if let Some(g) = grad {
                let scaled = g.scale(w);
                *slot = Some(match slot.take() {
                    Some(sum) => sum.add(&scaled),
                    None => scaled,
                });
            }
        }
    }
    GradSet {
        loss: (loss / total_tokens.max(1) as f64) as f32,
        target_tokens: total_tokens,
        grads: acc,
    }
}

/// Applies one optimisation step from detached gradient matrices: clips
/// the *global* norm to `max_norm` (paper: 5), then Adam-updates each
/// parameter. `grads` must be aligned with `params`; absent gradients
/// are skipped. Returns the pre-clip gradient norm.
///
/// A step whose norm is not finite (a NaN or infinite gradient element)
/// is skipped whole: every parameter and all Adam state stay as they
/// were, a warning is logged and `nn.train.nonfinite_steps` counts it —
/// one bad batch must not write NaN into the weights, both moments and
/// the next checkpoint.
///
/// # Panics
/// Panics if a gradient shape disagrees with its parameter.
pub fn apply_grad_mats(
    params: &mut [&mut Param],
    grads: &mut [Option<Matrix>],
    adam: &Adam,
    max_norm: f32,
) -> f32 {
    assert_eq!(
        params.len(),
        grads.len(),
        "parameter/gradient count mismatch"
    );
    let mut refs: Vec<&mut Matrix> = grads.iter_mut().flatten().collect();
    let norm = clip_global_norm(&mut refs, max_norm);
    if !norm.is_finite() {
        obs::counter!("nn.train.nonfinite_steps").incr();
        obs::warn!(target: "nn.train", "skipping an optimiser step with a non-finite gradient norm";
            norm = norm,
        );
        return norm;
    }
    for (param, grad) in params.iter_mut().zip(grads.iter()) {
        if let Some(g) = grad {
            adam.step(&mut param.adam, &mut param.value, g);
        }
    }
    norm
}

/// Applies one optimisation step straight off a tape (the oracle-side
/// twin of [`apply_grad_mats`]): extracts the gradient of every bound
/// parameter, then clips and updates. Returns the pre-clip gradient
/// norm.
///
/// `bindings` pairs each parameter with the [`Var`] it was bound to this
/// step; parameters whose gradient is absent (unused in the graph) are
/// skipped.
///
/// # Panics
/// Panics if a gradient shape disagrees with its parameter.
#[cfg(test)]
pub(crate) fn apply_grads(
    bindings: &mut [(&mut Param, Var<'_>)],
    grads: &mut Gradients,
    adam: &Adam,
    max_norm: f32,
) -> f32 {
    let mut gmats: Vec<Option<Matrix>> = bindings.iter().map(|(_, v)| grads.take(*v)).collect();
    let mut params: Vec<&mut Param> = bindings.iter_mut().map(|(p, _)| &mut **p).collect();
    apply_grad_mats(&mut params, &mut gmats, adam, max_norm)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GradSet {
        /// Checks a fused set against the tape oracle's (`self`): the loss
        /// to the bit, the target-token count and every slot's presence
        /// and shape exactly, and every gradient element within the
        /// summation-order tolerance `1e-5 + 1e-4·|tape|`. The fused
        /// backward sums each weight gradient over all steps inside one
        /// product where the tape adds it up step by step, so the last
        /// bits differ; the bound sits three orders of magnitude inside
        /// `gradcheck::DEFAULT_{ATOL,RTOL}`, so a wrong derivative cannot
        /// hide in it.
        pub(crate) fn assert_matches_oracle(&self, fused: &GradSet, ctx: &str) {
            assert_eq!(self.loss.to_bits(), fused.loss.to_bits(), "{ctx}: loss");
            assert_eq!(self.target_tokens, fused.target_tokens, "{ctx}: tokens");
            assert_eq!(self.grads.len(), fused.grads.len(), "{ctx}: slot count");
            for (i, (ga, gb)) in self.grads.iter().zip(fused.grads.iter()).enumerate() {
                match (ga, gb) {
                    (None, None) => {}
                    (Some(ma), Some(mb)) => {
                        assert_eq!(ma.shape(), mb.shape(), "{ctx}: slot {i} shape");
                        for (j, (&x, &y)) in ma.as_slice().iter().zip(mb.as_slice()).enumerate() {
                            assert!(
                                (x - y).abs() <= 1e-5 + 1e-4 * x.abs(),
                                "{ctx}: slot {i} elem {j}: tape {x} vs fused {y}"
                            );
                        }
                    }
                    _ => panic!("{ctx}: slot {i} presence differs"),
                }
            }
        }
    }

    #[test]
    fn nonfinite_gradient_step_leaves_params_and_adam_untouched() {
        // One step with a NaN slot and one with an infinite slot: neither
        // may reach a parameter or either Adam moment, and the norm is
        // still reported.
        let adam = Adam::with_lr(0.1);
        let mut a = Param::new("a", Matrix::from_rows(&[&[1.0, -2.0]]));
        let mut b = Param::new("b", Matrix::from_rows(&[&[0.5]]));
        // One finite step first, so the moments are non-trivial.
        let norm = apply_grad_mats(
            &mut [&mut a, &mut b],
            &mut [
                Some(Matrix::from_rows(&[&[0.3, 0.4]])),
                Some(Matrix::scalar(1.0)),
            ],
            &adam,
            5.0,
        );
        assert!(norm.is_finite());
        let bits = |p: &Param| -> Vec<u32> {
            [&p.value, p.adam.first_moment(), p.adam.second_moment()]
                .iter()
                .flat_map(|m| m.as_slice().iter().map(|v| v.to_bits()))
                .chain([p.adam.steps() as u32])
                .collect()
        };
        let before = (bits(&a), bits(&b));
        for bad in [f32::NAN, f32::INFINITY] {
            let mut grads = [
                Some(Matrix::from_rows(&[&[bad, 1.0]])),
                Some(Matrix::scalar(2.0)),
            ];
            let norm = apply_grad_mats(&mut [&mut a, &mut b], &mut grads, &adam, 5.0);
            assert!(!norm.is_finite(), "{bad}: norm {norm}");
            assert_eq!((bits(&a), bits(&b)), before, "{bad} reached the model");
        }
    }

    #[test]
    fn bind_and_update_roundtrip() {
        // Minimise ||p||² over a few steps; value must shrink.
        let mut p = Param::new("w", Matrix::from_rows(&[&[2.0, -3.0]]));
        let adam = Adam::with_lr(0.1);
        let start_norm = p.value.norm();
        for _ in 0..50 {
            let tape = Tape::new();
            let v = p.bind(&tape);
            let loss = v.hadamard(v).sum();
            let mut grads = tape.backward(loss);
            let mut bindings = [(&mut p, v)];
            let norm = apply_grads(&mut bindings, &mut grads, &adam, 100.0);
            assert!(norm > 0.0);
        }
        assert!(
            p.value.norm() < 0.2 * start_norm,
            "did not descend: {:?}",
            p.value
        );
    }

    #[test]
    fn unused_params_are_skipped() {
        let mut used = Param::new("used", Matrix::scalar(1.0));
        let mut unused = Param::new("unused", Matrix::scalar(5.0));
        let adam = Adam::default();
        let tape = Tape::new();
        let vu = used.bind(&tape);
        let vn = unused.bind(&tape);
        let loss = vu.scale(2.0).sum();
        let mut grads = tape.backward(loss);
        let before = unused.value.clone();
        let mut bindings = [(&mut used, vu), (&mut unused, vn)];
        apply_grads(&mut bindings, &mut grads, &adam, 5.0);
        assert_eq!(unused.value, before);
        assert_ne!(used.value.item(), 1.0);
    }

    #[test]
    fn clipping_is_global_across_params() {
        let mut a = Param::new("a", Matrix::scalar(0.0));
        let mut b = Param::new("b", Matrix::scalar(0.0));
        // Gradients (3, 4): global norm 5, clip to 1 -> effective (0.6, 0.8)
        // before Adam normalisation. We verify via the returned norm.
        let adam = Adam::default();
        let tape = Tape::new();
        let va = a.bind(&tape);
        let vb = b.bind(&tape);
        let loss = va.scale(3.0).add(vb.scale(4.0)).sum();
        let mut grads = tape.backward(loss);
        let mut bindings = [(&mut a, va), (&mut b, vb)];
        let norm = apply_grads(&mut bindings, &mut grads, &adam, 1.0);
        assert!((norm - 5.0).abs() < 1e-5);
    }

    #[test]
    fn reduce_grad_sets_is_token_weighted() {
        // Two "batches": 1 token with grad 3, 3 tokens with grad 7.
        // Combined gradient must be (1·3 + 3·7)/4 = 6, loss likewise.
        let a = GradSet {
            loss: 3.0,
            target_tokens: 1,
            grads: vec![Some(Matrix::scalar(3.0)), None],
        };
        let b = GradSet {
            loss: 7.0,
            target_tokens: 3,
            grads: vec![Some(Matrix::scalar(7.0)), Some(Matrix::scalar(4.0))],
        };
        let red = reduce_grad_sets(&[a, b]);
        assert_eq!(red.target_tokens, 4);
        assert!((red.loss - 6.0).abs() < 1e-6);
        assert!((red.grads[0].as_ref().unwrap().item() - 6.0).abs() < 1e-6);
        // Param only touched by batch b: weighted by b's token share.
        assert!((red.grads[1].as_ref().unwrap().item() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn apply_grad_mats_matches_tape_path() {
        // The detached-matrix path must take the same step as the
        // tape-extraction path for the same gradient.
        let mut via_tape = Param::new("w", Matrix::scalar(2.0));
        let mut via_mats = via_tape.clone();
        let adam = Adam::with_lr(0.1);
        let tape = Tape::new();
        let v = via_tape.bind(&tape);
        let loss = v.hadamard(v).sum();
        let mut grads = tape.backward(loss);
        let mut grads_again = tape.backward(loss);
        let g = grads_again.take(v).unwrap();
        let n1 = apply_grads(&mut [(&mut via_tape, v)], &mut grads, &adam, 5.0);
        let n2 = apply_grad_mats(&mut [&mut via_mats], &mut [Some(g)], &adam, 5.0);
        assert_eq!(n1, n2);
        assert_eq!(via_tape.value, via_mats.value);
    }

    #[test]
    fn serde_preserves_adam_state() {
        let mut p = Param::new("w", Matrix::scalar(1.0));
        let adam = Adam::default();
        let tape = Tape::new();
        let v = p.bind(&tape);
        let loss = v.hadamard(v).sum();
        let mut grads = tape.backward(loss);
        apply_grads(&mut [(&mut p, v)], &mut grads, &adam, 5.0);
        let json = serde_json::to_string(&p).unwrap();
        let back: Param = serde_json::from_str(&json).unwrap();
        assert_eq!(back.adam.steps(), 1);
        assert_eq!(back.value, p.value);
        assert_eq!(back.name, "w");
    }
}
