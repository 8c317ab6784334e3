//! The gradient oracle: a reverse-mode autodiff tape and a
//! finite-difference checker, for tests only.
//!
//! Training runs `t2vec_nn::fused`, a layer-major forward and a
//! hand-derived backward. This crate is what that backward is checked
//! against: the same model recorded op by op on a [`Tape`] and
//! differentiated mechanically, its loss equal to the fused loss to the
//! bit and its gradients to a summation-order tolerance (`nn`'s unit
//! tests), while [`gradcheck`] checks the tape's own operators against
//! central finite differences.
//!
//! `publish = false`, and only `[dev-dependencies]` name it: no shipped
//! crate contains autodiff.
//!
//! ```
//! use t2vec_tape::Tape;
//! use t2vec_tensor::Matrix;
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Matrix::from_rows(&[&[1.0, 2.0]]));
//! let w = tape.leaf(Matrix::from_rows(&[&[0.5], &[-0.5]]));
//! let y = x.matmul(w).tanh().sum();
//! let grads = tape.backward(y);
//! // d/dw tanh(x·w) evaluated by reverse mode:
//! assert_eq!(grads.get(w).unwrap().shape(), (2, 1));
//! ```

#![warn(missing_docs)]

pub mod gradcheck;
mod tape;

pub use tape::{Gradients, SoftTargets, Tape, Var};
