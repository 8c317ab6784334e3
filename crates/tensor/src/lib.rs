//! Dense f32 matrix kernels, SIMD kernels, and first-order optimizers.
//!
//! This crate is the neural substrate of the t2vec reproduction. The paper
//! trains a GRU sequence-to-sequence model with PyTorch on a GPU; here we
//! implement the same mathematics from scratch on the CPU:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the kernels needed by
//!   recurrent networks (matmul, broadcast add, element-wise maps, row
//!   gather, softmax). Gradients are hand-derived where they are used
//!   (`t2vec_nn::fused`); no shipped crate contains autodiff — the tape
//!   those gradients are checked against is the test-only `t2vec-tape`.
//! * [`opt`] — SGD and Adam (the paper uses Adam, initial learning rate
//!   `1e-3`) plus global-norm gradient clipping (the paper clips at norm 5).
//! * [`init`] — Xavier/uniform parameter initialisation.
//! * [`parallel`] — scoped-thread helpers behind batch encoding and the
//!   data-parallel training loop (the kernels themselves are serial);
//!   worker count comes from `T2VEC_THREADS` or
//!   [`std::thread::available_parallelism`].
//! * [`simd`] — the explicit SIMD kernel layer (SSE2/AVX2/NEON behind
//!   runtime dispatch, scalar reference fallback, `T2VEC_SIMD`
//!   override); every backend is bitwise-identical to scalar.
//!
//! # Example
//!
//! ```
//! use t2vec_tensor::Matrix;
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0]]);
//! let w = Matrix::from_rows(&[&[0.5], &[-0.5]]);
//! let b = Matrix::row_vector(&[0.25]);
//! // One dense layer, tanh(x·w + b), the product into a caller's buffer:
//! let mut xw = Matrix::zeros(1, 1);
//! x.matmul_into(&w, &mut xw);
//! let y = xw.add_row_broadcast(&b).map(f32::tanh);
//! assert_eq!(y.shape(), (1, 1));
//! assert!((y.item() - (-0.25f32).tanh()).abs() < 1e-7);
//! ```

#![warn(missing_docs)]

pub mod init;
pub mod matrix;
pub mod opt;
pub mod parallel;
pub mod rng;
pub mod simd;
pub mod workspace;

pub use matrix::Matrix;
pub use workspace::Workspace;
