//! Neural building blocks of the t2vec model.
//!
//! Everything the paper's §IV needs, built on the dense kernels of
//! [`t2vec_tensor`]. No autodiff ships: training runs a hand-derived
//! backward, checked in tests against the `t2vec-tape` oracle crate (a
//! dev-dependency only).
//!
//! * [`param`] — named trainable parameters with Adam state, and the
//!   clip-then-step update used by the trainer (max grad norm 5, §V-B);
//! * [`embedding`] — the token embedding layer (§III-B);
//! * [`gru`] — GRU cells and stacked GRUs (the paper uses 3 layers of
//!   GRU with hidden size 256, §V-B): the canonical cell with a
//!   reference step, and the packed, allocation-free cell that runs;
//! * [`seq2seq`] — the encoder–decoder of Figure 2: the encoder squashes
//!   the input token sequence into the representation `v`, the decoder is
//!   initialised from the encoder state and reconstructs the target;
//! * [`loss`] — the three training losses: `L1` (plain NLL, Eq. 4), `L2`
//!   (exact spatial-proximity-aware loss, Eq. 5) and `L3` (the K-nearest
//!   + NCE approximation, Eq. 7);
//! * [`infer`] — the batched inference engine: prepacked fused-gate
//!   weights, length-bucketed encoding with active-prefix shrinking,
//!   and a zero-allocation steady-state step loop;
//! * [`batch`] — length-bucketed minibatching of training pairs;
//! * [`fused`] — training: a layer-major forward and hand-derived,
//!   tape-free BPTT in a zero-allocation arena, for the seq2seq model and
//!   for the next-token language model of the vRNN baseline; its loss is
//!   bitwise the tape oracle's, its gradients agree with the oracle's to
//!   a summation-order tolerance and are bitwise across threads, SIMD
//!   backends and resume;
//! * [`skipgram`] — Algorithm 1: skip-gram with negative sampling over
//!   spatially sampled cell contexts, used to pre-train the embedding;
//! * [`train`] — the data-parallel, checkpoint-friendly epoch driver:
//!   all cross-epoch state lives in the model and the caller's RNG, so
//!   an interrupted run can resume bitwise-identically.

#![warn(missing_docs)]

pub mod batch;
pub mod embedding;
pub mod fused;
pub mod gru;
pub mod infer;
pub mod loss;
pub mod param;
pub mod seq2seq;
pub mod skipgram;
pub mod train;

pub use fused::TrainArena;
pub use infer::{EncodeEngine, PackedEncoder};
pub use loss::LossKind;
pub use param::{GradSet, Param};
pub use seq2seq::{Seq2Seq, Seq2SeqConfig};
