//! # t2vec-core — the paper's primary contribution
//!
//! `t2vec` (Li, Zhao, Cong, Jensen, Wei — *Deep Representation Learning
//! for Trajectory Similarity Computation*, ICDE 2018) learns a vector
//! `v ∈ R^d` per trajectory such that Euclidean distance between vectors
//! reflects similarity of the *underlying routes*, robustly under
//! non-uniform sampling, low sampling rates and GPS noise. Similarity of
//! two trajectories then costs `O(n + |v|)` instead of the `O(n²)` of
//! every pairwise point-matching measure.
//!
//! The pipeline (all steps from the paper):
//!
//! 1. build the hot-cell vocabulary over the training corpus (§IV-B);
//! 2. optionally pre-train cell vectors with the spatial skip-gram
//!    (Algorithm 1);
//! 3. create training pairs by down-sampling (rates `r1 ∈ {0, .2, .4,
//!    .6}`) and distorting (rates `r2` likewise) each trajectory — 16
//!    variants per trip (§V-A);
//! 4. train the GRU seq2seq to maximise `P(Tb | Ta)` with the
//!    approximate spatial loss `L3` (Eq. 7), Adam, gradient clipping and
//!    validation-loss early stopping (§V-B);
//! 5. encode trajectories with the encoder; answer similarity queries
//!    by nearest-vector search (the serving store of `t2vec-serve`,
//!    which ranks in the [`index`] order).
//!
//! [`kmeans`] (trajectory clustering) and [`ann`] (the IVF+i8
//! approximate index behind the serving store's ANN tier) implement
//! the paper's §VI future-work items 1 and 3. [`vrnn`] is the
//! vanilla-RNN embedding baseline of §V-A.
//!
//! Training is driven by the epoch-stepped [`trainer::Trainer`], whose
//! complete mutable state can be captured between epochs as a
//! [`checkpoint::Checkpoint`] and persisted crash-safely through a
//! [`checkpoint::CheckpointStore`] (one user of the [`durable`]
//! directory protocol); an interrupted run resumes bitwise-identically
//! to an uninterrupted one.

#![warn(missing_docs)]

pub mod ann;
pub mod checkpoint;
pub mod config;
pub mod durable;
pub mod error;
pub mod index;
pub mod kmeans;
pub mod model;
pub mod trainer;
pub mod vrnn;

pub use checkpoint::{Checkpoint, CheckpointStore};
pub use config::T2VecConfig;
pub use error::T2VecError;
pub use model::{T2Vec, TrainReport};
pub use trainer::Trainer;
