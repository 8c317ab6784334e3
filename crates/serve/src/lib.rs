//! Concurrent trajectory-similarity serving for t2vec.
//!
//! The paper's payoff (§IV-D) is that once trajectories are embedded,
//! similarity is a vector distance — cheap enough to serve online. This
//! crate is that serving layer:
//!
//! * [`store`] — a sharded, lock-striped embedding store whose merged
//!   kNN is bitwise independent of shard count and insert interleaving;
//! * [`batcher`] — the encode engine pool: one engine per core, each
//!   caller taking an idle one and encoding its own request on its own
//!   thread;
//! * [`snapshot`] — CRC-framed atomic snapshots plus an upsert journal,
//!   both raw little-endian `f32`, with corrupt-skip recovery (the same
//!   frame and directory protocol as model checkpoints);
//! * [`service`] — the [`SimilarityService`] façade wiring the three
//!   together with the durability ordering documented there;
//! * [`loadgen`] — a mixed read/write load generator reporting
//!   p50/p99/QPS (the `t2vec loadgen` command).
//!
//! Everything here upholds the workspace determinism contract: results
//! depend only on (input, seed, store contents), never on thread
//! count, shard count, which engine ran a request, or SIMD backend.

#![warn(missing_docs)]

pub mod ann;
pub mod batcher;
pub mod loadgen;
pub mod service;
pub mod snapshot;
pub mod store;

pub use ann::{AnnConfig, AnnState, AnnTier, QueryExplain};
pub use batcher::{AdmissionBatcher, BatcherConfig};
pub use loadgen::{LoadReport, LoadgenConfig};
pub use service::{recover_entries, ServeConfig, SimilarityService};
pub use snapshot::{Journal, SnapshotStore, StoreSnapshot};
pub use store::{EmbeddingStore, Entry};
