//! # t2vec — deep representation learning for trajectory similarity
//!
//! A pure-Rust reproduction of *Li et al., "Deep Representation Learning
//! for Trajectory Similarity Computation", ICDE 2018*.
//!
//! This meta-crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense matrices, SIMD kernels, Adam.
//! * [`spatial`] — grid cells, hot-cell vocabularies, trajectory transforms.
//! * [`trajgen`] — a synthetic city simulator standing in for the paper's
//!   Porto/Harbin taxi datasets.
//! * [`distance`] — the pairwise point-matching baselines (EDR, LCSS,
//!   EDwP, CMS, and DTW for the golden harness).
//! * [`nn`] — GRU seq2seq, spatial-proximity losses L1/L2/L3, skip-gram
//!   cell pre-training.
//! * [`core`] — the t2vec model: training pipeline, encoder, the IVF+i8
//!   index structure and the ranking order of vector search, k-means
//!   clustering.
//! * [`serve`] — the concurrent similarity service: the sharded
//!   embedding store (every k-NN search: exact scan and ANN tier), an
//!   encode engine pool, crash-safe snapshots.
//! * [`eval`] — metrics and the runners that regenerate every table and
//!   figure of the paper.
//! * [`obs`] — structured tracing, metrics and leveled logging with a
//!   hard determinism invariant (observability never changes results).
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`; abridged:
//!
//! ```no_run
//! use t2vec::prelude::*;
//!
//! let mut rng = det_rng(7);
//! let city = City::porto_like(&mut rng);
//! let data = DatasetBuilder::new(&city).trips(2_000).build(&mut rng);
//! let config = T2VecConfig::tiny();
//! let model = T2Vec::train(&config, &data.train, &mut rng).unwrap();
//! let v = model.encode(&data.test[0].points);
//! println!("embedding: {} dims", v.len());
//! ```

pub use t2vec_core as core;
pub use t2vec_distance as distance;
pub use t2vec_eval as eval;
pub use t2vec_nn as nn;
pub use t2vec_obs as obs;
pub use t2vec_serve as serve;
pub use t2vec_spatial as spatial;
pub use t2vec_tensor as tensor;
pub use t2vec_trajgen as trajgen;

/// Convenience re-exports covering the common workflow: generate data,
/// train, encode, search.
pub mod prelude {
    pub use t2vec_core::{
        ann::{IvfConfig, ScalarQuantizer},
        kmeans::{kmeans, KMeansResult},
        Checkpoint, CheckpointStore, T2Vec, T2VecConfig, TrainReport, Trainer,
    };
    pub use t2vec_distance::{cms::Cms, dtw::Dtw, edr::Edr, edwp::Edwp, lcss::Lcss, TrajDistance};
    pub use t2vec_eval::metrics::{mean_rank, precision_at_k};
    pub use t2vec_serve::{
        AnnConfig, EmbeddingStore, Entry, QueryExplain, ServeConfig, SimilarityService,
    };
    pub use t2vec_spatial::{
        grid::Grid,
        point::{BBox, Point},
        transform::{distort, downsample},
        vocab::Vocab,
    };
    pub use t2vec_tensor::rng::det_rng;
    pub use t2vec_trajgen::{city::City, dataset::DatasetBuilder, Trajectory};
}
