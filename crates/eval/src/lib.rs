//! Evaluation harness: metrics and runners that regenerate every table
//! and figure of the t2vec paper's §V on the synthetic city.
//!
//! | Item | Paper artefact |
//! |------|----------------|
//! | [`metrics`] | mean rank, precision@k, cross-distance deviation |
//! | [`method`] | the unified query interface over all similarity methods |
//! | [`experiments::mean_rank_sweep`] | the most-similar-search protocol (Tables III, IV, V, VII–IX, Figure 7) |
//! | [`experiments::cross_similarity`] | the cross-distance-deviation protocol (Table VI) |
//! | [`experiments::knn_precision_multi`] | the k-NN precision protocol (Figure 5) |
//! | [`experiments::Bench`] | the six-method roster and seeds of Tables III–VI and Figure 5 over those three |
//! | [`experiments::scalability`] | Figure 6 |
//! | [`experiments::loss_ablation`] | Table VII |
//! | [`experiments::cell_size_sweep`], [`experiments::hidden_size_sweep`], [`experiments::training_size_sweep`] | Tables VIII, IX and Figure 7 |
//! | [`harness`] | the seeded end-to-end pipeline behind `GOLDEN_EXP.json`: the same three protocols under the DTW/EDR/LCSS/t2vec roster, plus IVF recall and the trend gates |
//! | [`paper`] | the paper's reported Porto numbers, for side-by-side output |
//! | [`tables`] | ASCII table rendering |
//!
//! Each protocol has one implementation, in [`experiments`]; the paper
//! tables and the golden harness differ only in the method roster, the
//! sweep points and the seeds they hand it.
//!
//! Scales are configurable ([`experiments::Scale`]); the defaults run on
//! one CPU core in minutes while preserving the paper's *relative*
//! comparisons (who wins, by how much, where methods break down).

#![warn(missing_docs)]

pub mod experiments;
pub mod harness;
pub mod method;
pub mod metrics;
pub mod paper;
pub mod tables;
