//! Synthetic city trajectory generator.
//!
//! The paper evaluates on two proprietary taxi datasets (Porto: 1.2 M
//! trips, mean length 60 points at 15 s intervals; Harbin: 1.5 M trips,
//! mean length 121). Neither is shipped here, so this crate implements
//! the closest synthetic equivalent that exercises the same phenomena:
//!
//! * a **road network** ([`network::RoadNetwork`]) — a perturbed grid of
//!   intersections whose edges carry heavily *skewed attractiveness*
//!   weights (log-normal, with boosted arterial corridors). Recent work
//!   cited by the paper (\[10\], \[12\]) observes exactly this skew in real
//!   transition patterns, and it is the signal t2vec learns;
//! * a **route sampler** ([`route`]) — trips between hub-biased endpoints
//!   following cheapest paths under per-trip perturbed edge costs, so
//!   popular corridors are shared across many trips while individual
//!   routes still vary;
//! * a **GPS sampler** ([`gps`]) — constant-speed movement along the
//!   route polyline sampled every `interval` seconds with Gaussian
//!   receiver noise, yielding point sequences with the same density
//!   characteristics as the paper's data;
//! * **dataset assembly** ([`dataset`]) — train/validation/test splits by
//!   trip start time (as in §V-A) and the Table II-style statistics;
//! * **CSV import/export** ([`io`]) so real trajectory data can be
//!   substituted where available.

#![warn(missing_docs)]

pub mod city;
pub mod dataset;
pub mod gps;
pub mod io;
pub mod network;
pub mod route;
pub mod viz;

use serde::{Deserialize, Serialize};
use t2vec_spatial::point::Point;

/// A trajectory: a time-stamped sequence of GPS sample points, the unit
/// of data throughout the workspace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trajectory {
    /// Sample points in the local metric plane (meters).
    pub points: Vec<Point>,
    /// Trip start time in seconds since the dataset epoch (used for the
    /// chronological train/test split).
    pub start: u64,
}

impl Trajectory {
    /// A trajectory from raw points with start time 0.
    pub fn from_points(points: Vec<Point>) -> Self {
        Self { points, start: 0 }
    }

    /// Number of sample points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the trajectory has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}
