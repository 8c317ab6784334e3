//! Dynamic Time Warping (Yi, Jagadish & Faloutsos, ICDE 1998).
//!
//! DTW was the first measure to address local time shift in trajectory
//! similarity. It finds the monotone alignment of the two point sequences
//! that minimises the sum of Euclidean distances between aligned pairs.
//! The paper excludes it from the main comparison because EDR dominates
//! it on trajectory data, but it remains the canonical quadratic baseline
//! and is included in our benchmarks of the `O(n²)` cost.

use crate::{empty_rule, record_dp, TrajDistance};
use serde::{Deserialize, Serialize};
use t2vec_spatial::point::Point;

/// Dynamic Time Warping: the cost of the cheapest monotone alignment,
/// `D(i, j) = d(aᵢ, bⱼ) + min(D(i−1, j−1), D(i−1, j), D(i, j−1))` with
/// `D(0, 0) = 0` and every other border cell `+∞`.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Dtw;

impl Dtw {
    /// Unconstrained DTW.
    pub fn new() -> Self {
        Self
    }
}

impl TrajDistance for Dtw {
    fn name(&self) -> &'static str {
        "DTW"
    }

    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        if let Some(d) = empty_rule(a, b) {
            return d;
        }
        let m = b.len();
        record_dp(a.len() * m);
        // Two rolling rows of the table; `prev[j]` is `D(i−1, j)`.
        let mut prev = vec![f64::INFINITY; m + 1];
        let mut curr = vec![f64::INFINITY; m + 1];
        prev[0] = 0.0;
        for p in a {
            curr[0] = f64::INFINITY;
            for (j, q) in b.iter().enumerate() {
                let best = prev[j].min(prev[j + 1]).min(curr[j]);
                curr[j + 1] = p.dist(q) + best;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{assert_basic_axioms, random_walk};
    use proptest::prelude::*;
    use t2vec_tensor::rng::det_rng;

    fn pts(xs: &[f64]) -> Vec<Point> {
        xs.iter().map(|&x| Point::new(x, 0.0)).collect()
    }

    #[test]
    fn identical_sequences_are_zero() {
        let a = pts(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(Dtw::new().dist(&a, &a), 0.0);
    }

    #[test]
    fn known_small_alignment() {
        // a = [0, 10], b = [0, 5, 10]: optimal warp aligns 5 to either
        // endpoint (cost 5).
        let a = pts(&[0.0, 10.0]);
        let b = pts(&[0.0, 5.0, 10.0]);
        assert_eq!(Dtw::new().dist(&a, &b), 5.0);
    }

    #[test]
    fn repeated_points_are_free() {
        // DTW is invariant to stuttering: repeating a point adds zero cost.
        let a = pts(&[0.0, 1.0, 2.0]);
        let b = pts(&[0.0, 0.0, 1.0, 1.0, 1.0, 2.0]);
        assert_eq!(Dtw::new().dist(&a, &b), 0.0);
    }

    #[test]
    fn empty_conventions() {
        let a = pts(&[1.0]);
        assert_eq!(Dtw::new().dist(&[], &[]), 0.0);
        assert_eq!(Dtw::new().dist(&a, &[]), f64::INFINITY);
        assert_eq!(Dtw::new().dist(&[], &a), f64::INFINITY);
    }

    #[test]
    fn single_point_vs_sequence() {
        let a = pts(&[0.0]);
        let b = pts(&[1.0, 2.0]);
        // Single point aligns to all: |0-1| + |0-2| = 3.
        assert_eq!(Dtw::new().dist(&a, &b), 3.0);
    }

    proptest! {
        #[test]
        fn axioms_on_random_walks(seed in 0u64..200, n in 1usize..25, m in 1usize..25) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            assert_basic_axioms(&Dtw::new(), &a, &b);
        }

        #[test]
        fn dtw_bounded_below_by_endpoint_distances(seed in 0u64..200) {
            let mut rng = det_rng(seed);
            let a = random_walk(10, &mut rng);
            let b = random_walk(12, &mut rng);
            let d = Dtw::new().dist(&a, &b);
            // The first and last pairs are always aligned.
            prop_assert!(d >= a[0].dist(&b[0]) + a[9].dist(&b[11]) - 1e-9);
        }
    }
}
