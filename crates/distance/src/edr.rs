//! Edit Distance on Real sequences (Chen, Özsu & Oria, SIGMOD 2005).
//!
//! EDR quantises matching with a threshold ε: two points match (subcost 0)
//! iff they are within ε in *every* coordinate (the original per-dimension
//! rule); otherwise substitution, insertion and deletion each cost 1. The
//! result is an integer-valued edit distance. §I of the t2vec paper uses
//! EDR in its Figure 1a example, which is replicated in the tests here.
//!
//! The paper sets ε per the strategy in the original publication; our
//! evaluation uses a quarter of the grid cell side by default, matching
//! the common heuristic of ε ≈ the positioning noise scale.

use crate::{empty_rule, eps_match, record_dp, TrajDistance};
use serde::{Deserialize, Serialize};
use t2vec_spatial::point::Point;

/// Edit Distance on Real sequences.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Edr {
    /// The matching threshold ε in meters.
    pub epsilon: f64,
}

impl Edr {
    /// EDR with matching threshold `epsilon` (meters).
    ///
    /// # Panics
    /// Panics if `epsilon` is negative.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self { epsilon }
    }
}

impl TrajDistance for Edr {
    fn name(&self) -> &'static str {
        "EDR"
    }

    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        if let Some(d) = empty_rule(a, b) {
            // EDR to an empty sequence is |other| in the original paper.
            if d.is_infinite() {
                return a.len().max(b.len()) as f64;
            }
            return d;
        }
        let m = b.len();
        record_dp(a.len() * m);
        // Two rolling rows of the integer edit table; `prev[j]` is the
        // cost of `a[..i−1]` against `b[..j]`.
        let mut prev: Vec<u32> = (0..=m as u32).collect();
        let mut curr = vec![0u32; m + 1];
        for (i, p) in a.iter().enumerate() {
            curr[0] = i as u32 + 1;
            for (j, q) in b.iter().enumerate() {
                let subcost = u32::from(!eps_match(p, q, self.epsilon));
                curr[j + 1] = (prev[j] + subcost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        f64::from(prev[m])
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

    /// Reproduces the Figure 1a example of the t2vec paper: two
    /// trajectories from the same route sampled at different rates, where
    /// EDR matches only the endpoints. The paper's narrative counts every
    /// unmatched point (1 unmatched `a` + 4 unmatched `b`s = "cost of 5");
    /// the DP-optimal edit script substitutes the unmatched `a` against
    /// one `b` instead (1 substitution + 3 insertions = 4). Either way the
    /// two representations of the *same route* end up far apart — the
    /// failure mode motivating t2vec.
    #[test]
    fn fig1a_same_route_gets_large_edr_cost() {
        // Ta = [a1, a2, a3] and Tb = [b1..b6] on the same straight route.
        // With ε = 0.9, a2 is too far from every b, so only (a1, b1) and
        // (a3, b6) match.
        let ta = pts(&[0.0, 3.0, 6.0]);
        let tb = pts(&[0.0, 1.0, 2.0, 4.0, 5.0, 6.0]);
        let edr = Edr::new(0.9);
        // Unmatched-point accounting (the figure's "cost of 5"):
        let matches = 2.0;
        let narrative_cost = (ta.len() as f64 - matches) + (tb.len() as f64 - matches);
        assert_eq!(narrative_cost, 5.0);
        // DP-optimal edit distance: one substitution replaces the
        // delete+insert pair, so 4.
        assert_eq!(edr.dist(&ta, &tb), 4.0);
        // With a threshold of 1 (the figure's cell threshold) a2 matches
        // b3 or b4 and the cost drops further.
        assert!(Edr::new(1.0).dist(&ta, &tb) < 4.0);
    }

    #[test]
    fn identical_is_zero_and_integer_valued() {
        let mut rng = det_rng(40);
        let a = random_walk(15, &mut rng);
        let edr = Edr::new(5.0);
        assert_eq!(edr.dist(&a, &a), 0.0);
        let b = random_walk(12, &mut rng);
        let d = edr.dist(&a, &b);
        assert_eq!(d, d.round(), "EDR must be integer-valued");
    }

    #[test]
    fn reduces_to_levenshtein_on_far_points() {
        // With ε = 0 and all points distinct, EDR is plain edit distance.
        let a = pts(&[0.0, 10.0, 20.0]);
        let b = pts(&[0.0, 30.0, 20.0, 40.0]);
        // match, substitute, match, insert = 2.
        assert_eq!(Edr::new(0.0).dist(&a, &b), 2.0);
    }

    #[test]
    fn per_dimension_matching_rule() {
        let edr = Edr::new(1.0);
        // Within ε on both axes -> match.
        assert_eq!(
            edr.dist(&[Point::new(0.0, 0.0)], &[Point::new(0.9, 0.9)]),
            0.0
        );
        // Euclidean distance 1.27 > 1 but per-dimension <= 1: still a match
        // (this is what distinguishes the original rule from L2 matching).
        assert_eq!(
            edr.dist(&[Point::new(0.0, 0.0)], &[Point::new(1.0, 0.8)]),
            0.0
        );
        // One axis exceeding epsilon -> mismatch (substitution).
        assert_eq!(
            edr.dist(&[Point::new(0.0, 0.0)], &[Point::new(1.1, 0.0)]),
            1.0
        );
    }

    #[test]
    fn empty_conventions() {
        let a = pts(&[1.0, 2.0]);
        assert_eq!(Edr::new(1.0).dist(&[], &[]), 0.0);
        assert_eq!(Edr::new(1.0).dist(&a, &[]), 2.0);
        assert_eq!(Edr::new(1.0).dist(&[], &a), 2.0);
    }

    #[test]
    fn monotone_in_epsilon() {
        let mut rng = det_rng(41);
        let a = random_walk(20, &mut rng);
        let b = random_walk(18, &mut rng);
        let mut last = f64::INFINITY;
        for eps in [0.0, 1.0, 5.0, 20.0, 100.0, 1000.0] {
            let d = Edr::new(eps).dist(&a, &b);
            assert!(d <= last, "EDR must not increase with epsilon");
            last = d;
        }
        // Huge epsilon matches everything: cost = length difference.
        assert_eq!(last, (a.len() as f64 - b.len() as f64).abs());
    }

    #[test]
    fn bounded_by_max_length() {
        let mut rng = det_rng(42);
        let a = random_walk(9, &mut rng);
        let b = random_walk(14, &mut rng);
        let d = Edr::new(1.0).dist(&a, &b);
        assert!(d <= 14.0);
        assert!(d >= 5.0); // at least the length difference
    }

    proptest! {
        #[test]
        fn axioms_on_random_walks(seed in 0u64..200, n in 1usize..20, m in 1usize..20) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            assert_basic_axioms(&Edr::new(10.0), &a, &b);
        }

        #[test]
        fn edr_within_edit_distance_bounds(
            seed in 0u64..200, n in 1usize..15, m in 1usize..15
        ) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            let d = Edr::new(10.0).dist(&a, &b);
            prop_assert!(d >= n.abs_diff(m) as f64);
            prop_assert!(d <= n.max(m) as f64);
        }
    }
}
