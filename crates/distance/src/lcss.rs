//! Longest Common SubSequence similarity (Vlachos, Kollios & Gunopulos,
//! ICDE 2002).
//!
//! Two points "match" when they are within ε per coordinate; LCSS is the
//! length of the longest common subsequence under that rule. We convert
//! the similarity into the standard distance
//! `1 − LCSS(a, b) / min(|a|, |b|)`, which is what the paper's evaluation
//! ranks by.

use crate::{empty_rule, eps_match, record_dp, TrajDistance};
use serde::{Deserialize, Serialize};
use t2vec_spatial::point::Point;

/// LCSS-based distance.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Lcss {
    /// The matching threshold ε in meters.
    pub epsilon: f64,
}

impl Lcss {
    /// LCSS distance with matching threshold `epsilon` (meters).
    ///
    /// # Panics
    /// Panics if `epsilon` is negative.
    pub fn new(epsilon: f64) -> Self {
        assert!(epsilon >= 0.0, "epsilon must be non-negative");
        Self { epsilon }
    }

    /// The raw LCSS length (a similarity, higher = more similar).
    pub fn lcss_len(&self, a: &[Point], b: &[Point]) -> usize {
        let (n, m) = (a.len(), b.len());
        if n == 0 || m == 0 {
            return 0;
        }
        record_dp(n * m);
        // Two rolling rows of the subsequence table; `prev[j]` is the
        // LCSS of `a[..i−1]` and `b[..j]`.
        let mut prev = vec![0u32; m + 1];
        let mut curr = vec![0u32; m + 1];
        for p in a {
            for (j, q) in b.iter().enumerate() {
                curr[j + 1] = if eps_match(p, q, self.epsilon) {
                    prev[j] + 1
                } else {
                    prev[j + 1].max(curr[j])
                };
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m] as usize
    }
}

impl TrajDistance for Lcss {
    fn name(&self) -> &'static str {
        "LCSS"
    }

    fn dist(&self, a: &[Point], b: &[Point]) -> f64 {
        if let Some(d) = empty_rule(a, b) {
            return if d.is_infinite() { 1.0 } else { 0.0 };
        }
        let sim = self.lcss_len(a, b) as f64 / a.len().min(b.len()) as f64;
        1.0 - sim
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
    fn identical_distance_zero() {
        let a = pts(&[1.0, 2.0, 3.0]);
        assert_eq!(Lcss::new(0.5).dist(&a, &a), 0.0);
    }

    #[test]
    fn totally_different_distance_one() {
        let a = pts(&[0.0, 1.0]);
        let b = pts(&[100.0, 101.0]);
        assert_eq!(Lcss::new(0.5).dist(&a, &b), 1.0);
        assert_eq!(Lcss::new(0.5).lcss_len(&a, &b), 0);
    }

    #[test]
    fn subsequence_has_distance_zero() {
        // b is a subsequence of a: every b-point matches in order, so
        // LCSS = |b| and distance = 0 (LCSS ignores the skipped points —
        // exactly the robustness-to-dropping the paper discusses).
        let a = pts(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        let b = pts(&[0.0, 2.0, 5.0]);
        assert_eq!(Lcss::new(0.1).dist(&a, &b), 0.0);
    }

    #[test]
    fn known_lcss_length() {
        let a = pts(&[0.0, 10.0, 20.0, 30.0]);
        let b = pts(&[10.0, 30.0, 40.0]);
        // Common subsequence: [10, 30].
        assert_eq!(Lcss::new(0.1).lcss_len(&a, &b), 2);
        let d = Lcss::new(0.1).dist(&a, &b);
        assert!((d - (1.0 - 2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_conventions() {
        let a = pts(&[1.0]);
        assert_eq!(Lcss::new(1.0).dist(&[], &[]), 0.0);
        assert_eq!(Lcss::new(1.0).dist(&a, &[]), 1.0);
        assert_eq!(Lcss::new(1.0).lcss_len(&a, &[]), 0);
    }

    #[test]
    fn similarity_monotone_in_epsilon() {
        let mut rng = det_rng(50);
        let a = random_walk(15, &mut rng);
        let b = random_walk(15, &mut rng);
        let mut last = 0usize;
        for eps in [0.0, 5.0, 20.0, 100.0, 1000.0] {
            let l = Lcss::new(eps).lcss_len(&a, &b);
            assert!(l >= last);
            last = l;
        }
        assert_eq!(last, 15); // everything matches at huge epsilon
    }

    proptest! {
        #[test]
        fn distance_in_unit_interval(seed in 0u64..200, n in 1usize..20, m in 1usize..20) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            let d = Lcss::new(15.0).dist(&a, &b);
            prop_assert!((0.0..=1.0).contains(&d));
        }

        #[test]
        fn axioms_on_random_walks(seed in 0u64..200, n in 1usize..20, m in 1usize..20) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            assert_basic_axioms(&Lcss::new(15.0), &a, &b);
        }

        #[test]
        fn lcss_bounded_by_min_length(seed in 0u64..100, n in 1usize..15, m in 1usize..15) {
            let mut rng = det_rng(seed);
            let a = random_walk(n, &mut rng);
            let b = random_walk(m, &mut rng);
            prop_assert!(Lcss::new(25.0).lcss_len(&a, &b) <= n.min(m));
        }
    }
}
