//! Classical pairwise point-matching trajectory similarity measures.
//!
//! These are the baselines the paper compares against (§V-A): **EDR**
//! (Chen, Özsu & Oria, SIGMOD 2005), **LCSS** (Vlachos, Kollios &
//! Gunopulos, ICDE 2002), **EDwP** (Ranu et al., ICDE 2015 — the state of
//! the art for inconsistent sampling rates), and **CMS** (common cell
//! set). **DTW** (Yi, Jagadish & Faloutsos, ICDE 1998) is implemented as
//! well, because the golden experiment harness runs it.
//!
//! All but CMS run dynamic programs over the two point sequences and are
//! therefore `O(|Ta|·|Tb|)` — the quadratic cost that motivates t2vec's
//! `O(n + |v|)` representation-based similarity. Each DP is a plain
//! scalar cell loop over two rolling rows of its table;
//! `tests/reference_dp.rs` holds DTW, EDR and LCSS bit-equal to the
//! full-table recurrences.
//!
//! Every measure implements [`TrajDistance`]; smaller values mean more
//! similar trajectories (LCSS, a similarity, is converted to a distance).

#![warn(missing_docs)]

pub mod cms;
pub mod dtw;
pub mod edr;
pub mod edwp;
pub mod lcss;

use t2vec_spatial::point::Point;

/// A trajectory dissimilarity measure. Implementations must be cheap to
/// clone/share and callable from multiple threads.
pub trait TrajDistance: Send + Sync {
    /// A short stable identifier (used in experiment tables).
    fn name(&self) -> &'static str;

    /// The dissimilarity between two trajectories. Lower is more similar.
    /// Conventions for degenerate inputs: two empty trajectories are at
    /// distance 0; an empty vs a non-empty trajectory is at `f64::INFINITY`,
    /// except where the measure's publication fixes another value: EDR
    /// charges one deletion per point (`|a|`), and LCSS and CMS saturate
    /// at 1.
    fn dist(&self, a: &[Point], b: &[Point]) -> f64;
}

/// Dispatch helper: returns distance 0 for two empties, `INFINITY` when
/// exactly one side is empty, and `None` when both are non-empty (the
/// caller should run its DP).
pub(crate) fn empty_rule(a: &[Point], b: &[Point]) -> Option<f64> {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => Some(0.0),
        (true, false) | (false, true) => Some(f64::INFINITY),
        (false, false) => None,
    }
}

/// The per-dimension ε-matching rule shared by EDR and LCSS: `a` and `b`
/// match iff they are within `eps` on *each* axis (the original
/// publications' rule, not an L2 ball).
#[inline]
pub(crate) fn eps_match(a: &Point, b: &Point, eps: f64) -> bool {
    (a.x - b.x).abs() <= eps && (a.y - b.y).abs() <= eps
}

/// Counts the `O(n·m)` cells one DP fill visits (`distance.dp.cells`).
pub(crate) fn record_dp(cells: usize) {
    t2vec_obs::counter!("distance.dp.cells").add(cells as u64);
}

#[cfg(test)]
pub(crate) mod testutil {
    use rand::{Rng, RngExt};
    use t2vec_spatial::point::Point;

    /// A jagged random walk for property tests.
    pub fn random_walk(n: usize, rng: &mut impl Rng) -> Vec<Point> {
        let mut p = Point::new(
            rng.random_range(-100.0..100.0),
            rng.random_range(-100.0..100.0),
        );
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(p);
            p = Point::new(
                p.x + rng.random_range(-20.0..20.0),
                p.y + rng.random_range(-20.0..20.0),
            );
        }
        out
    }

    /// Asserts the three metric-ish axioms every measure must satisfy:
    /// identity (d(a,a) = 0 or at least minimal), symmetry, and
    /// non-negativity.
    pub fn assert_basic_axioms(d: &dyn crate::TrajDistance, a: &[Point], b: &[Point]) {
        let dab = d.dist(a, b);
        let dba = d.dist(b, a);
        assert!(dab >= 0.0, "{}: negative distance", d.name());
        assert!(
            (dab - dba).abs() <= 1e-6 * (1.0 + dab.abs()),
            "{}: asymmetric: {dab} vs {dba}",
            d.name()
        );
        assert!(d.dist(a, a) <= 1e-9, "{}: self-distance not zero", d.name());
    }
}
