//! Property tests for the metric-ish axioms every trajectory measure
//! must satisfy, over proptest-generated trajectories (including empty
//! ones, which exercise the crate-wide empty-input conventions: two
//! empties are at distance 0, one empty side is at `f64::INFINITY`
//! unless the measure's publication says otherwise).
//!
//! For each of DTW, EDR, LCSS, EDwP and CMS:
//!
//! * **symmetry** — d(a, b) = d(b, a)
//! * **identity** — d(a, a) = 0
//! * **non-negativity** — d(a, b) ≥ 0

use proptest::prelude::*;
use t2vec_distance::cms::Cms;
use t2vec_distance::dtw::Dtw;
use t2vec_distance::edr::Edr;
use t2vec_distance::edwp::Edwp;
use t2vec_distance::lcss::Lcss;
use t2vec_distance::TrajDistance;
use t2vec_spatial::point::Point;

/// The measures under test. EDR and LCSS get a threshold, and CMS a cell
/// side, on the order of a typical point gap so matches are neither
/// trivial nor impossible.
fn measures() -> Vec<Box<dyn TrajDistance>> {
    vec![
        Box::new(Dtw::new()),
        Box::new(Edr::new(25.0)),
        Box::new(Lcss::new(25.0)),
        Box::new(Edwp::new()),
        Box::new(Cms::new(25.0)),
    ]
}

fn to_points(coords: &[(f64, f64)]) -> Vec<Point> {
    coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
}

/// Equality that tolerates both the infinite empty-vs-non-empty case
/// (`INF - INF` is NaN, so a plain epsilon check would reject it) and
/// float noise from the two DP traversal orders.
fn symmetric_eq(dab: f64, dba: f64) -> bool {
    dab == dba || (dab - dba).abs() <= 1e-9 * (1.0 + dab.abs())
}

proptest! {
    #[test]
    fn distances_are_symmetric(
        a in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..12),
        b in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..12),
    ) {
        let (a, b) = (to_points(&a), to_points(&b));
        for d in measures() {
            let dab = d.dist(&a, &b);
            let dba = d.dist(&b, &a);
            prop_assert!(
                symmetric_eq(dab, dba),
                "{}: d(a,b) = {dab} but d(b,a) = {dba} for |a| = {}, |b| = {}",
                d.name(),
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn self_distance_is_zero(
        a in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..12),
    ) {
        let a = to_points(&a);
        for d in measures() {
            let daa = d.dist(&a, &a);
            prop_assert!(
                daa == 0.0,
                "{}: d(a,a) = {daa} for |a| = {}",
                d.name(),
                a.len()
            );
        }
    }

    #[test]
    fn distances_are_non_negative(
        a in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..12),
        b in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 0..12),
    ) {
        let (a, b) = (to_points(&a), to_points(&b));
        for d in measures() {
            let dab = d.dist(&a, &b);
            prop_assert!(
                dab >= 0.0,
                "{}: d(a,b) = {dab} for |a| = {}, |b| = {}",
                d.name(),
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn empty_conventions_hold(
        a in collection::vec((-100.0..100.0f64, -100.0..100.0f64), 1..12),
    ) {
        let a = to_points(&a);
        let empty: Vec<Point> = Vec::new();
        for d in measures() {
            prop_assert_eq!(d.dist(&empty, &empty), 0.0, "{}: empty vs empty", d.name());
            let dae = d.dist(&a, &empty);
            // Three measures override the crate-wide INFINITY rule with
            // their publications' own conventions: EDR is an edit
            // distance (deleting every point costs |a|), LCSS is a
            // normalized similarity turned distance (saturates at 1.0),
            // and CMS is a Jaccard distance (no common cell: 1.0).
            let expected_ok = match d.name() {
                "EDR" => dae == a.len() as f64,
                "LCSS" | "CMS" => dae == 1.0,
                _ => dae == f64::INFINITY,
            };
            prop_assert!(expected_ok, "{}: d(a, empty) = {dae}", d.name());
        }
    }
}
