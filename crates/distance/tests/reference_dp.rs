//! The shipped DTW, EDR and LCSS against textbook full-table dynamic
//! programs, bit for bit.
//!
//! Each reference fills the whole `(n+1)×(m+1)` table straight from the
//! recurrence in its measure's module doc, with its own border rows and
//! its own copy of the per-dimension ε rule, so a shortcut in the
//! shipped two-row loops (a dropped border cell, a swapped operand, a
//! `<` for a `<=`) shows up as a differing bit pattern. The ε cases put
//! points at exactly `|Δ| = ε` and a few ulps either side, where a
//! sloppy comparison would diverge.

use proptest::prelude::*;
use rand::{Rng, RngExt};
use t2vec_distance::dtw::Dtw;
use t2vec_distance::edr::Edr;
use t2vec_distance::lcss::Lcss;
use t2vec_distance::TrajDistance;
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;

/// The per-dimension matching rule, written out again on purpose.
fn within(p: &Point, q: &Point, eps: f64) -> bool {
    (p.x - q.x).abs() <= eps && (p.y - q.y).abs() <= eps
}

/// `D(0, 0) = 0`, every other border cell `+∞`,
/// `D(i, j) = d(aᵢ, bⱼ) + min(D(i−1, j−1), D(i−1, j), D(i, j−1))`.
fn dtw_reference(a: &[Point], b: &[Point]) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut d = vec![vec![f64::INFINITY; m + 1]; n + 1];
    d[0][0] = 0.0;
    for i in 1..=n {
        for j in 1..=m {
            let step = d[i - 1][j - 1].min(d[i - 1][j]).min(d[i][j - 1]);
            d[i][j] = a[i - 1].dist(&b[j - 1]) + step;
        }
    }
    d[n][m]
}

/// `E(i, 0) = i`, `E(0, j) = j`,
/// `E(i, j) = min(E(i−1, j−1) + [no match], E(i−1, j) + 1, E(i, j−1) + 1)`.
fn edr_reference(a: &[Point], b: &[Point], eps: f64) -> f64 {
    let (n, m) = (a.len(), b.len());
    let mut e = vec![vec![0u32; m + 1]; n + 1];
    e[0] = (0..=m as u32).collect();
    for (i, row) in e.iter_mut().enumerate() {
        row[0] = i as u32;
    }
    for i in 1..=n {
        for j in 1..=m {
            let sub = u32::from(!within(&a[i - 1], &b[j - 1], eps));
            e[i][j] = (e[i - 1][j - 1] + sub)
                .min(e[i - 1][j] + 1)
                .min(e[i][j - 1] + 1);
        }
    }
    f64::from(e[n][m])
}

/// `L(i, 0) = L(0, j) = 0`, `L(i, j) = L(i−1, j−1) + 1` on a match and
/// `max(L(i−1, j), L(i, j−1))` otherwise.
fn lcss_len_reference(a: &[Point], b: &[Point], eps: f64) -> usize {
    let (n, m) = (a.len(), b.len());
    let mut l = vec![vec![0usize; m + 1]; n + 1];
    for i in 1..=n {
        for j in 1..=m {
            l[i][j] = if within(&a[i - 1], &b[j - 1], eps) {
                l[i - 1][j - 1] + 1
            } else {
                l[i - 1][j].max(l[i][j - 1])
            };
        }
    }
    l[n][m]
}

/// `1 − LCSS / min(|a|, |b|)`; two empties are at 0, one empty side at 1.
fn lcss_reference(a: &[Point], b: &[Point], eps: f64) -> f64 {
    match (a.is_empty(), b.is_empty()) {
        (true, true) => 0.0,
        (true, false) | (false, true) => 1.0,
        (false, false) => 1.0 - lcss_len_reference(a, b, eps) as f64 / a.len().min(b.len()) as f64,
    }
}

/// Asserts all three shipped measures equal their references bit for bit.
fn assert_bitwise(a: &[Point], b: &[Point], eps: f64) {
    let ctx = format!("|a| = {}, |b| = {}, eps = {eps}", a.len(), b.len());
    let pairs = [
        ("DTW", Dtw::new().dist(a, b), dtw_reference(a, b)),
        ("EDR", Edr::new(eps).dist(a, b), edr_reference(a, b, eps)),
        ("LCSS", Lcss::new(eps).dist(a, b), lcss_reference(a, b, eps)),
    ];
    for (name, got, want) in pairs {
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{name}: {got} vs {want} ({ctx})"
        );
    }
    assert_eq!(
        Lcss::new(eps).lcss_len(a, b),
        lcss_len_reference(a, b, eps),
        "LCSS length ({ctx})"
    );
}

fn random_walk(n: usize, rng: &mut impl Rng) -> Vec<Point> {
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

/// `x` moved by `k` ulps (`k < 0` toward zero for positive `x`).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits(x.to_bits().wrapping_add_signed(k))
}

#[test]
fn measures_equal_the_full_table_at_fixed_shapes() {
    // The degenerate shapes (empty, single point) and grossly unequal
    // lengths, where border cells decide the result.
    let shapes = [
        (0, 0),
        (0, 5),
        (1, 1),
        (1, 7),
        (2, 3),
        (4, 4),
        (5, 9),
        (17, 33),
        (40, 11),
    ];
    for (seed, &(n, m)) in shapes.iter().enumerate() {
        let mut rng = det_rng(900 + seed as u64);
        let a = random_walk(n, &mut rng);
        let b = random_walk(m, &mut rng);
        for eps in [0.0, 15.0] {
            assert_bitwise(&a, &b, eps);
            assert_bitwise(&b, &a, eps);
        }
    }
}

/// A point exactly `ε` away on one axis matches, and so do points a few
/// ulps closer; one ulp further does not — on the x axis, on the y
/// axis, and at `ε = 0`.
#[test]
fn eps_boundary_matches_inclusively() {
    let p = Point::new(1.0, 0.5);
    for (eps, edge) in [(2.0, 3.0), (0.0, 1.0), (0.25, 1.25)] {
        for k in -3i64..=3 {
            for q in [
                Point::new(ulps(edge, k), 0.5),
                Point::new(1.0, ulps(edge - 0.5, k)),
            ] {
                // At ε = 0 the edge is `p` itself, so any nonzero `k` misses.
                let hit = if eps == 0.0 { k == 0 } else { k <= 0 };
                let ctx = format!("eps = {eps}, q = ({:e}, {:e}), k = {k}", q.x, q.y);
                assert_eq!(within(&p, &q, eps), hit, "reference rule: {ctx}");
                assert_eq!(
                    Edr::new(eps).dist(&[p], &[q]),
                    if hit { 0.0 } else { 1.0 },
                    "{ctx}"
                );
                assert_eq!(
                    Lcss::new(eps).lcss_len(&[p], &[q]),
                    usize::from(hit),
                    "{ctx}"
                );
                assert_bitwise(&[p], &[q], eps);
            }
        }
    }
}

/// Boundary points inside longer sequences: every `b` point sits at
/// exactly `ε` or one ulp beyond from some `a` point, so the DPs'
/// results hinge on the inclusive comparison.
#[test]
fn eps_boundary_inside_sequences() {
    let eps = 2.0;
    let a: Vec<Point> = (0..8)
        .map(|i| Point::new(f64::from(i) * 4.0, 0.0))
        .collect();
    for k in [-1i64, 0, 1] {
        let b: Vec<Point> = (0..8)
            .map(|i| {
                let x = f64::from(i) * 4.0 + eps;
                Point::new(if i % 2 == 0 { ulps(x, k) } else { x }, 0.0)
            })
            .collect();
        assert_bitwise(&a, &b, eps);
        assert_bitwise(&b, &a, eps);
    }
}

proptest! {
    /// Random walks of every length pair below 40.
    #[test]
    fn measures_equal_the_full_table(
        seed in 0u64..1000,
        n in 0usize..40,
        m in 0usize..40,
        eps_at in 0usize..4,
    ) {
        let eps = [0.0, 5.0, 15.0, 60.0][eps_at];
        let mut rng = det_rng(seed);
        let a = random_walk(n, &mut rng);
        let b = random_walk(m, &mut rng);
        assert_bitwise(&a, &b, eps);
    }

    /// Coordinates on a quarter grid with ε a grid multiple: exact
    /// `|Δ| = ε` ties are common, not a measure-zero event.
    #[test]
    fn measures_equal_the_full_table_on_a_grid(
        a in collection::vec((-12i32..12, -12i32..12), 0..40),
        b in collection::vec((-12i32..12, -12i32..12), 0..40),
        eps_quarters in 0i32..5,
    ) {
        let grid = |v: &[(i32, i32)]| -> Vec<Point> {
            v.iter()
                .map(|&(x, y)| Point::new(f64::from(x) * 0.25, f64::from(y) * 0.25))
                .collect()
        };
        assert_bitwise(&grid(&a), &grid(&b), f64::from(eps_quarters) * 0.25);
    }
}
