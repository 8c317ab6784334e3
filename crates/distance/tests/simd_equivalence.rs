//! Cross-backend bitwise equivalence for the full distance measures.
//!
//! The kernel-level proptests in `t2vec-tensor` prove each SIMD
//! primitive equals scalar; this test proves the *composed* DPs do too:
//! DTW (banded and full), EDR and LCSS produce bit-identical `f64`
//! results on every backend the host supports.
//!
//! One `#[test]` function on purpose: it flips the process-global SIMD
//! backend, so it must not interleave with other tests (this file is its
//! own test binary).

use rand::{Rng, RngExt};
use t2vec_distance::dtw::Dtw;
use t2vec_distance::edr::Edr;
use t2vec_distance::lcss::Lcss;
use t2vec_distance::TrajDistance;
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;
use t2vec_tensor::simd::{self, Backend};

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

#[test]
fn all_measures_bitwise_identical_across_backends() {
    let measures: Vec<Box<dyn TrajDistance>> = vec![
        Box::new(Dtw::new()),
        Box::new(Dtw::with_band(3)),
        Box::new(Edr::new(15.0)),
        Box::new(Lcss::new(15.0)),
    ];
    // Lengths straddle the 2- and 4-wide f64 lanes, plus the degenerate
    // shapes (empty, single point, grossly unequal lengths).
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

    let backends: Vec<Backend> = [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ]
    .into_iter()
    .filter(|b| b.supported())
    .collect();

    for (seed, &(n, m)) in shapes.iter().enumerate().map(|(s, x)| (s as u64, x)) {
        let mut rng = det_rng(900 + seed);
        let a = random_walk(n, &mut rng);
        let b = random_walk(m, &mut rng);
        for measure in &measures {
            assert!(simd::set_backend(Backend::Scalar));
            let reference = measure.dist(&a, &b);
            for &be in &backends {
                assert!(simd::set_backend(be));
                let got = measure.dist(&a, &b);
                assert_eq!(
                    got.to_bits(),
                    reference.to_bits(),
                    "{} diverged on backend {} for shape ({n}, {m}): {got} vs {reference}",
                    measure.name(),
                    be.name(),
                );
            }
        }
    }
    // Leave the process on the auto-detected backend.
    assert!(simd::set_backend(simd::detected()));
}
