//! Determinism gate for `kmeans` (ISSUE 15): centroids, assignments and
//! inertia must be **bitwise identical** at 1, 2 and 4 threads and on
//! every SIMD backend the host supports. The assignment pass fans out
//! over contiguous point ranges and scores through the
//! backend-invariant `sq_dist_f32`; the centroid sums and the inertia
//! are serial `f64` reductions in point order — so nothing may move.
//!
//! `set_backend` and `set_threads` are process-global, so this file
//! holds a SINGLE test function — its own binary, no sibling test can
//! race the flips.

use rand::RngExt;
use t2vec_core::kmeans::{kmeans, KMeansResult};
use t2vec_tensor::parallel;
use t2vec_tensor::rng::{det_rng, standard_normal};
use t2vec_tensor::simd::{self, Backend};

/// 600 vectors of 67 dims (not a multiple of any SIMD width) around 12
/// centres, plus exact duplicates so distance ties occur.
fn corpus() -> Vec<Vec<f32>> {
    let mut rng = det_rng(77);
    let centres: Vec<Vec<f32>> = (0..12)
        .map(|_| (0..67).map(|_| rng.random_range(-1.0..1.0)).collect())
        .collect();
    let mut vectors: Vec<Vec<f32>> = (0..600)
        .map(|i| {
            centres[i % 12]
                .iter()
                .map(|c| c + standard_normal(&mut rng) * 0.2)
                .collect()
        })
        .collect();
    for i in 0..40 {
        vectors[i * 7 + 3] = vectors[i].clone();
    }
    vectors
}

fn bits(r: &KMeansResult) -> (Vec<Vec<u32>>, &[usize], u64, usize) {
    let centroids = r
        .centroids
        .iter()
        .map(|c| c.iter().map(|x| x.to_bits()).collect())
        .collect();
    (centroids, &r.assignments, r.inertia.to_bits(), r.iterations)
}

#[test]
fn kmeans_is_bitwise_invariant_to_threads_and_backend() {
    let vectors = corpus();
    assert!(simd::set_backend(Backend::Scalar));
    parallel::set_threads(1);
    let reference = kmeans(&vectors, 16, 25, &mut det_rng(5));
    assert!(reference.iterations > 2, "fixture must exercise Lloyd");
    let backends = [
        Backend::Scalar,
        Backend::Sse2,
        Backend::Avx2,
        Backend::Avx512,
        Backend::Neon,
    ];
    for backend in backends.into_iter().filter(|b| b.supported()) {
        assert!(simd::set_backend(backend));
        for threads in [1, 2, 4] {
            parallel::set_threads(threads);
            let got = kmeans(&vectors, 16, 25, &mut det_rng(5));
            assert_eq!(
                bits(&got),
                bits(&reference),
                "{} at {threads} threads",
                backend.name()
            );
        }
    }
    // Leave the process in its default state for good measure.
    assert!(simd::set_backend(simd::detected()));
}
