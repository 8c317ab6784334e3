//! k-means clustering of trajectory representations.
//!
//! Implements future-work item 1 of §VI — *"employing the learned
//! representations to explore more downstream tasks, e.g., trajectory
//! clustering"*. Because t2vec reduces trajectories to vectors, clustering
//! a large corpus is just Lloyd's algorithm with k-means++ seeding, at
//! `O(N·k·|v|)` per iteration — infeasible with the `O(n²)` pairwise
//! measures the paper replaces.
//!
//! The fit is also what builds the IVF cells of [`crate::ann`], so it
//! pays exactly that: seeding is one `N·|v|` pass per seed, a Lloyd
//! iteration scores each (point, centroid) pair once, and every distance
//! is the [`simd::sq_dist_f32`] kernel the index later probes and scans
//! with (DESIGN.md §14, "Build cost").

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use t2vec_tensor::rng::weighted_choice;
use t2vec_tensor::{parallel, simd};

/// Result of a k-means run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeansResult {
    /// Cluster centroids, `k × dim`.
    pub centroids: Vec<Vec<f32>>,
    /// Cluster assignment per input vector.
    pub assignments: Vec<usize>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

/// The centroid nearest to `v` and its squared distance: one
/// [`simd::sq_dist_f32`] per centroid under `total_cmp`, lowest id on
/// ties. This is the one nearest-centroid definition — Lloyd's
/// assignment step here and cell assignment in [`crate::ann::Ivf`] both
/// call it, so a vector trains into the cell it is later stored in.
///
/// # Panics
/// Panics if `centroids` is empty.
pub fn nearest(centroids: &[Vec<f32>], v: &[f32]) -> (usize, f32) {
    let mut best = (0usize, simd::sq_dist_f32(&centroids[0], v));
    for (i, c) in centroids.iter().enumerate().skip(1) {
        let d = simd::sq_dist_f32(c, v);
        // Strict `Less` keeps the lowest centroid id on ties.
        if d.total_cmp(&best.1) == Ordering::Less {
            best = (i, d);
        }
    }
    best
}

/// Folds one more seed into the k-means++ weights: `weights[i]` is
/// point `i`'s squared distance to its nearest seed so far, so each new
/// seed costs `n` distances instead of `n · seeds`.
fn absorb_seed(weights: &mut [f64], vectors: &[Vec<f32>], seed: &[f32]) {
    for (w, v) in weights.iter_mut().zip(vectors) {
        *w = w.min(f64::from(simd::sq_dist_f32(v, seed)));
    }
}

/// k-means++ seeding: the first seed uniform, each further one drawn
/// with probability proportional to the squared distance to the nearest
/// seed already chosen (uniform once every point sits on a seed).
fn seed(vectors: &[Vec<f32>], k: usize, rng: &mut impl Rng) -> Vec<Vec<f32>> {
    let mut centroids = Vec::with_capacity(k);
    let mut weights = vec![f64::INFINITY; vectors.len()];
    let mut next = rng.random_range(0..vectors.len());
    loop {
        centroids.push(vectors[next].clone());
        if centroids.len() == k {
            return centroids;
        }
        absorb_seed(&mut weights, vectors, &vectors[next]);
        next = weighted_choice(rng, &weights);
    }
}

/// Lloyd's update from one assignment pass (`scored[i]` = point `i`'s
/// cluster and squared distance to it). A non-empty cluster moves to
/// its mean, summed in `f64` in point order — serial, so the centroids
/// do not depend on the thread count. Each empty cluster is re-seeded
/// at the point farthest from its assigned centroid that no other empty
/// cluster has taken in this pass, so two of them never land on the
/// same point.
fn update(vectors: &[Vec<f32>], scored: &[(usize, f32)], centroids: &mut [Vec<f32>]) {
    let dim = centroids[0].len();
    let mut sums = vec![0.0f64; centroids.len() * dim];
    let mut counts = vec![0usize; centroids.len()];
    for (v, &(a, _)) in vectors.iter().zip(scored) {
        counts[a] += 1;
        for (s, &x) in sums[a * dim..(a + 1) * dim].iter_mut().zip(v) {
            *s += f64::from(x);
        }
    }
    let mut taken: Vec<usize> = Vec::new();
    for (c, centroid) in centroids.iter_mut().enumerate() {
        if counts[c] == 0 {
            // `max_by` keeps the last maximum; reversing the index
            // order makes that the lowest point id.
            let far = (0..vectors.len())
                .filter(|i| !taken.contains(i))
                .max_by(|&a, &b| scored[a].1.total_cmp(&scored[b].1).then(b.cmp(&a)))
                .expect("fewer empty clusters than points");
            taken.push(far);
            centroid.clone_from(&vectors[far]);
        } else {
            let n = counts[c] as f64;
            for (x, s) in centroid.iter_mut().zip(&sums[c * dim..(c + 1) * dim]) {
                *x = (s / n) as f32;
            }
        }
    }
}

/// Runs k-means++ / Lloyd on `vectors`.
///
/// Converges when assignments stop changing or after `max_iter` rounds.
/// An iteration scores every (point, centroid) pair once through
/// [`nearest`], fanned out over [`parallel`] in chunks of points that
/// idle workers claim; a point's result does not depend on which worker
/// ran it, and the centroid sums
/// and the inertia are serial `f64` reductions in point order, so the
/// output is bitwise identical at any thread count and on every SIMD
/// backend.
///
/// # Panics
/// Panics if `k == 0`, `vectors` is empty, `k > vectors.len()`, or the
/// vectors have inconsistent dimensions.
pub fn kmeans(vectors: &[Vec<f32>], k: usize, max_iter: usize, rng: &mut impl Rng) -> KMeansResult {
    assert!(k > 0, "k must be positive");
    assert!(!vectors.is_empty(), "cannot cluster an empty set");
    assert!(k <= vectors.len(), "k exceeds the number of vectors");
    let dim = vectors[0].len();
    assert!(
        vectors.iter().all(|v| v.len() == dim),
        "inconsistent vector dimensions"
    );

    let mut centroids = seed(vectors, k, rng);
    let mut scored = vec![(0usize, 0.0f32); vectors.len()];
    let mut iterations = 0;
    for iter in 0..max_iter {
        iterations = iter + 1;
        let next = parallel::par_map(vectors, |_, v| nearest(&centroids, v));
        let changed = next.iter().zip(&scored).any(|(a, b)| a.0 != b.0);
        scored = next;
        if !changed && iter > 0 {
            break;
        }
        update(vectors, &scored, &mut centroids);
    }

    let assignments: Vec<usize> = scored.iter().map(|s| s.0).collect();
    let inertia = vectors
        .iter()
        .zip(&assignments)
        .map(|(v, &a)| f64::from(simd::sq_dist_f32(v, &centroids[a])))
        .sum();
    KMeansResult {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use t2vec_tensor::rng::{det_rng, standard_normal};

    fn sq_dist_f64(a: &[f32], b: &[f32]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (f64::from(x - y)) * f64::from(x - y))
            .sum()
    }

    /// The implementation this module shipped before the kernel-speed
    /// rewrite — scalar `f64` distances, every seed re-measured against
    /// every point — kept as the quality oracle.
    fn kmeans_f64(
        vectors: &[Vec<f32>],
        k: usize,
        max_iter: usize,
        rng: &mut impl Rng,
    ) -> KMeansResult {
        let dim = vectors[0].len();

        // k-means++ seeding.
        let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
        centroids.push(vectors[rng.random_range(0..vectors.len())].clone());
        while centroids.len() < k {
            let weights: Vec<f64> = vectors
                .iter()
                .map(|v| {
                    centroids
                        .iter()
                        .map(|c| sq_dist_f64(v, c))
                        .fold(f64::INFINITY, f64::min)
                })
                .collect();
            centroids.push(vectors[weighted_choice(rng, &weights)].clone());
        }

        let mut assignments = vec![0usize; vectors.len()];
        let mut iterations = 0;
        for iter in 0..max_iter {
            iterations = iter + 1;
            // Assign.
            let mut changed = false;
            for (i, v) in vectors.iter().enumerate() {
                let best = (0..k)
                    .min_by(|&a, &b| {
                        sq_dist_f64(v, &centroids[a])
                            .partial_cmp(&sq_dist_f64(v, &centroids[b]))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .expect("k > 0");
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            if !changed && iter > 0 {
                break;
            }
            // Update.
            let mut sums = vec![vec![0.0f64; dim]; k];
            let mut counts = vec![0usize; k];
            for (v, &a) in vectors.iter().zip(assignments.iter()) {
                counts[a] += 1;
                for (s, &x) in sums[a].iter_mut().zip(v.iter()) {
                    *s += f64::from(x);
                }
            }
            for c in 0..k {
                if counts[c] == 0 {
                    // Re-seed an empty cluster at the farthest point.
                    let far = vectors
                        .iter()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| {
                            sq_dist_f64(a, &centroids[c])
                                .partial_cmp(&sq_dist_f64(b, &centroids[c]))
                                .unwrap_or(std::cmp::Ordering::Equal)
                        })
                        .map(|(i, _)| i)
                        .expect("non-empty vectors");
                    centroids[c] = vectors[far].clone();
                } else {
                    for d in 0..dim {
                        centroids[c][d] = (sums[c][d] / counts[c] as f64) as f32;
                    }
                }
            }
        }

        let inertia = vectors
            .iter()
            .zip(assignments.iter())
            .map(|(v, &a)| sq_dist_f64(v, &centroids[a]))
            .sum();
        KMeansResult {
            centroids,
            assignments,
            inertia,
            iterations,
        }
    }

    fn blobs(seed: u64) -> (Vec<Vec<f32>>, Vec<usize>) {
        // Three well-separated Gaussian blobs in 2-D.
        let mut rng = det_rng(seed);
        let centers = [[0.0f32, 0.0], [10.0, 10.0], [-10.0, 10.0]];
        let mut vectors = Vec::new();
        let mut labels = Vec::new();
        for (li, c) in centers.iter().enumerate() {
            for _ in 0..30 {
                vectors.push(vec![
                    c[0] + standard_normal(&mut rng) * 0.5,
                    c[1] + standard_normal(&mut rng) * 0.5,
                ]);
                labels.push(li);
            }
        }
        (vectors, labels)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (vectors, labels) = blobs(1);
        let mut rng = det_rng(2);
        let result = kmeans(&vectors, 3, 50, &mut rng);
        // Perfect clustering up to label permutation: every true cluster
        // maps to exactly one k-means cluster.
        let mut mapping = std::collections::HashMap::new();
        for (truth, got) in labels.iter().zip(result.assignments.iter()) {
            let e = mapping.entry(truth).or_insert(*got);
            assert_eq!(e, got, "blob split across clusters");
        }
        assert_eq!(
            mapping
                .values()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
        assert!(
            result.inertia < 100.0,
            "inertia too high: {}",
            result.inertia
        );
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let vectors = vec![vec![1.0, 0.0], vec![5.0, 5.0], vec![-3.0, 2.0]];
        let mut rng = det_rng(3);
        let r = kmeans(&vectors, 3, 20, &mut rng);
        assert!(r.inertia < 1e-9);
        let uniq: std::collections::HashSet<usize> = r.assignments.iter().copied().collect();
        assert_eq!(uniq.len(), 3);
    }

    #[test]
    fn k_one_centroid_is_mean() {
        let vectors = vec![vec![0.0f32], vec![2.0], vec![4.0]];
        let mut rng = det_rng(4);
        let r = kmeans(&vectors, 1, 20, &mut rng);
        assert!((r.centroids[0][0] - 2.0).abs() < 1e-5);
        assert_eq!(r.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn inertia_non_increasing_in_k() {
        let (vectors, _) = blobs(5);
        let mut last = f64::INFINITY;
        for k in [1, 2, 3, 5, 10] {
            let mut rng = det_rng(6);
            let r = kmeans(&vectors, k, 50, &mut rng);
            assert!(
                r.inertia <= last * 1.05,
                "inertia should broadly decrease with k: k={k}, {} > {last}",
                r.inertia
            );
            last = r.inertia.min(last);
        }
    }

    #[test]
    #[should_panic(expected = "k exceeds")]
    fn k_larger_than_n_panics() {
        let mut rng = det_rng(7);
        let _ = kmeans(&[vec![1.0]], 2, 10, &mut rng);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_input_panics() {
        let mut rng = det_rng(8);
        let _ = kmeans(&[], 1, 10, &mut rng);
    }

    /// `n` vectors of `dim` values scattered (σ = 0.3) around `centres`
    /// uniform centres in `[-1, 1]^dim`.
    fn clustered(n: usize, dim: usize, centres: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = det_rng(seed);
        let centres: Vec<Vec<f32>> = (0..centres)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect();
        (0..n)
            .map(|i| {
                centres[i % centres.len()]
                    .iter()
                    .map(|c| c + standard_normal(&mut rng) * 0.3)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn inertia_within_two_percent_of_the_f64_oracle() {
        // Same seed, different low bits in the seeding weights: the two
        // may pick different seeds, so the bar is quality, not equality.
        for (vectors, k) in [(blobs(1).0, 3), (clustered(1_000, 256, 64, 9), 64)] {
            let got = kmeans(&vectors, k, 25, &mut det_rng(10));
            let want = kmeans_f64(&vectors, k, 25, &mut det_rng(10));
            assert!(
                got.inertia <= want.inertia * 1.02,
                "k={k}: inertia {} vs oracle {}",
                got.inertia,
                want.inertia
            );
        }
    }

    proptest! {
        #[test]
        fn running_min_seeding_weights_equal_the_naive_definition(
            n in 2usize..40,
            dim in 1usize..40,
            seeds in 1usize..8,
            seed in 0u64..1_000,
        ) {
            let vectors = clustered(n, dim, 3, seed);
            let chosen: Vec<usize> = (0..seeds).map(|s| (s * 7 + 1) % n).collect();
            let mut running = vec![f64::INFINITY; n];
            for &s in &chosen {
                absorb_seed(&mut running, &vectors, &vectors[s]);
            }
            for (v, w) in vectors.iter().zip(&running) {
                let naive = chosen
                    .iter()
                    .map(|&s| f64::from(simd::sq_dist_f32(v, &vectors[s])))
                    .fold(f64::INFINITY, f64::min);
                prop_assert_eq!(w.to_bits(), naive.to_bits());
            }
        }
    }

    #[test]
    fn empty_clusters_reseed_at_distinct_farthest_points() {
        // Clusters 1 and 2 own no point: they must take the farthest
        // and the second-farthest point, not both the farthest.
        let vectors = vec![vec![0.0f32], vec![1.0], vec![5.0], vec![9.0]];
        let mut centroids = vec![vec![0.0f32], vec![100.0], vec![100.0]];
        let scored: Vec<(usize, f32)> = vectors.iter().map(|v| (0, v[0] * v[0])).collect();
        update(&vectors, &scored, &mut centroids);
        assert_eq!(centroids, vec![vec![3.75], vec![9.0], vec![5.0]]);
    }

    #[test]
    fn fewer_distinct_vectors_than_clusters() {
        // Seeding runs out of distinct points and falls back to uniform
        // draws, so some seeds coincide. The tie-break hands every point
        // to the lowest-id copy; no two clusters that own points may
        // share a centroid.
        let vectors: Vec<Vec<f32>> = (0..100).map(|i| vec![(i % 5) as f32, 1.0]).collect();
        let r = kmeans(&vectors, 8, 25, &mut det_rng(11));
        let again = kmeans(&vectors, 8, 25, &mut det_rng(11));
        assert_eq!(r.assignments, again.assignments);
        assert_eq!(r.centroids, again.centroids);
        assert!(r.inertia < 1e-9, "five clusters fit five points exactly");
        let owning: std::collections::BTreeSet<usize> = r.assignments.iter().copied().collect();
        assert_eq!(owning.len(), 5);
        let distinct: std::collections::HashSet<Vec<u32>> = owning
            .iter()
            .map(|&c| r.centroids[c].iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(distinct.len(), 5, "two owning clusters share a centroid");
    }

    #[test]
    fn non_finite_input_is_deterministic_and_does_not_panic() {
        let mut vectors = blobs(12).0;
        vectors[7] = vec![f32::NAN, 0.0];
        vectors[50] = vec![f32::INFINITY, 1.0];
        let a = kmeans(&vectors, 3, 20, &mut det_rng(13));
        let b = kmeans(&vectors, 3, 20, &mut det_rng(13));
        assert_eq!(a.assignments, b.assignments);
    }
}
