//! Vector indexes over trajectory representations.
//!
//! After encoding, k-nearest-trajectory search is plain vector search.
//! [`BruteForceIndex`] is the exact `O(N·|v|)` scan used for the paper's
//! experiments; the approximate index the paper's future-work item 3
//! (§VI) asks for is [`crate::ann::IvfIndex`], which ranks with the
//! [`by_dist_then_id`] / [`select_top_k`] pair defined here.

use serde::{Deserialize, Serialize};
use t2vec_obs as obs;
use t2vec_tensor::simd;

/// Common interface of the vector indexes.
pub trait VectorIndex {
    /// Adds a vector, returning its id (insertion order).
    fn add(&mut self, v: Vec<f32>) -> usize;

    /// The `k` nearest stored vectors to `query` by Euclidean distance,
    /// closest first, as `(id, distance)`.
    fn knn(&self, query: &[f32], k: usize) -> Vec<(usize, f32)>;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// `true` when nothing is stored.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// `total_cmp` gives a total order (NaN distances sort last instead of
/// scrambling the comparison sort); equal distances break ties by
/// ascending id so results are deterministic across candidate orders.
/// The one ranking order of every tier — brute force, IVF cells and
/// probes, the serving store's shard merge — whatever the id type, so
/// their results merge and compare bitwise.
pub fn by_dist_then_id<I: Ord>(a: &(I, f32), b: &(I, f32)) -> std::cmp::Ordering {
    a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0))
}

/// Keeps the `k` smallest scored pairs under [`by_dist_then_id`], sorted
/// ascending. Output is identical to a full sort + truncate — the
/// comparator is a total order and ids are distinct, so the k smallest
/// are unique regardless of `select_nth_unstable_by`'s pivoting — but
/// the scan costs O(n + k log k) instead of O(n log n).
pub fn select_top_k<I: Ord>(scored: &mut Vec<(I, f32)>, k: usize) {
    if scored.len() > k {
        if k > 0 {
            scored.select_nth_unstable_by(k - 1, by_dist_then_id);
        }
        scored.truncate(k);
    }
    scored.sort_unstable_by(by_dist_then_id);
}

/// Exact k-NN by linear scan.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BruteForceIndex {
    vectors: Vec<Vec<f32>>,
}

impl BruteForceIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an index from vectors (ids follow input order).
    pub fn from_vectors(vectors: Vec<Vec<f32>>) -> Self {
        Self { vectors }
    }

    /// Read access to a stored vector.
    pub fn vector(&self, id: usize) -> &[f32] {
        &self.vectors[id]
    }

    /// Exact k-NN for a batch of queries in one pass over the stored
    /// vectors: queries are processed in blocks of `QUERY_BLOCK`, so
    /// each stored vector is fetched from memory once per block instead
    /// of once per query. Per `(query, vector)` pair the distance call
    /// is exactly the one [`VectorIndex::knn`] makes, so every result
    /// row is **bitwise identical** to the corresponding single-query
    /// `knn` — this is purely a memory-traffic optimisation.
    pub fn knn_batch(&self, queries: &[Vec<f32>], k: usize) -> Vec<Vec<(usize, f32)>> {
        let t0 = std::time::Instant::now();
        simd::record_dispatch();
        let n = self.vectors.len();
        let mut out = Vec::with_capacity(queries.len());
        for block in queries.chunks(QUERY_BLOCK) {
            let mut scored: Vec<Vec<(usize, f32)>> = vec![Vec::with_capacity(n); block.len()];
            for (id, v) in self.vectors.iter().enumerate() {
                for (qi, q) in block.iter().enumerate() {
                    scored[qi].push((id, simd::sq_dist_f32(v, q)));
                }
            }
            obs::counter!("index.scan.vectors").add((n * block.len()) as u64);
            for mut s in scored {
                select_top_k(&mut s, k);
                for e in &mut s {
                    e.1 = e.1.sqrt();
                }
                out.push(s);
            }
        }
        obs::histogram!("index.brute.batch_query_ns").record_duration(t0.elapsed());
        out
    }
}

/// Queries per stored-vector pass in [`BruteForceIndex::knn_batch`]: at
/// 256-dim f32 queries a block is 16 KiB of query data — L1-resident
/// alongside one stored vector — while the 10⁴×256 store streams once
/// per 16 queries instead of once per query.
const QUERY_BLOCK: usize = 16;

impl VectorIndex for BruteForceIndex {
    fn add(&mut self, v: Vec<f32>) -> usize {
        self.vectors.push(v);
        self.vectors.len() - 1
    }

    fn knn(&self, query: &[f32], k: usize) -> Vec<(usize, f32)> {
        let t0 = std::time::Instant::now();
        simd::record_dispatch();
        let mut scored: Vec<(usize, f32)> = self
            .vectors
            .iter()
            .enumerate()
            .map(|(id, v)| (id, simd::sq_dist_f32(v, query)))
            .collect();
        obs::counter!("index.scan.vectors").add(scored.len() as u64);
        select_top_k(&mut scored, k);
        for s in &mut scored {
            s.1 = s.1.sqrt();
        }
        obs::histogram!("index.brute.query_ns").record_duration(t0.elapsed());
        scored
    }

    fn len(&self) -> usize {
        self.vectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use t2vec_tensor::rng::det_rng;

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = det_rng(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn brute_force_exact_small() {
        let mut idx = BruteForceIndex::new();
        idx.add(vec![0.0, 0.0]);
        idx.add(vec![1.0, 0.0]);
        idx.add(vec![0.0, 2.0]);
        let r = idx.knn(&[0.1, 0.0], 2);
        assert_eq!(r[0].0, 0);
        assert_eq!(r[1].0, 1);
        assert!((r[0].1 - 0.1).abs() < 1e-6);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    fn knn_k_larger_than_n() {
        let idx = BruteForceIndex::from_vectors(vec![vec![1.0], vec![2.0]]);
        assert_eq!(idx.knn(&[0.0], 10).len(), 2);
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = BruteForceIndex::new();
        assert!(idx.knn(&[1.0], 5).is_empty());
        assert!(idx.is_empty());
    }

    #[test]
    fn distances_sorted_ascending() {
        let vectors = random_vectors(200, 8, 1);
        let idx = BruteForceIndex::from_vectors(vectors);
        let r = idx.knn(&[0.0; 8], 20);
        for w in r.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn nan_vectors_sort_last_without_scrambling_finite_ranking() {
        let mut idx = BruteForceIndex::new();
        idx.add(vec![f32::NAN, 0.0]); // id 0: NaN distance to anything
        idx.add(vec![3.0, 0.0]); // id 1
        idx.add(vec![1.0, 0.0]); // id 2
        idx.add(vec![0.0, f32::NAN]); // id 3: NaN distance
        idx.add(vec![2.0, 0.0]); // id 4
        let r = idx.knn(&[0.0, 0.0], 5);
        // Finite vectors first, in true distance order; NaN vectors
        // last, ordered by id.
        let ids: Vec<usize> = r.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![2, 4, 1, 0, 3]);
        assert!(r[0].1.is_finite() && r[2].1.is_finite());
        assert!(r[3].1.is_nan() && r[4].1.is_nan());
        // NaN entries must never displace finite ones from a short list.
        let top2: Vec<usize> = idx.knn(&[0.0, 0.0], 2).iter().map(|&(id, _)| id).collect();
        assert_eq!(top2, vec![2, 4]);
    }

    #[test]
    fn duplicate_distances_tie_break_by_ascending_id() {
        // Four identical vectors interleaved with a closer and a farther
        // one: ties must come back in insertion-id order.
        let idx = BruteForceIndex::from_vectors(vec![
            vec![5.0, 0.0], // id 0 (tie group)
            vec![9.0, 0.0], // id 1 (farther)
            vec![5.0, 0.0], // id 2 (tie group)
            vec![1.0, 0.0], // id 3 (closest)
            vec![5.0, 0.0], // id 4 (tie group)
            vec![5.0, 0.0], // id 5 (tie group)
        ]);
        let ids: Vec<usize> = idx.knn(&[0.0, 0.0], 6).iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![3, 0, 2, 4, 5, 1]);
    }

    /// The batched scan is a memory-traffic optimisation only: every
    /// result row must be bitwise-equal to the single-query scan,
    /// including on ragged batch sizes around the query block.
    #[test]
    fn knn_batch_bitwise_matches_single_query_knn() {
        let idx = BruteForceIndex::from_vectors(random_vectors(300, 16, 21));
        for nq in [1, 7, 8, 9, 17] {
            let queries = random_vectors(nq, 16, 22);
            let batched = idx.knn_batch(&queries, 10);
            assert_eq!(batched.len(), nq);
            for (q, row) in queries.iter().zip(&batched) {
                assert_eq!(row, &idx.knn(q, 10));
            }
        }
    }

    #[test]
    fn knn_batch_empty_cases() {
        let idx = BruteForceIndex::from_vectors(random_vectors(10, 4, 23));
        assert!(idx.knn_batch(&[], 3).is_empty());
        let empty = BruteForceIndex::new();
        assert_eq!(
            empty.knn_batch(&random_vectors(2, 4, 24), 3),
            vec![vec![], vec![]]
        );
    }
}
