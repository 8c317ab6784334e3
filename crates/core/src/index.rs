//! The ranking order of every vector search.
//!
//! After encoding, k-nearest-trajectory search is plain vector search.
//! Its one implementation is the serving store (`t2vec_serve::store`:
//! the exact sharded scan, and the IVF+i8 tier of [`crate::ann`]); both
//! rank with the [`by_dist_then_id`] / [`select_top_k`] pair defined
//! here, so their answers merge and compare bitwise.

/// `total_cmp` gives a total order (NaN distances sort last instead of
/// scrambling the comparison sort); equal distances break ties by
/// ascending id so results are deterministic across candidate orders.
/// The one ranking order of every tier — the exact scan, IVF cells and
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `(id, distance)` pairs in scan order, as a search scores them.
    fn scored(dists: &[f32]) -> Vec<(usize, f32)> {
        dists.iter().copied().enumerate().collect()
    }

    fn ids(top: &[(usize, f32)]) -> Vec<usize> {
        top.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn nan_distances_sort_last_without_scrambling_finite_ranking() {
        // Ids 0 and 3 score NaN (a NaN coordinate in a stored vector).
        let dists = [f32::NAN, 3.0, 1.0, f32::NAN, 2.0];
        let mut all = scored(&dists);
        select_top_k(&mut all, 5);
        // Finite distances first, in order; NaN last, ordered by id.
        assert_eq!(ids(&all), vec![2, 4, 1, 0, 3]);
        assert!(all[0].1.is_finite() && all[2].1.is_finite());
        assert!(all[3].1.is_nan() && all[4].1.is_nan());
        // NaN entries must never displace finite ones from a short list.
        let mut top2 = scored(&dists);
        select_top_k(&mut top2, 2);
        assert_eq!(ids(&top2), vec![2, 4]);
    }

    #[test]
    fn duplicate_distances_tie_break_by_ascending_id() {
        // Four equal distances interleaved with a closer and a farther
        // one: ties must come back in id order, whole or cut.
        let dists = [5.0, 9.0, 5.0, 1.0, 5.0, 5.0];
        let mut all = scored(&dists);
        select_top_k(&mut all, 6);
        assert_eq!(ids(&all), vec![3, 0, 2, 4, 5, 1]);
        let mut top3 = scored(&dists);
        select_top_k(&mut top3, 3);
        assert_eq!(ids(&top3), vec![3, 0, 2]);
    }
}
