//! The three training losses of the paper.
//!
//! | Loss | Paper | Target distribution | Partition function |
//! |------|-------|--------------------|--------------------|
//! | `L1` | Eq. 4 | one-hot on the target cell | full vocabulary |
//! | `L2` | Eq. 5 | exponential-kernel weights over cells near the target | full vocabulary |
//! | `L3` | Eq. 7 | same weights, restricted to the K nearest cells | K nearest ∪ NCE noise sample |
//!
//! `L2`'s per-token decoding cost is `O(|V|)` (it materialises logits for
//! the whole vocabulary), which is exactly why the paper reports it is
//! too expensive to converge in Table VII; `L3` reduces the cost to
//! `O(K + |O|)` with K = 20 and |O| = 500 noise cells.
//!
//! Special tokens (`EOS` in particular) have no spatial position; they
//! always receive a one-hot target.

use rand::{Rng, RngExt};
use t2vec_spatial::vocab::{NeighborTable, Token};
#[cfg(test)]
use t2vec_tape::Var;

/// Per-row soft targets of the cross-entropy losses: `(column, weight)`
/// pairs over the vocabulary. An empty row contributes zero loss and
/// zero gradient, which is how padded positions are masked out.
pub type SoftTargets = Vec<Vec<(usize, f32)>>;

/// Which training loss to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LossKind {
    /// `L1`: plain negative log likelihood (Eq. 4).
    Nll,
    /// `L2`: exact spatial-proximity-aware loss (Eq. 5). Expensive —
    /// `O(|y| · |V|)` per trajectory.
    Spatial,
    /// `L3`: approximate spatial loss (Eq. 7) with `noise` NCE samples
    /// (the paper uses 500).
    SpatialNce {
        /// Number of noise cells |O(y_t)| sampled per target.
        noise: usize,
    },
}

impl LossKind {
    /// The paper's default: `L3` with 500 noise cells.
    pub fn paper_default() -> Self {
        LossKind::SpatialNce { noise: 500 }
    }

    /// Short name used in experiment tables ("L1", "L2", "L3").
    pub fn label(&self) -> &'static str {
        match self {
            LossKind::Nll => "L1",
            LossKind::Spatial => "L2",
            LossKind::SpatialNce { .. } => "L3",
        }
    }
}

/// [`dense_targets_into`] into fresh buffers — the tape oracle's targets.
#[cfg(test)]
pub(crate) fn dense_targets(
    targets: &[Option<Token>],
    table: Option<&NeighborTable>,
) -> SoftTargets {
    let mut out = SoftTargets::new();
    dense_targets_into(targets, table, &mut out);
    out
}

/// Builds the dense per-row soft targets for `L1`/`L2` into caller-owned
/// buffers: reuses the outer vec and every inner row vec (cleared,
/// capacity kept), so steady-state calls with recurring shapes allocate
/// nothing.
///
/// `targets[b]` is `None` for padded positions (masked). With
/// `table = None` the result is one-hot (`L1`); with a
/// [`NeighborTable`] the K-nearest spatial weights of Eq. 5 are used
/// (`L2`), truncated at the table's K (the kernel decays so fast that
/// mass beyond the K-th neighbour is negligible for the paper's
/// θ = 100 m).
pub fn dense_targets_into(
    targets: &[Option<Token>],
    table: Option<&NeighborTable>,
    out: &mut SoftTargets,
) {
    out.resize_with(targets.len().max(out.len()), Vec::new);
    out.truncate(targets.len());
    for (t, row) in targets.iter().zip(out.iter_mut()) {
        row.clear();
        match t {
            None => {}
            Some(tok) if tok.is_special() => row.push((tok.idx(), 1.0)),
            Some(tok) => match table {
                None => row.push((tok.idx(), 1.0)),
                Some(table) => row.extend(
                    table
                        .neighbors(*tok)
                        .iter()
                        .zip(table.weights(*tok).iter())
                        .map(|(n, &w)| (n.idx(), w)),
                ),
            },
        }
    }
}

/// [`sampled_targets_into`] into fresh buffers, returning `(candidates,
/// weights)` in the layout expected by
/// `t2vec_tape::Var::sampled_weighted_ce` — the tape oracle's loss.
#[cfg(test)]
pub(crate) fn sampled_targets(
    targets: &[Option<Token>],
    table: &NeighborTable,
    noise: usize,
    vocab_size: usize,
    rng: &mut impl Rng,
) -> (Vec<Vec<usize>>, SoftTargets) {
    let mut candidates = Vec::with_capacity(targets.len());
    let mut weights: SoftTargets = Vec::with_capacity(targets.len());
    candidates.resize_with(targets.len(), Vec::new);
    weights.resize_with(targets.len(), Vec::new);
    let mut seen = std::collections::HashSet::new();
    sampled_targets_into(
        targets,
        table,
        noise,
        vocab_size,
        rng,
        &mut candidates,
        &mut weights,
        &mut seen,
    );
    (candidates, weights)
}

/// Builds the candidate sets and weights for the sampled loss `L3`
/// (Eq. 7): for each live target, the candidates are its K nearest cells
/// (from `table`) followed by `noise` cells sampled uniformly from the
/// rest of the vocabulary, and the weights (`(candidate position,
/// weight)`) cover the K-nearest prefix. This is the single place the
/// `O(y_t)` noise sampling of Eq. 7 lives: the RNG is consumed row by
/// row, so an identical stream yields identical candidate sets.
///
/// Writes into caller-owned buffers: `candidates` and `weights` must
/// already hold `targets.len()` rows (inner vecs are cleared and
/// refilled, keeping their capacity); `seen` is dedup scratch for the
/// noise draw.
///
/// # Panics
/// Panics if the row buffers are shorter than `targets`.
#[allow(clippy::too_many_arguments)] // hot-path variant filling the arena's reused row buffers
pub fn sampled_targets_into(
    targets: &[Option<Token>],
    table: &NeighborTable,
    noise: usize,
    vocab_size: usize,
    rng: &mut impl Rng,
    candidates: &mut [Vec<usize>],
    weights: &mut [Vec<(usize, f32)>],
    seen: &mut std::collections::HashSet<usize>,
) {
    assert!(candidates.len() >= targets.len(), "candidate rows");
    assert!(weights.len() >= targets.len(), "weight rows");
    for (t, (cand, w)) in targets
        .iter()
        .zip(candidates.iter_mut().zip(weights.iter_mut()))
    {
        cand.clear();
        w.clear();
        let Some(tok) = t else {
            continue;
        };
        if tok.is_special() {
            cand.push(tok.idx());
            w.push((0, 1.0));
        } else {
            cand.extend(table.neighbors(*tok).iter().map(Token::idx));
            w.extend(table.weights(*tok).iter().enumerate().map(|(i, &w)| (i, w)));
        }
        // O(y_t): uniform noise from V ∖ N_K(y_t) (hot cells only),
        // without replacement.
        seen.clear();
        seen.extend(cand.iter().copied());
        let pool = vocab_size.saturating_sub(Token::NUM_SPECIALS as usize);
        let want = noise.min(pool.saturating_sub(seen.len()));
        let mut drawn = 0;
        let mut guard = 0;
        while drawn < want && guard < want * 200 + 1000 {
            guard += 1;
            let idx = rng.random_range(Token::NUM_SPECIALS as usize..vocab_size);
            if seen.insert(idx) {
                cand.push(idx);
                drawn += 1;
            }
        }
    }
}

/// Computes the loss contribution of one decoder step on the tape (the
/// gradient oracle's loss; training runs `crate::fused`).
///
/// `h` is the `(batch × hidden)` top decoder state, `w_out` the
/// `(vocab × hidden)` output projection; the return value is the *sum*
/// of token losses on this step (a `1×1` var) — divide by the number of
/// live tokens at the end of the unroll.
#[cfg(test)]
pub(crate) fn step_loss<'t>(
    kind: LossKind,
    h: Var<'t>,
    w_out: Var<'t>,
    targets: &[Option<Token>],
    table: &NeighborTable,
    vocab_size: usize,
    rng: &mut impl Rng,
) -> Var<'t> {
    match kind {
        LossKind::Nll => h
            .matmul_t(w_out)
            .weighted_ce_dense(dense_targets(targets, None)),
        LossKind::Spatial => h
            .matmul_t(w_out)
            .weighted_ce_dense(dense_targets(targets, Some(table))),
        LossKind::SpatialNce { noise } => {
            let (cand, w) = sampled_targets(targets, table, noise, vocab_size, rng);
            h.sampled_weighted_ce(w_out, cand, w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::{BBox, Point};
    use t2vec_spatial::vocab::Vocab;
    use t2vec_tape::Tape;
    use t2vec_tensor::init;
    use t2vec_tensor::rng::det_rng;

    fn vocab_and_table() -> (Vocab, NeighborTable) {
        let grid = Grid::new(BBox::new(0.0, 0.0, 500.0, 500.0), 100.0);
        // every cell hot
        let pts: Vec<Point> = (0..25)
            .flat_map(|c| {
                let p = grid.centroid(c);
                vec![p; 3]
            })
            .collect();
        let vocab = Vocab::build(grid, pts.iter(), 2);
        let table = NeighborTable::build(&vocab, 4, 100.0);
        (vocab, table)
    }

    #[test]
    fn l1_targets_are_one_hot() {
        let (vocab, _) = vocab_and_table();
        let tok = vocab.hot_tokens().nth(3).unwrap();
        let t = dense_targets(&[Some(tok), None, Some(Token::EOS)], None);
        assert_eq!(t[0], vec![(tok.idx(), 1.0)]);
        assert!(t[1].is_empty());
        assert_eq!(t[2], vec![(Token::EOS.idx(), 1.0)]);
    }

    #[test]
    fn l2_targets_are_spatial_and_normalised() {
        let (vocab, table) = vocab_and_table();
        let tok = vocab.hot_tokens().nth(12).unwrap(); // interior cell
        let t = dense_targets(&[Some(tok)], Some(&table));
        assert_eq!(t[0].len(), 4);
        let total: f32 = t[0].iter().map(|&(_, w)| w).sum();
        assert!((total - 1.0).abs() < 1e-5);
        // the target itself carries the largest weight
        let self_w = t[0].iter().find(|&&(i, _)| i == tok.idx()).unwrap().1;
        assert!(t[0].iter().all(|&(_, w)| w <= self_w));
    }

    #[test]
    fn l3_candidates_contain_neighbours_and_noise() {
        let (vocab, table) = vocab_and_table();
        let tok = vocab.hot_tokens().nth(7).unwrap();
        let mut rng = det_rng(1);
        let (cand, w) = sampled_targets(&[Some(tok)], &table, 10, vocab.size(), &mut rng);
        assert_eq!(cand[0].len(), 4 + 10);
        // no duplicates between neighbours and noise
        let set: std::collections::HashSet<_> = cand[0].iter().collect();
        assert_eq!(set.len(), cand[0].len());
        // weights cover only the K-nearest prefix
        assert_eq!(w[0].len(), 4);
        assert!(w[0].iter().all(|&(pos, _)| pos < 4));
    }

    #[test]
    fn l3_noise_clamped_to_vocab() {
        let (vocab, table) = vocab_and_table();
        let tok = vocab.hot_tokens().next().unwrap();
        let mut rng = det_rng(2);
        // Request far more noise than exists: must clamp, not hang.
        let (cand, _) = sampled_targets(&[Some(tok)], &table, 10_000, vocab.size(), &mut rng);
        assert!(cand[0].len() <= vocab.size());
        assert_eq!(cand[0].len(), 4 + (25 - 4)); // all hot cells end up included
    }

    #[test]
    fn eos_target_is_one_hot_in_l3() {
        let (vocab, table) = vocab_and_table();
        let mut rng = det_rng(3);
        let (cand, w) = sampled_targets(&[Some(Token::EOS)], &table, 5, vocab.size(), &mut rng);
        assert_eq!(cand[0][0], Token::EOS.idx());
        assert_eq!(w[0], vec![(0, 1.0)]);
        assert_eq!(cand[0].len(), 6);
    }

    #[test]
    fn l1_and_l2_losses_differ_l3_approximates_l2() {
        let (vocab, table) = vocab_and_table();
        let mut rng = det_rng(4);
        let hidden = 8;
        let h = init::uniform(2, hidden, 0.5, &mut rng);
        let w = init::uniform(vocab.size(), hidden, 0.5, &mut rng);
        let toks: Vec<Option<Token>> = vec![
            Some(vocab.hot_tokens().nth(6).unwrap()),
            Some(vocab.hot_tokens().nth(18).unwrap()),
        ];

        let eval = |kind: LossKind, seed: u64| -> f32 {
            let tape = Tape::new();
            let hv = tape.leaf(h.clone());
            let wv = tape.leaf(w.clone());
            let mut rng = det_rng(seed);
            step_loss(kind, hv, wv, &toks, &table, vocab.size(), &mut rng)
                .value()
                .item()
        };
        let l1 = eval(LossKind::Nll, 0);
        let l2 = eval(LossKind::Spatial, 0);
        assert!(
            (l1 - l2).abs() > 1e-4,
            "L1 and L2 should differ: {l1} vs {l2}"
        );
        // With noise covering the entire vocabulary, L3's partition
        // function equals L2's restricted to... the same set, so values
        // are close (weights differ only by the K-truncation).
        let l3 = eval(LossKind::SpatialNce { noise: 100 }, 1);
        assert!(
            (l3 - l2).abs() / l2 < 0.25,
            "L3 {l3} should approximate L2 {l2}"
        );
    }

    #[test]
    fn masked_rows_contribute_zero() {
        let (vocab, table) = vocab_and_table();
        let mut rng = det_rng(5);
        let tape = Tape::new();
        let h = tape.leaf(init::uniform(3, 4, 0.5, &mut rng));
        let w = tape.leaf(init::uniform(vocab.size(), 4, 0.5, &mut rng));
        let loss = step_loss(
            LossKind::paper_default(),
            h,
            w,
            &[None, None, None],
            &table,
            vocab.size(),
            &mut rng,
        );
        assert_eq!(loss.value().item(), 0.0);
    }

    #[test]
    fn labels() {
        assert_eq!(LossKind::Nll.label(), "L1");
        assert_eq!(LossKind::Spatial.label(), "L2");
        assert_eq!(LossKind::paper_default().label(), "L3");
    }
}
