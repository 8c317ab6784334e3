//! Length-bucketed minibatching of training pairs.
//!
//! Training pairs `(Ta, Tb)` (§IV-B) have variable lengths. Sources in a
//! minibatch must share a length so the encoder can run without masking;
//! targets are padded to the batch maximum and padded positions carry
//! `None`, which the losses mask out (zero loss, zero gradient).
//!
//! Everything is stored **time-major** (`tokens[t][b]`), the natural
//! layout for stepping an RNN over a batch.

use rand::seq::SliceRandom;
use rand::Rng;
use t2vec_spatial::vocab::Token;

/// One minibatch of sequence pairs.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Encoder inputs, time-major: `src[t][b]`; all sequences share the
    /// same length.
    pub src: Vec<Vec<Token>>,
    /// Decoder inputs, time-major: `BOS` then the target tokens (padded
    /// positions hold `PAD`).
    pub dec_inputs: Vec<Vec<Token>>,
    /// Decoder targets, time-major: the target tokens then `EOS`; padded
    /// positions are `None`.
    pub dec_targets: Vec<Vec<Option<Token>>>,
    /// Number of sequences in the batch.
    pub batch_size: usize,
    /// Total number of live (non-pad) target positions.
    pub num_target_tokens: usize,
}

/// Groups `(source, target)` token-sequence pairs into batches.
///
/// Pairs are bucketed by exact source length, shuffled within buckets,
/// and chunked to at most `max_batch` sequences. Pairs with an empty
/// source or an empty target are dropped (nothing to encode / decode).
pub fn make_batches(
    pairs: &[(Vec<Token>, Vec<Token>)],
    max_batch: usize,
    rng: &mut impl Rng,
) -> Vec<Batch> {
    assert!(max_batch > 0, "max_batch must be positive");
    let mut buckets: std::collections::HashMap<usize, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, (src, tgt)) in pairs.iter().enumerate() {
        if src.is_empty() || tgt.is_empty() {
            continue;
        }
        buckets.entry(src.len()).or_default().push(i);
    }
    let mut keys: Vec<usize> = buckets.keys().copied().collect();
    keys.sort_unstable();
    let mut batches = Vec::new();
    for key in keys {
        let mut idxs = buckets.remove(&key).expect("key from map");
        idxs.shuffle(rng);
        for chunk in idxs.chunks(max_batch) {
            batches.push(build_batch(pairs, chunk));
        }
    }
    batches.shuffle(rng);
    batches
}

fn build_batch(pairs: &[(Vec<Token>, Vec<Token>)], idxs: &[usize]) -> Batch {
    let batch_size = idxs.len();
    let src_len = pairs[idxs[0]].0.len();
    let max_tgt = idxs
        .iter()
        .map(|&i| pairs[i].1.len())
        .max()
        .expect("non-empty chunk");
    // +1 for EOS.
    let steps = max_tgt + 1;

    let mut src = vec![Vec::with_capacity(batch_size); src_len];
    let mut dec_inputs = vec![Vec::with_capacity(batch_size); steps];
    let mut dec_targets = vec![Vec::with_capacity(batch_size); steps];
    let mut num_target_tokens = 0;

    for &i in idxs {
        let (s, t) = &pairs[i];
        debug_assert_eq!(s.len(), src_len, "bucketing broke");
        for (pos, tok) in s.iter().enumerate() {
            src[pos].push(*tok);
        }
        for step in 0..steps {
            // decoder input: BOS, t[0], t[1], ...
            let input = if step == 0 {
                Token::BOS
            } else {
                t.get(step - 1).copied().unwrap_or(Token::PAD)
            };
            dec_inputs[step].push(input);
            // decoder target: t[0], ..., t[last], EOS, None...
            let target = match step.cmp(&t.len()) {
                std::cmp::Ordering::Less => Some(t[step]),
                std::cmp::Ordering::Equal => Some(Token::EOS),
                std::cmp::Ordering::Greater => None,
            };
            if target.is_some() {
                num_target_tokens += 1;
            }
            dec_targets[step].push(target);
        }
    }
    Batch {
        src,
        dec_inputs,
        dec_targets,
        batch_size,
        num_target_tokens,
    }
}

/// A next-token (language-model) batch over same-length sequences: no
/// source and no BOS/EOS; `dec_inputs[t]` holds each sequence's token
/// `t` and `dec_targets[t]` its token `t + 1`. What
/// [`crate::fused::language_model_grads_into`] trains on.
///
/// # Panics
/// Panics if `seqs` is empty, or its sequences differ in length or are
/// shorter than two tokens.
pub fn next_token_batch(seqs: &[&[Token]]) -> Batch {
    let len = seqs.first().expect("at least one sequence").len();
    assert!(
        len >= 2 && seqs.iter().all(|s| s.len() == len),
        "next-token batches need same-length sequences of two tokens or more"
    );
    let steps = len - 1;
    Batch {
        src: Vec::new(),
        dec_inputs: (0..steps)
            .map(|t| seqs.iter().map(|s| s[t]).collect())
            .collect(),
        dec_targets: (0..steps)
            .map(|t| seqs.iter().map(|s| Some(s[t + 1])).collect())
            .collect(),
        batch_size: seqs.len(),
        num_target_tokens: seqs.len() * steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_tensor::rng::det_rng;

    fn tok(v: u32) -> Token {
        Token(v + Token::NUM_SPECIALS)
    }

    fn pair(src: &[u32], tgt: &[u32]) -> (Vec<Token>, Vec<Token>) {
        (
            src.iter().map(|&v| tok(v)).collect(),
            tgt.iter().map(|&v| tok(v)).collect(),
        )
    }

    #[test]
    fn next_token_batch_targets_the_following_token() {
        let (a, b) = ([tok(1), tok(2), tok(3)], [tok(4), tok(5), tok(6)]);
        let batch = next_token_batch(&[&a, &b]);
        assert!(batch.src.is_empty());
        assert_eq!(batch.dec_inputs, [[tok(1), tok(4)], [tok(2), tok(5)]]);
        assert_eq!(
            batch.dec_targets,
            [[Some(tok(2)), Some(tok(5))], [Some(tok(3)), Some(tok(6))]]
        );
        assert_eq!((batch.batch_size, batch.num_target_tokens), (2, 4));
    }

    #[test]
    #[should_panic(expected = "same-length")]
    fn next_token_batch_rejects_ragged_lengths() {
        next_token_batch(&[&[tok(1), tok(2)], &[tok(1), tok(2), tok(3)]]);
    }

    #[test]
    fn buckets_by_source_length() {
        let pairs = vec![
            pair(&[1, 2], &[1, 2, 3]),
            pair(&[3, 4, 5], &[3]),
            pair(&[6, 7], &[6]),
        ];
        let mut rng = det_rng(1);
        let batches = make_batches(&pairs, 8, &mut rng);
        assert_eq!(batches.len(), 2);
        let sizes: Vec<usize> = batches.iter().map(|b| b.batch_size).collect();
        assert!(sizes.contains(&2) && sizes.contains(&1));
        for b in &batches {
            // time-major: src[t] has batch_size entries
            for step in &b.src {
                assert_eq!(step.len(), b.batch_size);
            }
        }
    }

    #[test]
    fn respects_max_batch() {
        let pairs: Vec<_> = (0..10).map(|i| pair(&[i, i + 1], &[i])).collect();
        let mut rng = det_rng(2);
        let batches = make_batches(&pairs, 4, &mut rng);
        assert_eq!(batches.len(), 3); // 4 + 4 + 2
        assert!(batches.iter().all(|b| b.batch_size <= 4));
        let total: usize = batches.iter().map(|b| b.batch_size).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn decoder_layout_bos_tokens_eos() {
        let pairs = vec![pair(&[1], &[5, 6])];
        let mut rng = det_rng(3);
        let b = &make_batches(&pairs, 1, &mut rng)[0];
        // steps = |tgt| + 1 = 3
        assert_eq!(b.dec_inputs.len(), 3);
        assert_eq!(b.dec_inputs[0][0], Token::BOS);
        assert_eq!(b.dec_inputs[1][0], tok(5));
        assert_eq!(b.dec_inputs[2][0], tok(6));
        assert_eq!(b.dec_targets[0][0], Some(tok(5)));
        assert_eq!(b.dec_targets[1][0], Some(tok(6)));
        assert_eq!(b.dec_targets[2][0], Some(Token::EOS));
        assert_eq!(b.num_target_tokens, 3);
    }

    #[test]
    fn padding_masks_short_targets() {
        let pairs = vec![pair(&[1, 2], &[5]), pair(&[3, 4], &[6, 7, 8])];
        let mut rng = det_rng(4);
        let batches = make_batches(&pairs, 8, &mut rng);
        assert_eq!(batches.len(), 1);
        let b = &batches[0];
        assert_eq!(b.dec_targets.len(), 4); // max_tgt 3 + EOS
                                            // Short sequence: tokens [5, EOS, None, None].
        let col: Vec<Option<Token>> = (0..4)
            .map(|t| {
                let idx = (0..b.batch_size)
                    .find(|&bi| b.dec_targets[0][bi] == Some(tok(5)))
                    .unwrap();
                b.dec_targets[t][idx]
            })
            .collect();
        assert_eq!(col, vec![Some(tok(5)), Some(Token::EOS), None, None]);
        // live targets: (1+1) + (3+1) = 6
        assert_eq!(b.num_target_tokens, 6);
        // padded decoder inputs are PAD
        let idx = (0..b.batch_size)
            .find(|&bi| b.dec_targets[0][bi] == Some(tok(5)))
            .unwrap();
        assert_eq!(b.dec_inputs[3][idx], Token::PAD);
    }

    #[test]
    fn drops_empty_pairs() {
        let pairs = vec![pair(&[], &[1]), pair(&[1], &[]), pair(&[1], &[1])];
        let mut rng = det_rng(5);
        let batches = make_batches(&pairs, 8, &mut rng);
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].batch_size, 1);
    }

    #[test]
    fn empty_input_empty_output() {
        let mut rng = det_rng(6);
        assert!(make_batches(&[], 4, &mut rng).is_empty());
    }

    #[test]
    fn every_pair_appears_exactly_once() {
        // Conservation: across all batches, the multiset of (first source
        // token, first target token) pairs equals the input's.
        let mut rng = det_rng(7);
        let pairs: Vec<(Vec<Token>, Vec<Token>)> = (0..57)
            .map(|i| pair(&[i, i + 1, i % 3], &[i * 2, i * 2 + 1]))
            .collect();
        let batches = make_batches(&pairs, 8, &mut rng);
        let mut seen: Vec<(Token, Token)> = Vec::new();
        for b in &batches {
            for bi in 0..b.batch_size {
                let first_src = b.src[0][bi];
                let first_tgt = b.dec_targets[0][bi].unwrap();
                seen.push((first_src, first_tgt));
            }
        }
        let mut expected: Vec<(Token, Token)> = pairs.iter().map(|(s, t)| (s[0], t[0])).collect();
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn num_target_tokens_counts_eos_per_sequence() {
        let mut rng = det_rng(8);
        let pairs = vec![pair(&[1, 2], &[3]), pair(&[4, 5], &[6, 7])];
        let batches = make_batches(&pairs, 8, &mut rng);
        let total: usize = batches.iter().map(|b| b.num_target_tokens).sum();
        // (1 + EOS) + (2 + EOS) = 5
        assert_eq!(total, 5);
    }
}
