//! The vanilla-RNN embedding baseline (vRNN, §V-A/§V-B).
//!
//! The paper compares against an RNN *"trained by predicting the next
//! cell based on the cells that it has already seen"*, with the same
//! architecture as the t2vec encoder. A trajectory's representation is
//! the RNN's final hidden state. The baseline exists to show that a
//! sequence model alone — without the seq2seq reconstruction objective
//! and the spatial losses — does not learn route-level similarity.

use crate::error::T2VecError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2vec_nn::embedding::Embedding;
use t2vec_nn::gru::GruStack;
use t2vec_nn::loss::dense_targets;
use t2vec_nn::param::{apply_grads, Param};
use t2vec_spatial::point::Point;
use t2vec_spatial::vocab::{Token, Vocab};
use t2vec_tensor::opt::Adam;
use t2vec_tensor::{init, Tape, Var};
use t2vec_trajgen::Trajectory;

/// vRNN hyper-parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VRnnConfig {
    /// Embedding dimension.
    pub embed_dim: usize,
    /// Hidden size (= representation dimension).
    pub hidden: usize,
    /// GRU layers.
    pub layers: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Max global gradient norm.
    pub grad_clip: f32,
}

impl Default for VRnnConfig {
    fn default() -> Self {
        Self {
            embed_dim: 32,
            hidden: 32,
            layers: 1,
            batch_size: 32,
            epochs: 5,
            learning_rate: 2e-3,
            grad_clip: 5.0,
        }
    }
}

/// The trained vRNN baseline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VRnn {
    config: VRnnConfig,
    vocab: Vocab,
    embedding: Embedding,
    gru: GruStack,
    w_out: Param,
}

impl VRnn {
    /// Trains the next-cell language model over `trajectories` using
    /// `vocab` for tokenisation.
    ///
    /// # Errors
    /// [`T2VecError::InsufficientData`] when no trajectory has at least
    /// two tokens.
    pub fn train(
        config: &VRnnConfig,
        vocab: &Vocab,
        trajectories: &[Trajectory],
        rng: &mut impl Rng,
    ) -> Result<Self, T2VecError> {
        let sequences: Vec<Vec<Token>> = trajectories
            .iter()
            .map(|t| vocab.tokenize(&t.points))
            .filter(|s| s.len() >= 2)
            .collect();
        if sequences.is_empty() {
            return Err(T2VecError::InsufficientData(
                "vRNN needs trajectories with at least two tokens".into(),
            ));
        }
        let mut model = Self {
            config: *config,
            vocab: vocab.clone(),
            embedding: Embedding::new("vrnn.emb", vocab.size(), config.embed_dim, rng),
            gru: GruStack::new(
                "vrnn.gru",
                config.embed_dim,
                config.hidden,
                config.layers,
                rng,
            ),
            w_out: Param::new(
                "vrnn.w_out",
                init::xavier_uniform(vocab.size(), config.hidden, rng),
            ),
        };
        let adam = Adam::with_lr(config.learning_rate);

        // Bucket sequences by length so batches need no padding; train
        // the buckets in ascending length so a seed fixes the model.
        let mut buckets: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for (i, s) in sequences.iter().enumerate() {
            buckets.entry(s.len()).or_default().push(i);
        }
        let buckets: Vec<Vec<usize>> = buckets.into_values().collect();

        for _ in 0..config.epochs {
            for bucket in &buckets {
                for chunk in bucket.chunks(config.batch_size) {
                    model.train_step(&sequences, chunk, &adam, rng);
                }
            }
        }
        Ok(model)
    }

    fn train_step(
        &mut self,
        sequences: &[Vec<Token>],
        chunk: &[usize],
        adam: &Adam,
        _rng: &mut impl Rng,
    ) {
        let len = sequences[chunk[0]].len();
        let batch = chunk.len();
        let tape = Tape::new();
        let emb = self.embedding.bind(&tape);
        let gru = self.gru.bind(&tape);
        let w_out = self.w_out.bind(&tape);
        let mut vars: Vec<Var<'_>> = vec![emb];
        vars.extend(gru.vars());
        vars.push(w_out);

        let mut states: Vec<Var<'_>> = self
            .gru
            .zero_state(batch)
            .into_iter()
            .map(|m| tape.leaf(m))
            .collect();
        let mut total: Option<Var<'_>> = None;
        let mut tokens = 0usize;
        for t in 0..len - 1 {
            let inputs: Vec<Token> = chunk.iter().map(|&i| sequences[i][t]).collect();
            let targets: Vec<Option<Token>> =
                chunk.iter().map(|&i| Some(sequences[i][t + 1])).collect();
            let x = self.embedding.lookup(emb, &inputs);
            states = gru.step(x, &states);
            let h = *states.last().expect("non-empty stack");
            let loss = h
                .matmul_t(w_out)
                .weighted_ce_dense(dense_targets(&targets, None));
            tokens += targets.len();
            total = Some(match total {
                Some(acc) => acc.add(loss),
                None => loss,
            });
        }
        let Some(total) = total else { return };
        let loss = total.scale(1.0 / tokens.max(1) as f32);
        let mut grads = tape.backward(loss);
        let mut params: Vec<&mut Param> = vec![&mut self.embedding.table];
        params.extend(self.gru.params_mut());
        params.push(&mut self.w_out);
        let mut bindings: Vec<(&mut Param, Var<'_>)> =
            params.into_iter().zip(vars.iter().copied()).collect();
        apply_grads(&mut bindings, &mut grads, adam, self.config.grad_clip);
    }

    /// Representation dimension.
    pub fn repr_dim(&self) -> usize {
        self.config.hidden
    }

    /// Embeds a trajectory: the final hidden state after reading its
    /// token sequence.
    pub fn encode(&self, points: &[Point]) -> Vec<f32> {
        let tokens = self.vocab.tokenize(points);
        let mut states = self.gru.zero_state(1);
        for tok in &tokens {
            let x = self.embedding.lookup_raw(std::slice::from_ref(tok));
            self.gru.step_raw(&x, &mut states);
        }
        states.last().expect("non-empty stack").row(0).to_vec()
    }

    /// Batch encode (sequential; the baseline is only used at evaluation
    /// scale).
    pub fn encode_batch(&self, trajectories: &[Vec<Point>]) -> Vec<Vec<f32>> {
        trajectories.iter().map(|t| self.encode(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::BBox;
    use t2vec_tensor::rng::det_rng;
    use t2vec_trajgen::city::City;
    use t2vec_trajgen::dataset::DatasetBuilder;

    fn setup() -> (Vocab, Vec<Trajectory>) {
        let mut rng = det_rng(1);
        let city = City::tiny(&mut rng);
        let ds = DatasetBuilder::new(&city)
            .trips(30)
            .min_len(5)
            .build(&mut rng);
        let pts: Vec<Point> = ds.train.iter().flat_map(|t| t.points.clone()).collect();
        let grid = Grid::new(BBox::of_points(&pts).unwrap().expanded(200.0), 100.0);
        let vocab = Vocab::build(grid, pts.iter(), 3);
        (vocab, ds.train)
    }

    #[test]
    fn trains_and_encodes() {
        let (vocab, trajs) = setup();
        let mut rng = det_rng(2);
        let config = VRnnConfig {
            epochs: 2,
            ..Default::default()
        };
        let model = VRnn::train(&config, &vocab, &trajs, &mut rng).unwrap();
        let v = model.encode(&trajs[0].points);
        assert_eq!(v.len(), model.repr_dim());
        assert!(v.iter().any(|&x| x != 0.0));
        // Deterministic encoding.
        assert_eq!(v, model.encode(&trajs[0].points));
    }

    #[test]
    fn training_is_reproducible_from_a_seed() {
        let (vocab, trajs) = setup();
        let lengths: std::collections::BTreeSet<usize> = trajs
            .iter()
            .map(|t| vocab.tokenize(&t.points).len())
            .collect();
        assert!(lengths.len() >= 8, "need many length buckets: {lengths:?}");
        let config = VRnnConfig {
            epochs: 1,
            ..Default::default()
        };
        let train = || VRnn::train(&config, &vocab, &trajs, &mut det_rng(6)).unwrap();
        let (a, b) = (train(), train());
        for t in &trajs {
            let bits = |m: &VRnn| -> Vec<u32> {
                m.encode(&t.points).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn order_sensitive_unlike_cms() {
        let (vocab, trajs) = setup();
        let mut rng = det_rng(3);
        let config = VRnnConfig {
            epochs: 1,
            ..Default::default()
        };
        let model = VRnn::train(&config, &vocab, &trajs, &mut rng).unwrap();
        let fwd = model.encode(&trajs[0].points);
        let mut rev_points = trajs[0].points.clone();
        rev_points.reverse();
        let rev = model.encode(&rev_points);
        assert_ne!(fwd, rev);
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let (vocab, _) = setup();
        let mut rng = det_rng(4);
        let err = VRnn::train(&VRnnConfig::default(), &vocab, &[], &mut rng).unwrap_err();
        assert!(matches!(err, T2VecError::InsufficientData(_)));
    }

    #[test]
    fn encode_batch_matches_single() {
        let (vocab, trajs) = setup();
        let mut rng = det_rng(5);
        let config = VRnnConfig {
            epochs: 1,
            ..Default::default()
        };
        let model = VRnn::train(&config, &vocab, &trajs, &mut rng).unwrap();
        let pts: Vec<Vec<Point>> = trajs.iter().take(3).map(|t| t.points.clone()).collect();
        let batch = model.encode_batch(&pts);
        for (t, b) in pts.iter().zip(batch.iter()) {
            assert_eq!(&model.encode(t), b);
        }
    }
}
