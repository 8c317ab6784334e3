//! The vanilla-RNN embedding baseline (vRNN, §V-A/§V-B).
//!
//! The paper compares against an RNN *"trained by predicting the next
//! cell based on the cells that it has already seen"*, with the same
//! architecture as the t2vec encoder. A trajectory's representation is
//! the RNN's final hidden state. The baseline exists to show that a
//! sequence model alone — without the seq2seq reconstruction objective
//! and the spatial losses — does not learn route-level similarity.
//!
//! It owns no forward or backward of its own: training is the decoder
//! half of `t2vec_nn::fused` run from zero states under `L1`
//! ([`t2vec_nn::fused::language_model_grads_into`]), and encoding is the
//! inference engine ([`t2vec_nn::infer`]) over a forward-only encoder.

use crate::error::T2VecError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use t2vec_nn::batch::next_token_batch;
use t2vec_nn::embedding::Embedding;
use t2vec_nn::fused::language_model_grads_into;
use t2vec_nn::gru::GruStack;
use t2vec_nn::infer::InputTables;
use t2vec_nn::param::{apply_grad_mats, Param};
use t2vec_nn::{EncodeEngine, GradSet, PackedEncoder, TrainArena};
use t2vec_spatial::point::Point;
use t2vec_spatial::vocab::{Token, Vocab};
use t2vec_tensor::init;
use t2vec_tensor::opt::Adam;
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

impl VRnnConfig {
    /// Checks every field a training run reads.
    ///
    /// # Errors
    /// [`T2VecError::InvalidConfig`] for a zero `embed_dim`, `hidden`,
    /// `layers` or `batch_size`, or a `learning_rate` or `grad_clip`
    /// that is not positive (NaN included).
    pub fn validate(&self) -> Result<(), T2VecError> {
        let bad = |msg: &str| Err(T2VecError::InvalidConfig(format!("vRNN: {msg}")));
        let positive = |x: f32| x > 0.0;
        if self.embed_dim == 0 || self.hidden == 0 || self.layers == 0 {
            return bad("model dimensions must be positive");
        }
        if self.batch_size == 0 {
            return bad("batch_size must be positive");
        }
        if !positive(self.learning_rate) || !positive(self.grad_clip) {
            return bad("learning_rate and grad_clip must be positive");
        }
        Ok(())
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
    /// The encoder's first-layer table, derived from `embedding` and
    /// `gru`'s first layer; emptied by every training step.
    #[serde(skip)]
    input_tables: InputTables,
}

impl VRnn {
    /// Trains the next-cell language model over `trajectories` using
    /// `vocab` for tokenisation.
    ///
    /// Each step is one same-length chunk of sequences through
    /// [`language_model_grads_into`] and one clipped Adam step; the RNG
    /// is read only to initialise the weights.
    ///
    /// # Errors
    /// [`T2VecError::InvalidConfig`] when [`VRnnConfig::validate`]
    /// rejects `config`; [`T2VecError::InsufficientData`] when no
    /// trajectory has at least two tokens.
    pub fn train(
        config: &VRnnConfig,
        vocab: &Vocab,
        trajectories: &[Trajectory],
        rng: &mut impl Rng,
    ) -> Result<Self, T2VecError> {
        config.validate()?;
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
            input_tables: InputTables::default(),
        };
        let adam = Adam::with_lr(config.learning_rate);

        // Bucket sequences by length so batches need no padding; train
        // the buckets in ascending length so a seed fixes the model.
        let mut buckets: std::collections::BTreeMap<usize, Vec<&[Token]>> =
            std::collections::BTreeMap::new();
        for s in &sequences {
            buckets.entry(s.len()).or_default().push(s);
        }

        let mut arena = TrainArena::new();
        let mut grads = GradSet::default();
        for _ in 0..config.epochs {
            for bucket in buckets.values() {
                for chunk in bucket.chunks(config.batch_size) {
                    model.train_step(chunk, &adam, &mut arena, &mut grads);
                }
            }
        }
        Ok(model)
    }

    /// One next-cell step over `chunk`, sequences of one length.
    fn train_step(
        &mut self,
        chunk: &[&[Token]],
        adam: &Adam,
        arena: &mut TrainArena,
        grads: &mut GradSet,
    ) {
        self.input_tables.reset();
        let batch = next_token_batch(chunk);
        language_model_grads_into(
            &self.embedding,
            &self.gru,
            &self.w_out,
            &batch,
            arena,
            grads,
        );
        let mut params: Vec<&mut Param> = vec![&mut self.embedding.table];
        params.extend(self.gru.params_mut());
        params.push(&mut self.w_out);
        apply_grad_mats(&mut params, &mut grads.grads, adam, self.config.grad_clip);
    }

    /// Representation dimension.
    pub fn repr_dim(&self) -> usize {
        self.config.hidden
    }

    /// Embeds a trajectory: the final hidden state after reading its
    /// token sequence (a zero vector for an empty one).
    pub fn encode(&self, points: &[Point]) -> Vec<f32> {
        let tokens = self.vocab.tokenize(points);
        self.engine()
            .encode_batch(&[&tokens])
            .pop()
            .expect("one trajectory in, one vector out")
    }

    /// Embeds many trajectories in one length-bucketed engine pass; each
    /// vector is bitwise [`VRnn::encode`]'s.
    pub fn encode_batch(&self, trajectories: &[Vec<Point>]) -> Vec<Vec<f32>> {
        let tokens: Vec<Vec<Token>> = trajectories
            .iter()
            .map(|t| self.vocab.tokenize(t))
            .collect();
        let seqs: Vec<&[Token]> = tokens.iter().map(Vec::as_slice).collect();
        self.engine().encode_batch(&seqs)
    }

    /// The inference engine over a forward-only encoder: the GRU stack
    /// and its cached first-layer table, borrowed (the table is built by
    /// the first encode after training or loading).
    fn engine(&self) -> EncodeEngine<'_> {
        EncodeEngine::new(PackedEncoder::new(
            &self.embedding,
            &self.gru,
            None,
            &self.input_tables,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_nn::gru::PackedGruStack;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::BBox;
    use t2vec_tensor::rng::det_rng;
    use t2vec_tensor::Workspace;
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
    fn invalid_configs_are_typed_errors() {
        let (vocab, trajs) = setup();
        type Edit = fn(&mut VRnnConfig);
        let cases: [(&str, Edit); 8] = [
            ("embed_dim 0", |c| c.embed_dim = 0),
            ("hidden 0", |c| c.hidden = 0),
            ("layers 0", |c| c.layers = 0),
            ("batch_size 0", |c| c.batch_size = 0),
            ("learning_rate 0", |c| c.learning_rate = 0.0),
            ("learning_rate NaN", |c| c.learning_rate = f32::NAN),
            ("grad_clip -1", |c| c.grad_clip = -1.0),
            ("grad_clip 0", |c| c.grad_clip = 0.0),
        ];
        for (what, edit) in cases {
            let mut config = VRnnConfig {
                epochs: 1,
                ..Default::default()
            };
            edit(&mut config);
            let got = VRnn::train(&config, &vocab, &trajs, &mut det_rng(8));
            assert!(
                matches!(got, Err(T2VecError::InvalidConfig(_))),
                "{what}: {:?}",
                got.err()
            );
        }
    }

    /// One `PackedGruStack::step_into` per token — the one-step-at-a-
    /// time loop the baseline used to encode with — as the reference.
    fn per_token(m: &VRnn, points: &[Point]) -> Vec<f32> {
        let packed = PackedGruStack::pack(&m.gru);
        let mut ws = Workspace::new();
        let mut states = m.gru.zero_state(1);
        for tok in &m.vocab.tokenize(points) {
            let x = m.embedding.lookup_raw(std::slice::from_ref(tok));
            packed.step_into(&x, &mut states, &mut ws);
        }
        states.last().expect("non-empty stack").row(0).to_vec()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// An encode after a training step reads the stepped weights, never
    /// the first-layer table the encode before it built.
    #[test]
    fn a_training_step_never_leaves_a_stale_table() {
        let (vocab, trajs) = setup();
        let config = VRnnConfig {
            epochs: 1,
            layers: 2,
            ..Default::default()
        };
        let mut model = VRnn::train(&config, &vocab, &trajs, &mut det_rng(10)).unwrap();
        let points = &trajs[0].points;
        let before = model.encode(points);
        assert!(model.input_tables.built().is_some());
        let tokens = vocab.tokenize(points);
        let adam = Adam::with_lr(config.learning_rate);
        model.train_step(
            &[&tokens],
            &adam,
            &mut TrainArena::new(),
            &mut GradSet::default(),
        );
        let after = model.encode(points);
        assert_eq!(bits(&after), bits(&per_token(&model, points)));
        assert_ne!(bits(&after), bits(&before), "the step moved no byte");
    }

    #[test]
    fn engine_encode_is_bitwise_the_per_token_loop() {
        let (vocab, trajs) = setup();
        let config = VRnnConfig {
            epochs: 1,
            layers: 2,
            ..Default::default()
        };
        let model = VRnn::train(&config, &vocab, &trajs, &mut det_rng(9)).unwrap();
        let mut all: Vec<Vec<Point>> = trajs.iter().map(|t| t.points.clone()).collect();
        all.push(Vec::new());
        let batch = model.encode_batch(&all);
        for (points, got) in all.iter().zip(&batch) {
            let want = bits(&per_token(&model, points));
            assert_eq!(bits(got), want, "batch, {} points", points.len());
            assert_eq!(bits(&model.encode(points)), want, "single");
        }
        let empty = batch.last().expect("the empty trajectory");
        assert_eq!(empty.len(), model.repr_dim());
        assert!(
            empty.iter().all(|&x| x.to_bits() == 0),
            "empty -> zero vector"
        );
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
