//! The t2vec model: training pipeline, encoder, persistence.

use crate::config::T2VecConfig;
use crate::error::T2VecError;
use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use std::io::Write;
use t2vec_nn::batch::make_batches;
use t2vec_nn::{Seq2Seq, TrainArena};
use t2vec_spatial::point::Point;
use t2vec_spatial::transform::{distort, downsample};
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_trajgen::Trajectory;

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean per-token training loss over the epoch.
    pub train_loss: f32,
    /// Mean per-token validation loss after the epoch.
    pub val_loss: f32,
}

/// Wall-clock throughput of one training epoch.
///
/// Observability data only: excluded from every serialized form (the
/// owning [`TrainReport`] field is `#[serde(skip)]`), so timing can
/// never leak into canonical reports or golden files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochThroughput {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Target tokens processed this epoch.
    pub tokens: usize,
    /// Optimisation steps taken this epoch.
    pub steps: usize,
    /// Wall-clock seconds the epoch took (training + validation).
    pub seconds: f64,
}

impl EpochThroughput {
    /// Target tokens per second, or 0 for a zero-duration epoch.
    pub fn tokens_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.tokens as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Optimisation steps performed.
    pub iterations: usize,
    /// Epochs completed.
    pub epochs: usize,
    /// Wall-clock training time, seconds (includes cell pre-training).
    pub train_seconds: f64,
    /// Wall-clock seconds spent in cell pre-training (Algorithm 1).
    pub pretrain_seconds: f64,
    /// Best validation loss observed.
    pub best_val_loss: f32,
    /// Number of training pairs generated.
    pub num_pairs: usize,
    /// Vocabulary size (hot cells + specials).
    pub vocab_size: usize,
    /// Per-epoch loss curve.
    pub history: Vec<EpochStats>,
    /// Per-epoch wall-clock throughput (tokens/s, step counts).
    ///
    /// `#[serde(skip)]`: canonical JSON and checkpoints must stay
    /// byte-identical across machines and runs, so wall-clock data is
    /// quarantined to the in-memory report and the obs event stream.
    #[serde(skip)]
    pub throughput: Vec<EpochThroughput>,
}

/// A trained t2vec model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct T2Vec {
    config: T2VecConfig,
    vocab: Vocab,
    table: NeighborTable,
    model: Seq2Seq,
}

impl T2Vec {
    /// Trains a model on `train`, holding out the last 10 % of
    /// trajectories for validation. See [`T2Vec::train_with_report`].
    ///
    /// # Errors
    /// See [`T2Vec::train_with_report`].
    pub fn train(
        config: &T2VecConfig,
        train: &[Trajectory],
        rng: &mut impl Rng,
    ) -> Result<Self, T2VecError> {
        let split = train.len().saturating_sub((train.len() / 10).max(1));
        let (tr, val) = train.split_at(split.max(1).min(train.len()));
        Self::train_with_report(config, tr, val, rng).map(|(m, _)| m)
    }

    /// Trains a model, returning the run's [`TrainReport`].
    ///
    /// The full pipeline of the paper: vocabulary construction (§IV-B),
    /// optional cell pre-training (Algorithm 1), 16-variant pair
    /// generation (§V-A), teacher-forced seq2seq training with the
    /// configured loss, Adam, gradient clipping, and validation-based
    /// early stopping (§V-B). The parameters achieving the best
    /// validation loss are the ones kept.
    ///
    /// This is a convenience wrapper over [`crate::trainer::Trainer`]:
    /// one `u64` setup seed is drawn from `rng` and the whole run is
    /// derived from it. Use the trainer directly for epoch-level control
    /// or checkpoint/resume.
    ///
    /// # Errors
    /// [`T2VecError::InvalidConfig`] for bad configs and
    /// [`T2VecError::InsufficientData`] when the corpus yields no hot
    /// cells or no training pairs.
    pub fn train_with_report(
        config: &T2VecConfig,
        train: &[Trajectory],
        val: &[Trajectory],
        rng: &mut impl Rng,
    ) -> Result<(Self, TrainReport), T2VecError> {
        let seed: u64 = rng.random();
        let mut trainer = crate::trainer::Trainer::new(config, train, val, seed)?;
        while trainer.step_epoch().is_some() {}
        Ok(trainer.finish())
    }

    /// Assembles a model from trained parts (used by the trainer).
    pub(crate) fn from_parts(
        config: T2VecConfig,
        vocab: Vocab,
        table: NeighborTable,
        model: Seq2Seq,
    ) -> Self {
        Self {
            config,
            vocab,
            table,
            model,
        }
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &T2VecConfig {
        &self.config
    }

    /// The hot-cell vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// The underlying seq2seq model (read-only, e.g. for benchmark
    /// harnesses that drive alternative encode loops).
    pub fn seq2seq(&self) -> &Seq2Seq {
        &self.model
    }

    /// The representation dimension `|v|`.
    pub fn repr_dim(&self) -> usize {
        self.model.repr_dim()
    }

    /// Encodes a trajectory into its representation `v` — `O(n)` per the
    /// paper's §IV-D. Empty trajectories map to the zero vector.
    pub fn encode(&self, points: &[Point]) -> Vec<f32> {
        self.model.encode_tokens(&self.vocab.tokenize(points))
    }

    /// Encodes many trajectories through the length-bucketed fused
    /// inference engine (`t2vec_nn::infer`): sequences are sorted by
    /// token length, stepped as whole `batch×hidden` matrices with
    /// active-prefix shrinking, and buckets fan out across threads.
    /// Output order matches input order; each vector is bitwise
    /// identical to [`T2Vec::encode`] of the same trajectory (the same
    /// engine on a one-row bucket).
    pub fn encode_batch(&self, trajectories: &[Vec<Point>]) -> Vec<Vec<f32>> {
        let tokenised: Vec<Vec<Token>> = trajectories
            .iter()
            .map(|t| self.vocab.tokenize(t))
            .collect();
        let seqs: Vec<&[Token]> = tokenised.iter().map(Vec::as_slice).collect();
        self.model.encode_tokens_batch(&seqs)
    }

    /// Decodes the most likely route for a (possibly sparse) trajectory
    /// and returns it as cell-centroid points — the `P(R|T)` inference
    /// the model is trained to approximate (§IV-A).
    pub fn infer_route(&self, points: &[Point], max_len: usize) -> Vec<Point> {
        let tokens = self.vocab.tokenize(points);
        self.model
            .greedy_decode(&tokens, max_len)
            .into_iter()
            .filter_map(|t| self.vocab.centroid_of(t))
            .collect()
    }

    /// Serialises the model as JSON. The writer is buffered internally,
    /// so passing a raw `File` is fine.
    ///
    /// # Errors
    /// [`T2VecError::Serde`] if serialization fails, [`T2VecError::Io`]
    /// (with the underlying [`std::io::Error`]) if the write does.
    pub fn save<W: std::io::Write>(&self, w: W) -> Result<(), T2VecError> {
        let json = serde_json::to_string(self)?;
        let mut w = std::io::BufWriter::new(w);
        w.write_all(json.as_bytes()).map_err(T2VecError::Io)?;
        w.flush().map_err(T2VecError::Io)?;
        Ok(())
    }

    /// Loads a model serialised by [`T2Vec::save`].
    ///
    /// # Errors
    /// Propagates deserialization and I/O failures.
    pub fn load<R: std::io::Read>(r: R) -> Result<Self, T2VecError> {
        Ok(serde_json::from_reader(r)?)
    }
}

/// Euclidean distance between two representation vectors — the `O(|v|)`
/// online similarity of §IV-D.
///
/// # Panics
/// Panics if the vectors differ in dimension.
pub fn vec_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "representation dimension mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f32>()
        .sqrt()
}

/// Generates the training pairs of §V-A: every trajectory `Tb` spawns
/// one variant `Ta` per `(r1, r2)` combination — down-sampled then
/// distorted — paired with the original.
pub fn generate_pairs(
    config: &T2VecConfig,
    trajectories: &[Trajectory],
    vocab: &Vocab,
    rng: &mut impl Rng,
) -> Vec<(Vec<Token>, Vec<Token>)> {
    let mut pairs = Vec::with_capacity(trajectories.len() * config.variants_per_trajectory());
    for traj in trajectories {
        if traj.points.len() < 2 {
            continue;
        }
        let target = vocab.tokenize(&traj.points);
        for &r1 in &config.dropping_rates {
            for &r2 in &config.distorting_rates {
                let variant = distort(&downsample(&traj.points, r1, rng), r2, rng);
                pairs.push((vocab.tokenize(&variant), target.clone()));
            }
        }
    }
    pairs
}

/// Validation pairs: one mid-rate variant per validation trajectory
/// (enough signal for early stopping at a fraction of the cost).
pub(crate) fn generate_val_pairs(
    config: &T2VecConfig,
    val: &[Trajectory],
    vocab: &Vocab,
    rng: &mut impl Rng,
) -> Vec<(Vec<Token>, Vec<Token>)> {
    let r1 = config.dropping_rates.iter().copied().fold(0.0f64, f64::max);
    let r2 = config
        .distorting_rates
        .iter()
        .copied()
        .fold(0.0f64, f64::max);
    val.iter()
        .filter(|t| t.points.len() >= 2)
        .map(|t| {
            let variant = distort(&downsample(&t.points, r1, rng), r2, rng);
            (vocab.tokenize(&variant), vocab.tokenize(&t.points))
        })
        .collect()
}

/// Token-weighted mean loss over the validation pairs, forward only
/// (`Seq2Seq::batch_loss`: bitwise the value a tape would record).
pub(crate) fn validation_loss(
    model: &Seq2Seq,
    config: &T2VecConfig,
    table: &NeighborTable,
    val_pairs: &[(Vec<Token>, Vec<Token>)],
    rng: &mut impl Rng,
) -> f32 {
    let batches = make_batches(val_pairs, config.batch_size, rng);
    let mut arena = TrainArena::new();
    let mut total = 0.0f64;
    let mut tokens = 0usize;
    for batch in &batches {
        let loss = model.batch_loss(batch, config.loss, table, rng, &mut arena);
        total += f64::from(loss) * batch.num_target_tokens as f64;
        tokens += batch.num_target_tokens;
    }
    (total / tokens.max(1) as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_spatial::grid::Grid;
    use t2vec_spatial::point::BBox;
    use t2vec_tensor::rng::det_rng;
    use t2vec_trajgen::city::City;
    use t2vec_trajgen::dataset::DatasetBuilder;

    fn tiny_dataset(seed: u64) -> (City, t2vec_trajgen::dataset::Dataset) {
        let mut rng = det_rng(seed);
        let city = City::tiny(&mut rng);
        let ds = DatasetBuilder::new(&city)
            .trips(60)
            .min_len(6)
            .build(&mut rng);
        (city, ds)
    }

    /// One shared trained model for the read-only tests (training is the
    /// expensive part; tests that need their own model train one).
    fn trained() -> &'static (T2Vec, TrainReport, t2vec_trajgen::dataset::Dataset) {
        static SHARED: std::sync::OnceLock<(T2Vec, TrainReport, t2vec_trajgen::dataset::Dataset)> =
            std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let (_, ds) = tiny_dataset(10);
            let mut rng = det_rng(11);
            let config = T2VecConfig::tiny();
            let (model, report) =
                T2Vec::train_with_report(&config, &ds.train, &ds.val, &mut rng).unwrap();
            (model, report, ds)
        })
    }

    #[test]
    fn training_produces_model_and_report() {
        let (model, report, ds) = trained();
        assert!(report.vocab_size > 4);
        assert!(report.num_pairs >= ds.train.len()); // ≥ 1 variant each
        assert!(report.iterations > 0);
        assert_eq!(report.history.len(), report.epochs);
        assert!(report.train_seconds > 0.0);
        let v = model.encode(&ds.test[0].points);
        assert_eq!(v.len(), model.repr_dim());
        assert!(v.iter().any(|&x| x != 0.0));
    }

    #[test]
    fn encode_batch_bitwise_matches_single() {
        // `encode` is the engine on a one-row bucket, so this pins two
        // things exactly, not to a tolerance: a row's bytes do not
        // depend on the bucket it rides in, and they are the bytes of
        // the one-step-at-a-time packed loop (`encode_states_raw`).
        let (model, _, ds) = trained();
        let trajs: Vec<Vec<Point>> = ds.test.iter().take(5).map(|t| t.points.clone()).collect();
        let batch = model.encode_batch(&trajs);
        for (t, bv) in trajs.iter().zip(batch.iter()) {
            assert_eq!(&model.encode(t), bv, "batch/single encode mismatch");
            let states = model.model.encode_states_raw(&model.vocab.tokenize(t));
            assert_eq!(
                states.last().expect("non-empty stack").row(0),
                bv.as_slice(),
                "engine/reference mismatch"
            );
        }
    }

    proptest::proptest! {
        /// Ragged length mixes — prefixes of varying length, including
        /// length-1 and duplicate lengths — must encode bitwise equal to
        /// the one-row bucket regardless of bucket composition.
        #[test]
        fn encode_batch_bitwise_on_ragged_lengths(
            lens in proptest::collection::vec(1usize..12, 1..8),
            pick in 0usize..1000
        ) {
            let (model, _, ds) = trained();
            let trajs: Vec<Vec<Point>> = lens
                .iter()
                .enumerate()
                .map(|(j, &l)| {
                    let src = &ds.test[(pick + j) % ds.test.len()].points;
                    src[..l.min(src.len())].to_vec()
                })
                .collect();
            let batch = model.encode_batch(&trajs);
            for (t, bv) in trajs.iter().zip(batch.iter()) {
                proptest::prop_assert_eq!(&model.encode(t), bv);
            }
        }
    }

    #[test]
    fn variants_of_same_trip_are_nearby() {
        // Post-training, a downsampled variant should be closer to its
        // original than a random other trip (on average).
        let (model, _, ds) = trained();
        let mut rng = det_rng(99);
        let mut wins = 0;
        let n = 15.min(ds.test.len() - 1);
        for i in 0..n {
            let orig = &ds.test[i].points;
            let variant = downsample(orig, 0.5, &mut rng);
            let other = &ds.test[(i + 1) % ds.test.len()].points;
            let vo = model.encode(orig);
            let vv = model.encode(&variant);
            let vx = model.encode(other);
            if vec_dist(&vo, &vv) < vec_dist(&vo, &vx) {
                wins += 1;
            }
        }
        assert!(
            wins * 10 >= n * 7,
            "self-variant closer in only {wins}/{n} cases"
        );
    }

    #[test]
    fn save_load_roundtrip_preserves_encoding() {
        let (model, _, ds) = trained();
        let mut buf = Vec::new();
        model.save(&mut buf).unwrap();
        let back = T2Vec::load(buf.as_slice()).unwrap();
        let a = model.encode(&ds.test[0].points);
        let b = back.encode(&ds.test[0].points);
        assert_eq!(a, b);
    }

    #[test]
    fn insufficient_data_is_reported() {
        let mut rng = det_rng(14);
        let config = T2VecConfig::tiny();
        let err = T2Vec::train(&config, &[], &mut rng).unwrap_err();
        assert!(matches!(err, T2VecError::InsufficientData(_)));

        // A corpus whose points never repeat cells enough to go hot.
        let sparse: Vec<Trajectory> = (0..3)
            .map(|i| {
                Trajectory::from_points(vec![
                    Point::new(i as f64 * 10_000.0, 0.0),
                    Point::new(i as f64 * 10_000.0 + 100.0, 17_000.0),
                ])
            })
            .collect();
        let mut config = T2VecConfig::tiny();
        config.hot_cell_threshold = 50;
        let err = T2Vec::train(&config, &sparse, &mut rng).unwrap_err();
        assert!(matches!(err, T2VecError::InsufficientData(_)));
    }

    #[test]
    fn invalid_config_is_rejected_before_work() {
        let (_, ds) = tiny_dataset(15);
        let mut rng = det_rng(15);
        let mut config = T2VecConfig::tiny();
        config.hidden = 0;
        let err = T2Vec::train(&config, &ds.train, &mut rng).unwrap_err();
        assert!(matches!(err, T2VecError::InvalidConfig(_)));
    }

    #[test]
    fn pair_generation_counts_and_endpoints() {
        let (_, ds) = tiny_dataset(16);
        let mut rng = det_rng(16);
        let config = T2VecConfig::tiny();
        let pts: Vec<Point> = ds.train.iter().flat_map(|t| t.points.clone()).collect();
        let grid = Grid::new(
            BBox::of_points(&pts).unwrap().expanded(400.0),
            config.cell_side,
        );
        let vocab = Vocab::build(grid, pts.iter(), config.hot_cell_threshold);
        let pairs = generate_pairs(&config, &ds.train, &vocab, &mut rng);
        assert_eq!(
            pairs.len(),
            ds.train.len() * config.variants_per_trajectory()
        );
        for (src, tgt) in &pairs {
            assert!(!src.is_empty() && !tgt.is_empty());
            // Variants keep endpoints, so after tokenisation the first and
            // last tokens match the target's (noise can move them one
            // cell, so only check for the undistorted variants: src len ==
            // tgt len means r1 = 0).
            if src.len() == tgt.len() && src == tgt {
                continue;
            }
        }
    }

    #[test]
    fn vec_dist_basics() {
        assert_eq!(vec_dist(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(vec_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn vec_dist_mismatch_panics() {
        let _ = vec_dist(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn infer_route_returns_points_in_city() {
        let (model, _, ds) = trained();
        let route = model.infer_route(&ds.test[0].points, 40);
        // The decoder may produce any hot cells; just check type-level
        // sanity and boundedness.
        assert!(route.len() <= 40);
    }
}
