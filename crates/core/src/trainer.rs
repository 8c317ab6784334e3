//! The stepwise training driver behind [`crate::T2Vec`].
//!
//! [`Trainer`] splits the monolithic training run into an explicit state
//! machine: construct (or resume), call [`Trainer::step_epoch`] until it
//! returns `None`, then [`Trainer::finish`] into a trained model and its
//! report. Exposing the epoch boundary is what makes fault-tolerant
//! checkpointing possible — between any two epochs the *entire* run
//! state is the model parameters, the Adam moments inside them, the RNG
//! stream position, and a handful of counters, all of which
//! [`Trainer::checkpoint`] captures.
//!
//! # Determinism and resume
//!
//! A trainer is always constructed from a `u64` setup seed, never from a
//! caller-owned RNG: the seed pins the vocabulary, cell pre-training and
//! pair corpus, so a resumed run can re-derive them bit-for-bit instead
//! of persisting the (large) pair corpus in every checkpoint. Resume
//! therefore needs the *same training data* the original run saw; the
//! checkpoint records the setup seed and a config hash and refuses
//! obvious mismatches, but identical data is the caller's contract.
//!
//! Given that contract, `resume` + `step_epoch`* produces loss curves
//! and final parameters bitwise identical (`f32::to_bits`) to the
//! uninterrupted run, at any worker-thread count — the property proved
//! by `tests/checkpoint_resume.rs`.

use crate::checkpoint::{config_hash, Checkpoint, CheckpointStore, FORMAT_VERSION};
use crate::config::T2VecConfig;
use crate::error::T2VecError;
use crate::model::{generate_pairs, generate_val_pairs, validation_loss, EpochStats};
use crate::model::{EpochThroughput, T2Vec, TrainReport};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use t2vec_nn::skipgram::{pretrain_cells, SkipGramConfig};
use t2vec_nn::train::{run_epoch, EpochHp};
use t2vec_nn::{Seq2Seq, Seq2SeqConfig};
use t2vec_obs as obs;
use t2vec_spatial::grid::Grid;
use t2vec_spatial::point::BBox;
use t2vec_spatial::vocab::{NeighborTable, Token, Vocab};
use t2vec_tensor::opt::Adam;
use t2vec_tensor::rng::RngState;
use t2vec_trajgen::Trajectory;

/// Epoch-stepped trainer with checkpoint/resume support.
///
/// See the module docs for the determinism contract.
#[derive(Debug)]
pub struct Trainer {
    config: T2VecConfig,
    setup_seed: u64,
    vocab: Vocab,
    table: NeighborTable,
    pairs: Vec<(Vec<Token>, Vec<Token>)>,
    val_pairs: Vec<(Vec<Token>, Vec<Token>)>,
    hp: EpochHp,
    model: Seq2Seq,
    rng: StdRng,
    epochs_done: usize,
    iterations: usize,
    stagnant: usize,
    best_val: f32,
    best_model: Option<Seq2Seq>,
    history: Vec<EpochStats>,
    /// Wall-clock per-epoch throughput; observability only (flows into
    /// the `#[serde(skip)]` report field and obs sinks, never into
    /// checkpoints or canonical JSON).
    throughput: Vec<EpochThroughput>,
    pretrain_seconds: f64,
    t0: Instant,
}

impl Trainer {
    /// Builds a fresh trainer: vocabulary (§IV-B), optional cell
    /// pre-training (Algorithm 1) and pair generation (§V-A), all driven
    /// by `seed`. The vocabulary is built over `train` itself:
    /// [`Trainer::with_vocab_corpus`] with `train` as the corpus.
    ///
    /// # Errors
    /// [`T2VecError::InvalidConfig`] for bad configs,
    /// [`T2VecError::InsufficientData`] when the corpus yields no hot
    /// cells or no training pairs.
    pub fn new(
        config: &T2VecConfig,
        train: &[Trajectory],
        val: &[Trajectory],
        seed: u64,
    ) -> Result<Self, T2VecError> {
        Self::with_vocab_corpus(config, train, train, val, seed)
    }

    /// [`Trainer::new`] with the vocabulary — the grid's extent and its
    /// hot cells — built over `vocab_corpus` instead of the training
    /// trips, as the paper builds it over the whole city's trajectories
    /// while training on a sample of them. Points of `train` and `val`
    /// outside that vocabulary's hot cells tokenise as their nearest hot
    /// cell, as any query's do. [`Trainer::resume`] re-derives the
    /// vocabulary from `train`, so it continues only runs made by
    /// [`Trainer::new`].
    ///
    /// # Errors
    /// As [`Trainer::new`], with `vocab_corpus` the corpus that must
    /// yield hot cells.
    pub fn with_vocab_corpus(
        config: &T2VecConfig,
        vocab_corpus: &[Trajectory],
        train: &[Trajectory],
        val: &[Trajectory],
        seed: u64,
    ) -> Result<Self, T2VecError> {
        config.validate()?;
        let t0 = Instant::now();
        let _setup_span = obs::span!(target: "core.trainer", "setup"; seed = seed);
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Vocabulary over the vocabulary corpus.
        let all_points = || vocab_corpus.iter().flat_map(|t| t.points.iter());
        let bbox = BBox::of_points(&all_points().copied().collect::<Vec<_>>())
            .ok_or_else(|| T2VecError::InsufficientData("empty training corpus".into()))?;
        // Margin so distorted points stay inside.
        let grid = Grid::new(bbox.expanded(4.0 * config.cell_side), config.cell_side);
        let vocab = Vocab::build(grid, all_points(), config.hot_cell_threshold);
        if vocab.num_hot_cells() < 2 {
            return Err(T2VecError::InsufficientData(format!(
                "only {} hot cells at threshold {} — lower hot_cell_threshold or add data",
                vocab.num_hot_cells(),
                config.hot_cell_threshold
            )));
        }
        let k = config.k_nearest.min(vocab.num_hot_cells());
        let table = NeighborTable::build(&vocab, k, config.theta);

        // 2. Cell pre-training (Algorithm 1).
        let pre0 = Instant::now();
        let seq_config = Seq2SeqConfig {
            vocab: vocab.size(),
            embed_dim: config.embed_dim,
            hidden: config.hidden,
            layers: config.layers,
            bidirectional: config.bidirectional,
        };
        let model = if config.pretrain_cells {
            let sg = SkipGramConfig {
                dim: config.embed_dim,
                k,
                theta: config.theta,
                ..config.skipgram
            };
            let pretrained = pretrain_cells(&vocab, &sg, &mut rng);
            Seq2Seq::with_pretrained_embedding(seq_config, pretrained, &mut rng)
        } else {
            Seq2Seq::new(seq_config, &mut rng)
        };
        let pretrain_seconds = pre0.elapsed().as_secs_f64();

        // 3. Pair generation.
        let pairs = generate_pairs(config, train, &vocab, &mut rng);
        if pairs.is_empty() {
            return Err(T2VecError::InsufficientData(
                "no training pairs generated".into(),
            ));
        }
        let val_pairs = generate_val_pairs(config, val, &vocab, &mut rng);

        let hp = EpochHp {
            loss: config.loss,
            adam: Adam::with_lr(config.learning_rate),
            grad_clip: config.grad_clip,
            batch_size: config.batch_size,
            grad_accum: config.grad_accum,
        };
        obs::info!(target: "core.trainer", "setup complete";
            vocab_size = vocab.size(),
            train_pairs = pairs.len(),
            val_pairs = val_pairs.len(),
            max_epochs = config.max_epochs,
        );
        Ok(Self {
            config: config.clone(),
            setup_seed: seed,
            vocab,
            table,
            pairs,
            val_pairs,
            hp,
            model,
            rng,
            epochs_done: 0,
            iterations: 0,
            stagnant: 0,
            best_val: f32::INFINITY,
            best_model: None,
            history: Vec::new(),
            throughput: Vec::new(),
            pretrain_seconds,
            t0,
        })
    }

    /// Rebuilds a trainer from a checkpoint: the deterministic setup is
    /// re-derived from the checkpoint's recorded seed (the caller must
    /// supply the same training data the original run saw), then the
    /// mutable run state — model, optimiser moments, RNG position,
    /// counters, loss history — is restored from the checkpoint.
    ///
    /// # Errors
    /// [`T2VecError::Checkpoint`] when the checkpoint's config hash or
    /// derived vocabulary disagrees with this run; setup errors as in
    /// [`Trainer::new`].
    pub fn resume(
        config: &T2VecConfig,
        train: &[Trajectory],
        val: &[Trajectory],
        ckpt: Checkpoint,
    ) -> Result<Self, T2VecError> {
        if !ckpt.matches_config(config) {
            return Err(T2VecError::Checkpoint(format!(
                "config hash mismatch: checkpoint was written under {:#018x}, current config hashes to {:#018x}",
                ckpt.config_hash,
                config_hash(config)
            )));
        }
        let mut trainer = Self::new(config, train, val, ckpt.setup_seed)?;
        if ckpt.model.config().vocab != trainer.vocab.size() {
            return Err(T2VecError::Checkpoint(format!(
                "vocabulary mismatch: checkpoint model has {} tokens, data re-derives {} — resumed with different training data?",
                ckpt.model.config().vocab,
                trainer.vocab.size()
            )));
        }
        trainer.best_val = ckpt.best_val();
        trainer.model = ckpt.model;
        trainer.rng = ckpt.rng.restore();
        trainer.epochs_done = ckpt.epochs_done;
        trainer.iterations = ckpt.iterations;
        trainer.stagnant = ckpt.stagnant;
        trainer.best_model = ckpt.best_model;
        trainer.history = ckpt.history;
        Ok(trainer)
    }

    /// Resumes from the newest valid checkpoint in `store`, or starts
    /// fresh (with `fresh_seed`) when the store holds none. Returns the
    /// trainer plus any recovery warnings (corrupt files skipped, stale
    /// or missing `LATEST` pointer, empty store).
    ///
    /// # Errors
    /// As [`Trainer::resume`] / [`Trainer::new`]. A corrupt checkpoint
    /// file is a warning, not an error; a *valid* checkpoint that
    /// contradicts the current config or data is an error.
    pub fn resume_from(
        config: &T2VecConfig,
        train: &[Trajectory],
        val: &[Trajectory],
        fresh_seed: u64,
        store: &CheckpointStore,
    ) -> Result<(Self, Vec<String>), T2VecError> {
        let mut outcome = store.load_latest();
        match outcome.checkpoint {
            Some((path, ckpt)) => {
                let trainer = Self::resume(config, train, val, ckpt)?;
                outcome.warnings.push(format!(
                    "resumed from {} at epoch {}",
                    path.display(),
                    trainer.epochs_done
                ));
                Ok((trainer, outcome.warnings))
            }
            None => {
                outcome
                    .warnings
                    .push("no valid checkpoint found; starting fresh".into());
                let trainer = Self::new(config, train, val, fresh_seed)?;
                Ok((trainer, outcome.warnings))
            }
        }
    }

    /// Whether training has reached a stopping condition (epoch cap,
    /// iteration cap, or early-stopping patience).
    pub fn is_done(&self) -> bool {
        self.epochs_done >= self.config.max_epochs
            || self.iterations >= self.config.max_iterations
            || self.stagnant >= self.config.patience
    }

    /// Runs one training epoch followed by validation; updates the
    /// best-model snapshot and early-stopping counters. Returns `None`
    /// (doing nothing) once a stopping condition holds.
    pub fn step_epoch(&mut self) -> Option<EpochStats> {
        if self.is_done() {
            return None;
        }
        let epoch_t0 = Instant::now();
        let _span = obs::span!(target: "core.trainer", "epoch"; epoch = self.epochs_done);
        let budget = self.config.max_iterations - self.iterations;
        let out = run_epoch(
            &mut self.model,
            &self.pairs,
            &self.table,
            &self.hp,
            budget,
            &mut self.rng,
        );
        self.iterations += out.steps;
        let val_loss = if self.val_pairs.is_empty() {
            out.train_loss
        } else {
            validation_loss(
                &self.model,
                &self.config,
                &self.table,
                &self.val_pairs,
                &mut self.rng,
            )
        };
        let stats = EpochStats {
            epoch: self.epochs_done,
            train_loss: out.train_loss,
            val_loss,
        };
        self.epochs_done += 1;
        self.history.push(stats);
        if val_loss < self.best_val {
            self.best_val = val_loss;
            self.best_model = Some(self.model.clone());
            self.stagnant = 0;
        } else {
            self.stagnant += 1;
        }
        // Wall-clock throughput is observability-only: it feeds the
        // `#[serde(skip)]` report field and the event stream, and must
        // never influence training state (see the determinism invariant
        // in t2vec-obs).
        self.throughput.push(EpochThroughput {
            epoch: stats.epoch,
            tokens: out.tokens,
            steps: out.steps,
            seconds: epoch_t0.elapsed().as_secs_f64(),
        });
        obs::debug!(target: "core.trainer", "epoch finished";
            epoch = stats.epoch,
            train_loss = stats.train_loss,
            val_loss = stats.val_loss,
            stagnant = self.stagnant,
        );
        Some(stats)
    }

    /// Captures the complete mutable run state as a [`Checkpoint`].
    /// Meant to be called between epochs; resuming from it continues the
    /// run bitwise-identically.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            version: FORMAT_VERSION,
            config_hash: config_hash(&self.config),
            setup_seed: self.setup_seed,
            epochs_done: self.epochs_done,
            iterations: self.iterations,
            stagnant: self.stagnant,
            best_val_bits: self.best_val.to_bits(),
            history: self.history.clone(),
            rng: RngState::capture(&self.rng),
            model: self.model.clone(),
            best_model: self.best_model.clone(),
        }
    }

    /// Epochs completed so far.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Optimiser steps taken so far.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The per-epoch loss curve so far.
    pub fn history(&self) -> &[EpochStats] {
        &self.history
    }

    /// Per-epoch wall-clock throughput recorded *this process* (resume
    /// does not reconstruct earlier runs' timings — they are not part of
    /// the checkpointed state by design).
    pub fn throughput(&self) -> &[EpochThroughput] {
        &self.throughput
    }

    /// The configured epoch cap (for progress/ETA displays).
    pub fn max_epochs(&self) -> usize {
        self.config.max_epochs
    }

    /// The model currently being trained (not the best-validation
    /// snapshot).
    pub fn model(&self) -> &Seq2Seq {
        &self.model
    }

    /// Packages the trained-so-far encoder as a queryable [`T2Vec`]
    /// without consuming the trainer: the best-validation parameters so
    /// far (or the current ones when validation never improved),
    /// together with the vocabulary and neighbour table the run was set
    /// up with. The evaluation harness uses this to score the encoder
    /// mid-run; [`Trainer::finish`] remains the end-of-run path (it also
    /// assembles the [`TrainReport`]).
    pub fn snapshot(&self) -> T2Vec {
        let model = self
            .best_model
            .clone()
            .unwrap_or_else(|| self.model.clone());
        T2Vec::from_parts(
            self.config.clone(),
            self.vocab.clone(),
            self.table.clone(),
            model,
        )
    }

    /// Finishes the run: keeps the best-validation parameters (or the
    /// final ones when validation never improved) and assembles the
    /// [`TrainReport`].
    pub fn finish(self) -> (T2Vec, TrainReport) {
        let report = TrainReport {
            iterations: self.iterations,
            epochs: self.epochs_done,
            train_seconds: self.t0.elapsed().as_secs_f64(),
            pretrain_seconds: self.pretrain_seconds,
            best_val_loss: self.best_val,
            num_pairs: self.pairs.len(),
            vocab_size: self.vocab.size(),
            history: self.history,
            throughput: self.throughput,
        };
        let model = self.best_model.unwrap_or(self.model);
        (
            T2Vec::from_parts(self.config, self.vocab, self.table, model),
            report,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_tensor::rng::det_rng;
    use t2vec_trajgen::city::City;
    use t2vec_trajgen::dataset::{Dataset, DatasetBuilder};

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut rng = det_rng(seed);
        let city = City::tiny(&mut rng);
        DatasetBuilder::new(&city)
            .trips(40)
            .min_len(6)
            .build(&mut rng)
    }

    fn short_config() -> T2VecConfig {
        let mut config = T2VecConfig::tiny();
        config.max_epochs = 3;
        config
    }

    fn param_bits(model: &Seq2Seq) -> Vec<u32> {
        model
            .params()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn stepping_to_done_matches_train_with_report() {
        let ds = tiny_dataset(70);
        let config = short_config();
        let mut trainer = Trainer::new(&config, &ds.train, &ds.val, 71).unwrap();
        let mut epochs = 0;
        while trainer.step_epoch().is_some() {
            epochs += 1;
        }
        assert!(epochs > 0 && epochs <= config.max_epochs);
        assert_eq!(trainer.epochs_done(), epochs);
        let (model, report) = trainer.finish();
        assert_eq!(report.epochs, epochs);
        assert_eq!(report.history.len(), epochs);
        assert!(report.best_val_loss.is_finite());
        let v = model.encode(&ds.test[0].points);
        assert_eq!(v.len(), model.repr_dim());
    }

    #[test]
    fn checkpoint_resume_is_bitwise_identical() {
        let ds = tiny_dataset(72);
        let config = short_config();

        // Uninterrupted run.
        let mut straight = Trainer::new(&config, &ds.train, &ds.val, 73).unwrap();
        while straight.step_epoch().is_some() {}

        // Interrupted after the first epoch, resumed from the bundle.
        let mut first = Trainer::new(&config, &ds.train, &ds.val, 73).unwrap();
        assert!(first.step_epoch().is_some());
        let ckpt = first.checkpoint();
        drop(first); // the "crash"
        let mut resumed = Trainer::resume(&config, &ds.train, &ds.val, ckpt).unwrap();
        while resumed.step_epoch().is_some() {}

        assert_eq!(straight.epochs_done(), resumed.epochs_done());
        let bits = |h: &[EpochStats]| -> Vec<(u32, u32)> {
            h.iter()
                .map(|s| (s.train_loss.to_bits(), s.val_loss.to_bits()))
                .collect()
        };
        assert_eq!(bits(straight.history()), bits(resumed.history()));
        assert_eq!(param_bits(straight.model()), param_bits(resumed.model()));
        let (a, _) = straight.finish();
        let (b, _) = resumed.finish();
        let pa = a.encode(&ds.test[0].points);
        let pb = b.encode(&ds.test[0].points);
        assert_eq!(pa, pb);
    }

    #[test]
    fn snapshot_encodes_identically_to_finished_model() {
        let ds = tiny_dataset(78);
        let config = short_config();
        let mut trainer = Trainer::new(&config, &ds.train, &ds.val, 79).unwrap();
        // Mid-run snapshot must already be queryable.
        assert!(trainer.step_epoch().is_some());
        let mid = trainer.snapshot();
        assert_eq!(
            mid.encode(&ds.test[0].points).len(),
            mid.repr_dim(),
            "mid-run snapshot must encode"
        );
        while trainer.step_epoch().is_some() {}
        let snap = trainer.snapshot();
        let (finished, _) = trainer.finish();
        assert_eq!(
            snap.encode(&ds.test[0].points),
            finished.encode(&ds.test[0].points),
            "snapshot and finish must package the same parameters"
        );
    }

    /// A vocabulary corpus larger than the training trips (the same city)
    /// gives more hot cells; the training trips themselves as the corpus
    /// give `Trainer::new`'s run, byte for byte.
    #[test]
    fn vocabulary_comes_from_the_given_corpus() {
        let mut rng = det_rng(80);
        let city = City::tiny(&mut rng);
        let mut trips = |n| {
            DatasetBuilder::new(&city)
                .trips(n)
                .min_len(6)
                .build(&mut rng)
        };
        let ds = trips(40);
        let corpus = trips(400).train;
        let config = short_config();
        let run = |trainer: Result<Trainer, T2VecError>| {
            let mut trainer = trainer.unwrap();
            let hot = trainer.vocab.num_hot_cells();
            while trainer.step_epoch().is_some() {}
            let mut file = Vec::new();
            trainer.finish().0.save(&mut file).unwrap();
            (hot, file)
        };
        let (hot, file) = run(Trainer::new(&config, &ds.train, &ds.val, 81));
        let own = Trainer::with_vocab_corpus(&config, &ds.train, &ds.train, &ds.val, 81);
        assert_eq!(run(own), (hot, file.clone()));
        let wide = Trainer::with_vocab_corpus(&config, &corpus, &ds.train, &ds.val, 81);
        let (wide_hot, wide_file) = run(wide);
        assert!(
            wide_hot > hot,
            "{wide_hot} hot cells over the corpus, {hot} over train"
        );
        assert_ne!(wide_file, file);
    }

    #[test]
    fn resume_rejects_config_mismatch() {
        let ds = tiny_dataset(74);
        let config = short_config();
        let trainer = Trainer::new(&config, &ds.train, &ds.val, 75).unwrap();
        let ckpt = trainer.checkpoint();
        let mut other = config.clone();
        other.learning_rate *= 2.0;
        let err = Trainer::resume(&other, &ds.train, &ds.val, ckpt).unwrap_err();
        assert!(matches!(err, T2VecError::Checkpoint(_)), "{err}");
    }

    #[test]
    fn resume_from_empty_store_starts_fresh_with_warning() {
        let dir = std::env::temp_dir().join(format!("t2vec-trainer-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir, 2).unwrap();
        let ds = tiny_dataset(76);
        let config = short_config();
        let (trainer, warnings) =
            Trainer::resume_from(&config, &ds.train, &ds.val, 77, &store).unwrap();
        assert_eq!(trainer.epochs_done(), 0);
        assert!(warnings.iter().any(|w| w.contains("starting fresh")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
