//! The similarity service: encode-on-ingest, sharded kNN, crash-safe
//! persistence — the paper's online story (§IV-D: similarity of two
//! trajectories costs `O(n + |v|)` once embeddings exist) turned into a
//! long-running component.
//!
//! One [`SimilarityService`] owns:
//!
//! * the trained [`T2Vec`] model (tokenisation + encoder weights);
//! * an [`AdmissionBatcher`] whose callers run the length-bucketed
//!   engine themselves, one engine per core, over whatever encode
//!   requests are in flight;
//! * the sharded [`EmbeddingStore`];
//! * optionally a persistence directory: framed snapshots plus an
//!   upsert journal (see [`crate::snapshot`]).
//!
//! ## Durability ordering
//!
//! `insert` applies the upsert to the store **first**, then appends the
//! journal record under the persistence lock. `snapshot` takes the same
//! lock, dumps the store, writes the snapshot atomically, and truncates
//! the journal. Because a journal record is only ever written *after*
//! its store upsert, and the snapshot dump happens *after* acquiring
//! the lock, every record the truncate discards is already in the
//! dump — recovery (snapshot + journal replay, upserts idempotent)
//! never loses an acknowledged insert, at worst it re-applies one.

use crate::ann::{AnnConfig, QueryExplain};
use crate::batcher::{AdmissionBatcher, BatcherConfig};
use crate::snapshot::{Journal, SnapshotStore, StoreSnapshot, JOURNAL_FILE, SNAP_FORMAT_VERSION};
use crate::store::{EmbeddingStore, Entry};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use t2vec_core::{T2Vec, T2VecError};
use t2vec_obs as obs;
use t2vec_spatial::point::Point;

/// Construction parameters of a [`SimilarityService`].
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Lock stripes of the embedding store.
    pub shards: usize,
    /// Admission-batcher policy: the most requests one engine pass
    /// takes. The engine count is not a setting: one per worker thread.
    pub batcher: BatcherConfig,
    /// Snapshots retained on disk (when persistence is enabled).
    pub snapshot_keep: usize,
    /// ANN tier to build over the store (activated by
    /// [`SimilarityService::build_ann`], or restored automatically from
    /// a snapshot that carries its state); `None` serves every query by
    /// exact scan.
    pub ann: Option<AnnConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            batcher: BatcherConfig::default(),
            snapshot_keep: 3,
            ann: None,
        }
    }
}

/// Persistence state, serialised by one mutex so the journal ordering
/// argument in the module docs holds.
struct Persist {
    snaps: SnapshotStore,
    journal: Journal,
    next_seq: u64,
}

/// A concurrent trajectory-similarity service (see module docs).
pub struct SimilarityService {
    model: Arc<T2Vec>,
    store: EmbeddingStore,
    batcher: AdmissionBatcher,
    persist: Option<Mutex<Persist>>,
    ann_config: Option<AnnConfig>,
}

impl SimilarityService {
    /// An in-memory service (no persistence) around a trained model.
    pub fn new(model: Arc<T2Vec>, config: ServeConfig) -> Self {
        let packed = model.seq2seq().packed_encoder().into_owned();
        let batcher = AdmissionBatcher::new(packed, config.batcher);
        let store = EmbeddingStore::new(model.repr_dim(), config.shards.max(1));
        Self {
            model,
            store,
            batcher,
            persist: None,
            ann_config: config.ann,
        }
    }

    /// Opens a persistent service rooted at `dir`: recovers the newest
    /// valid snapshot, replays the journal over it, and resumes
    /// journalling. Returns the recovery warnings (corrupt snapshots
    /// skipped, torn journal tails dropped, …).
    ///
    /// # Errors
    /// [`T2VecError::Io`] on filesystem failure and
    /// [`T2VecError::Checkpoint`] when the newest snapshot's dimension
    /// disagrees with the model's.
    pub fn open(
        model: Arc<T2Vec>,
        config: ServeConfig,
        dir: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<String>), T2VecError> {
        let dir = dir.into();
        let snaps = SnapshotStore::open(&dir, config.snapshot_keep)?;
        let outcome = snaps.load_latest();
        let mut warnings = outcome.warnings;
        let mut service = Self::new(model, config);
        let mut next_seq = 1;
        let mut ann_state = None;
        if let Some((path, snap)) = outcome.snapshot {
            if snap.dim != service.store.dim() {
                return Err(T2VecError::Checkpoint(format!(
                    "snapshot {} holds {}-dim vectors but the model encodes {} dims",
                    path.display(),
                    snap.dim,
                    service.store.dim()
                )));
            }
            next_seq = snap.seq + 1;
            ann_state = snap.ann;
            for e in snap.entries {
                service.store.insert(e.id, &e.vec);
            }
        }
        // Resumes appending right after the accepted prefix, so inserts
        // acknowledged from here on survive the next recovery too.
        let (journal, replayed, journal_warnings) = Journal::recover(dir.join(JOURNAL_FILE))?;
        warnings.extend(journal_warnings);
        for e in replayed {
            if e.vec.len() == service.store.dim() {
                service.store.insert(e.id, &e.vec);
            } else {
                warnings.push(format!(
                    "journal entry for id {} has {} dims (store is {}); dropped",
                    e.id,
                    e.vec.len(),
                    service.store.dim()
                ));
            }
        }
        // The tier is restored after replay so posting lists and codes
        // are derived from the final recovered contents; a v1 snapshot
        // (no ANN state) simply restores no tier.
        if let Some(state) = &ann_state {
            if !service.store.restore_ann(state) {
                warnings.push(format!(
                    "snapshot ANN state is incompatible with {}-dim store; tier not restored",
                    service.store.dim()
                ));
            }
        }
        obs::info!(target: "serve.service", "recovered service";
            entries = service.store.len(),
            warnings = warnings.len(),
        );
        service.persist = Some(Mutex::new(Persist {
            snaps,
            journal,
            next_seq,
        }));
        Ok((service, warnings))
    }

    /// The model the service encodes with.
    pub fn model(&self) -> &T2Vec {
        &self.model
    }

    /// The underlying sharded store (read access for tests/benches).
    pub fn store(&self) -> &EmbeddingStore {
        &self.store
    }

    /// Trains and activates the ANN tier from the current store
    /// contents using the config's [`ServeConfig::ann`] block. Returns
    /// `true` when a tier is active afterwards (newly built, or already
    /// restored from a snapshot); `false` when the config has no ANN
    /// block or the store is empty. Call after initial ingest, under
    /// write quiescence.
    pub fn build_ann(&self) -> bool {
        if self.store.ann().is_some() {
            return true;
        }
        match &self.ann_config {
            Some(cfg) => self.store.build_ann(cfg),
            None => false,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Encodes a trajectory through the admission batcher (blocking
    /// until its batch has been through an engine, usually on this
    /// thread). Bitwise identical to [`T2Vec::encode`].
    pub fn encode(&self, points: &[Point]) -> Vec<f32> {
        // Child of the ambient request span (if any): times the whole
        // stay in the admission queue + engine pass. The batcher
        // captures the current context under this span, so the
        // `batch_member` span that the pass's runner opens parents here.
        let _span = obs::span!(target: "serve.service", "encode");
        self.batcher.encode(self.model.vocab().tokenize(points))
    }

    /// Encode-on-ingest: embeds `points` (batched with concurrent
    /// requests) and upserts the vector under `id`. Returns `true` for
    /// a fresh id, `false` for a replacement. Once this returns, the
    /// entry is visible to every subsequent query and, with
    /// persistence, journalled.
    ///
    /// # Errors
    /// [`T2VecError::Io`] when the journal append fails (the in-memory
    /// upsert has still happened; durability is only as old as the last
    /// successful append/snapshot).
    pub fn insert(&self, id: u64, points: &[Point]) -> Result<bool, T2VecError> {
        let t0 = std::time::Instant::now();
        let span = obs::span_root!(target: "serve.service", "insert"; id = id);
        let vec = self.encode(points);
        let fresh = self.insert_vec(id, vec)?;
        drop(span);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::histogram!("serve.insert_ns").record(ns);
        obs::slo_recorder!("serve.insert").record(ns);
        Ok(fresh)
    }

    /// Upserts a pre-encoded vector (the non-encoding ingest path).
    ///
    /// # Errors
    /// [`T2VecError::InvalidInput`] when the vector's length is not the
    /// store's dimension, or a component is NaN or infinite — nothing
    /// is stored or journalled: a non-finite vector can never be a
    /// meaningful neighbour, and it would abort the next
    /// [`SimilarityService::build_ann`] in quantizer training.
    /// Otherwise as [`SimilarityService::insert`].
    pub fn insert_vec(&self, id: u64, vec: Vec<f32>) -> Result<bool, T2VecError> {
        if vec.len() != self.store.dim() {
            return Err(T2VecError::InvalidInput(format!(
                "vector for id {id} has {} dims (store is {})",
                vec.len(),
                self.store.dim()
            )));
        }
        if let Some(j) = vec.iter().position(|x| !x.is_finite()) {
            return Err(T2VecError::InvalidInput(format!(
                "vector for id {id} is not finite (component {j} is {})",
                vec[j]
            )));
        }
        let fresh = self.store.insert(id, &vec);
        if let Some(persist) = &self.persist {
            let mut p = persist.lock().unwrap_or_else(|e| e.into_inner());
            p.journal.append(&Entry { id, vec })?;
        }
        obs::counter!("serve.inserts").incr();
        Ok(fresh)
    }

    /// The `k` nearest stored trajectories to `points`, closest first,
    /// as `(id, distance)` — encode (batched) then kNN through the ANN
    /// tier when one is active, exact sharded scan otherwise.
    pub fn query(&self, points: &[Point], k: usize) -> Vec<(u64, f32)> {
        self.knn_explained(points, k).0
    }

    /// [`SimilarityService::query`] plus the per-query [`QueryExplain`]
    /// record (ANN cells probed, candidates scanned, re-rank depth,
    /// exact-fallback flag). `query` *is* this method with the explain
    /// dropped, so observing a query cannot change its result bytes.
    ///
    /// The whole call runs under a fresh request root span; the explain
    /// is also emitted as a `serve.explain` debug event attached to
    /// that span, which is how a JSONL trace carries per-query recall
    /// behaviour.
    pub fn knn_explained(&self, points: &[Point], k: usize) -> (Vec<(u64, f32)>, QueryExplain) {
        let t0 = std::time::Instant::now();
        let span = obs::span_root!(target: "serve.service", "query"; k = k);
        let q = self.encode(points);
        let (out, explain) = self.store.knn_ann_explained(&q, k);
        emit_explain(&explain);
        drop(span);
        obs::counter!("serve.queries").incr();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::histogram!("serve.query_ns").record(ns);
        obs::slo_recorder!("serve.query").record(ns);
        (out, explain)
    }

    /// kNN for a pre-encoded query vector (ANN tier when active).
    pub fn query_vec(&self, query: &[f32], k: usize) -> Vec<(u64, f32)> {
        self.knn_vec_explained(query, k).0
    }

    /// [`SimilarityService::query_vec`] plus the [`QueryExplain`]
    /// record, under its own request root span.
    pub fn knn_vec_explained(&self, query: &[f32], k: usize) -> (Vec<(u64, f32)>, QueryExplain) {
        let t0 = std::time::Instant::now();
        let span = obs::span_root!(target: "serve.service", "query_vec"; k = k);
        let (out, explain) = self.store.knn_ann_explained(query, k);
        emit_explain(&explain);
        drop(span);
        obs::counter!("serve.queries").incr();
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs::histogram!("serve.query_ns").record(ns);
        obs::slo_recorder!("serve.query").record(ns);
        (out, explain)
    }

    /// Takes a snapshot (compaction): dumps the store, writes the
    /// framed snapshot atomically, truncates the journal. Returns the
    /// snapshot path, or `None` when the service has no persistence.
    ///
    /// # Errors
    /// [`T2VecError::Io`] on filesystem failure — in which case the
    /// journal is left untouched, so no durability is lost.
    pub fn snapshot(&self) -> Result<Option<PathBuf>, T2VecError> {
        let Some(persist) = &self.persist else {
            return Ok(None);
        };
        let mut p = persist.lock().unwrap_or_else(|e| e.into_inner());
        let snap = StoreSnapshot {
            version: SNAP_FORMAT_VERSION,
            seq: p.next_seq,
            dim: self.store.dim(),
            entries: self.store.dump_sorted(),
            ann: self.store.ann_state(),
        };
        let path = p.snaps.save(&snap)?;
        p.journal.truncate()?;
        p.next_seq += 1;
        obs::info!(target: "serve.service", "snapshot taken";
            seq = snap.seq,
            entries = snap.entries.len(),
        );
        Ok(Some(path))
    }

    /// The persistence directory, if the service is persistent.
    pub fn persist_dir(&self) -> Option<PathBuf> {
        self.persist.as_ref().map(|p| {
            p.lock()
                .unwrap_or_else(|e| e.into_inner())
                .snaps
                .dir()
                .to_path_buf()
        })
    }
}

/// Emits a query's [`QueryExplain`] as a `serve.explain` debug event.
/// Called while the request's root span is still current, so the event
/// carries that span's trace/span ids — a trace analyzer finds exactly
/// one explain per sampled query tree.
fn emit_explain(explain: &QueryExplain) {
    obs::debug!(target: "serve.explain", "query explain";
        ann = explain.ann,
        exact_fallback = explain.exact_fallback,
        nlist = explain.nlist,
        nprobe = explain.nprobe,
        cells_probed = explain.cells_probed,
        candidates = explain.candidates,
        rerank = explain.rerank,
        quantized = explain.quantized,
        k = explain.k,
        results = explain.results,
    );
}

/// Convenience: recover just the entries under `dir` without standing
/// up a service (used by tests asserting on-disk state directly).
pub fn recover_entries(dir: &Path, keep: usize) -> Result<(Vec<Entry>, Vec<String>), T2VecError> {
    let snaps = SnapshotStore::open(dir, keep)?;
    let outcome = snaps.load_latest();
    let mut warnings = outcome.warnings;
    let mut by_id: std::collections::BTreeMap<u64, Vec<f32>> = std::collections::BTreeMap::new();
    if let Some((_, snap)) = outcome.snapshot {
        for e in snap.entries {
            by_id.insert(e.id, e.vec);
        }
    }
    let (replayed, journal_warnings) = Journal::replay(&dir.join(JOURNAL_FILE));
    warnings.extend(journal_warnings);
    for e in replayed {
        by_id.insert(e.id, e.vec);
    }
    Ok((
        by_id
            .into_iter()
            .map(|(id, vec)| Entry { id, vec })
            .collect(),
        warnings,
    ))
}
