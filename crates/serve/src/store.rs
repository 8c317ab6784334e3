//! The sharded, lock-striped embedding store.
//!
//! The serving workload is concurrent upserts (encode-on-ingest) mixed
//! with kNN queries. A single `RwLock` around one big vector array
//! would serialise every insert against every query; instead the id
//! space is hashed across [`EmbeddingStore::shard_count`] shards, each
//! behind its own `RwLock`, so writers contend only within a shard and
//! readers scan shards independently.
//!
//! ## Determinism
//!
//! Query results are **independent of the shard count and of insert
//! interleaving**: every stored vector's squared distance to the query
//! is computed by the same SIMD kernel regardless of which shard holds
//! it, per-shard top-k candidates are merged under the same
//! `total_cmp`-then-ascending-id total order that `t2vec_core::index`
//! uses, and ids are unique — so the global k smallest are the same set
//! in the same order no matter how the data is striped. The
//! `determinism` integration suite asserts this bitwise across 1/2/8
//! shards and SIMD backends.
//!
//! ## Consistency
//!
//! Locks are per shard: an upsert is atomic and, once `insert` returns,
//! visible to every subsequent query (the query read-locks the shard
//! after the writer released it). A query that races *concurrent*
//! inserts sees each shard at some point during the scan — per-shard
//! atomicity, not a global snapshot — which is the usual contract for a
//! serving store (Similari's sharded `TrackStore` makes the same
//! trade).

use crate::ann::{AnnConfig, AnnState, AnnTier, QueryExplain};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{OnceLock, RwLock};
use t2vec_core::index::select_top_k;
use t2vec_obs as obs;
use t2vec_tensor::simd;

/// One `(id, vector)` entry of a store dump or snapshot payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Entry {
    /// Caller-assigned trajectory id.
    pub id: u64,
    /// The embedding vector.
    pub vec: Vec<f32>,
}

/// One stripe of the store: ids, flat row-major vector data, and the
/// id → slot map that makes inserts upserts.
#[derive(Debug, Default)]
struct Shard {
    ids: Vec<u64>,
    /// `ids.len() * dim` floats, row `s` at `s*dim..(s+1)*dim`.
    data: Vec<f32>,
    slots: HashMap<u64, usize>,
}

impl Shard {
    fn upsert(&mut self, id: u64, vec: &[f32], dim: usize) -> bool {
        match self.slots.get(&id) {
            Some(&slot) => {
                self.data[slot * dim..(slot + 1) * dim].copy_from_slice(vec);
                false
            }
            None => {
                let slot = self.ids.len();
                self.ids.push(id);
                self.data.extend_from_slice(vec);
                self.slots.insert(id, slot);
                true
            }
        }
    }
}

/// SplitMix64 — the shard-selection hash. Any fixed mixing function
/// works (results never depend on the striping); this one is cheap and
/// spreads sequential ids evenly.
fn mix_id(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-shard occupancy gauge names (metric names must be `'static`;
/// stores beyond this many shards report only the aggregate gauge).
const SHARD_GAUGES: [&str; 16] = [
    "serve.shard.0.len",
    "serve.shard.1.len",
    "serve.shard.2.len",
    "serve.shard.3.len",
    "serve.shard.4.len",
    "serve.shard.5.len",
    "serve.shard.6.len",
    "serve.shard.7.len",
    "serve.shard.8.len",
    "serve.shard.9.len",
    "serve.shard.10.len",
    "serve.shard.11.len",
    "serve.shard.12.len",
    "serve.shard.13.len",
    "serve.shard.14.len",
    "serve.shard.15.len",
];

/// Indexes a whole dump into a freshly fitted or restored tier.
fn index_all(tier: &AnnTier, entries: &[Entry]) {
    let rows: Vec<(u64, &[f32])> = entries.iter().map(|e| (e.id, e.vec.as_slice())).collect();
    tier.upsert_all(&rows);
}

/// A concurrent embedding store sharded by id hash, with an optional
/// ANN tier ([`crate::ann`]) kept in sync by every insert once built.
#[derive(Debug)]
pub struct EmbeddingStore {
    dim: usize,
    shards: Vec<RwLock<Shard>>,
    /// Built at most once (via [`EmbeddingStore::build_ann`] or
    /// [`EmbeddingStore::restore_ann`]); interior mutability inside the
    /// tier keeps `insert` at `&self`.
    ann: OnceLock<AnnTier>,
}

impl EmbeddingStore {
    /// An empty store for `dim`-dimensional vectors striped over
    /// `shards` locks.
    ///
    /// # Panics
    /// Panics if `dim` or `shards` is zero.
    pub fn new(dim: usize, shards: usize) -> Self {
        assert!(dim > 0, "vector dimension must be positive");
        assert!(shards > 0, "need at least one shard");
        Self {
            dim,
            shards: (0..shards).map(|_| RwLock::new(Shard::default())).collect(),
            ann: OnceLock::new(),
        }
    }

    /// Rebuilds a store from dumped entries (later duplicates win, as
    /// with live upserts — journal replay relies on this).
    pub fn from_entries(
        dim: usize,
        shards: usize,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Self {
        let store = Self::new(dim, shards);
        for e in entries {
            store.insert(e.id, &e.vec);
        }
        store
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, id: u64) -> usize {
        (mix_id(id) % self.shards.len() as u64) as usize
    }

    fn read(&self, i: usize) -> std::sync::RwLockReadGuard<'_, Shard> {
        self.shards[i].read().unwrap_or_else(|e| e.into_inner())
    }

    /// Inserts or replaces `id`'s vector. Returns `true` when the id is
    /// new. Once this returns, the entry is visible to every subsequent
    /// [`EmbeddingStore::knn`]/[`EmbeddingStore::get`], and indexed by
    /// the ANN tier when one is built.
    ///
    /// The store upsert happens strictly before the tier upsert, so
    /// every id the tier can surface as a candidate is resolvable
    /// through [`EmbeddingStore::get`] for exact re-ranking (tier
    /// membership ⊆ store membership). Concurrent upserts of the *same*
    /// id have no defined winner — that is already the store-only
    /// contract; determinism suites quiesce writers first.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn insert(&self, id: u64, vec: &[f32]) -> bool {
        assert_eq!(vec.len(), self.dim, "vector dimension mismatch");
        let i = self.shard_of(id);
        let fresh = {
            let mut shard = self.shards[i].write().unwrap_or_else(|e| e.into_inner());
            let fresh = shard.upsert(id, vec, self.dim);
            if i < SHARD_GAUGES.len() {
                obs::metrics::gauge(SHARD_GAUGES[i]).set(shard.ids.len() as f64);
            }
            fresh
        };
        if let Some(tier) = self.ann.get() {
            tier.upsert(id, vec);
        }
        obs::counter!("serve.store.inserts").incr();
        fresh
    }

    /// The stored vector for `id`, if present.
    pub fn get(&self, id: u64) -> Option<Vec<f32>> {
        self.map_row(id, <[f32]>::to_vec)
    }

    /// Applies `f` to `id`'s stored row in place, under its shard's
    /// read lock — what the ANN re-rank scores through, so a query
    /// copies none of the rows it re-ranks.
    pub fn map_row<T>(&self, id: u64, f: impl FnOnce(&[f32]) -> T) -> Option<T> {
        let shard = self.read(self.shard_of(id));
        shard
            .slots
            .get(&id)
            .map(|&s| f(&shard.data[s * self.dim..(s + 1) * self.dim]))
    }

    /// Whether `id` is stored.
    pub fn contains(&self, id: u64) -> bool {
        self.read(self.shard_of(id)).slots.contains_key(&id)
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        (0..self.shards.len()).map(|i| self.read(i).ids.len()).sum()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries per shard (occupancy diagnostic).
    pub fn shard_lens(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|i| self.read(i).ids.len())
            .collect()
    }

    /// The `k` nearest stored vectors to `query` by Euclidean distance,
    /// closest first, as `(id, distance)`. Scans each shard under its
    /// read lock, keeps a per-shard top-k, and merges under the
    /// [`t2vec_core::index::by_dist_then_id`] total order — bitwise
    /// identical across shard counts and insert interleavings for the
    /// same contents.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<(u64, f32)> {
        self.knn_explained(query, k).0
    }

    /// [`EmbeddingStore::knn`] plus the [`QueryExplain`] record for the
    /// exact scan (every stored vector is a candidate). `knn` *is* this
    /// method with the explain dropped, so the result bytes cannot
    /// diverge.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn knn_explained(&self, query: &[f32], k: usize) -> (Vec<(u64, f32)>, QueryExplain) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let t0 = std::time::Instant::now();
        let _span = obs::span!(target: "serve.store", "store_knn";
            k = k,
            shards = self.shards.len(),
        );
        simd::record_dispatch();
        let mut merged: Vec<(u64, f32)> = Vec::new();
        let mut scanned = 0u64;
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            let mut local: Vec<(u64, f32)> = shard
                .ids
                .iter()
                .enumerate()
                .map(|(s, &id)| {
                    let row = &shard.data[s * self.dim..(s + 1) * self.dim];
                    (id, simd::sq_dist_f32(row, query))
                })
                .collect();
            scanned += local.len() as u64;
            select_top_k(&mut local, k);
            merged.append(&mut local);
        }
        obs::counter!("index.scan.vectors").add(scanned);
        select_top_k(&mut merged, k);
        for e in &mut merged {
            e.1 = e.1.sqrt();
        }
        obs::histogram!("serve.store.query_ns").record_duration(t0.elapsed());
        let explain = QueryExplain::exact_scan(scanned as usize, k, merged.len());
        (merged, explain)
    }

    /// Trains and activates the ANN tier from the current contents
    /// (training sample strided evenly over the ascending-id dump, so
    /// the tier is a pure function of contents + config). Returns
    /// `false` — leaving the store unchanged — when the store is empty
    /// (nothing to train on) or a tier is already active.
    ///
    /// Call under write quiescence (like a snapshot dump): an insert
    /// racing the build may miss the tier and only re-appear in it on
    /// its next upsert.
    pub fn build_ann(&self, config: &AnnConfig) -> bool {
        if self.ann.get().is_some() {
            return false;
        }
        let mut entries = self.dump_sorted();
        if entries.is_empty() {
            return false;
        }
        let stride = if config.train_sample == 0 {
            1
        } else {
            entries.len().div_ceil(config.train_sample).max(1)
        };
        // The sample is lent out of the dump for the fit and put back,
        // not copied a second time.
        let sampled = (0..entries.len()).step_by(stride);
        let training: Vec<Vec<f32>> = sampled
            .clone()
            .map(|i| std::mem::take(&mut entries[i].vec))
            .collect();
        let tier = AnnTier::fit(&training, *config, self.dim);
        for (i, vec) in sampled.zip(training) {
            entries[i].vec = vec;
        }
        index_all(&tier, &entries);
        self.ann.set(tier).is_ok()
    }

    /// Rebuilds the ANN tier from persisted state (snapshot restore):
    /// the learned parts come from `state`, posting lists and codes are
    /// re-derived from the current contents. Returns `false` when a
    /// tier is already active or [`AnnTier::from_state`] rejects the
    /// state (no centroids, or not this store's dimension).
    pub fn restore_ann(&self, state: &AnnState) -> bool {
        if self.ann.get().is_some() {
            return false;
        }
        let Some(tier) = AnnTier::from_state(state, self.dim) else {
            return false;
        };
        index_all(&tier, &self.dump_sorted());
        self.ann.set(tier).is_ok()
    }

    /// The active ANN tier, if one was built or restored.
    pub fn ann(&self) -> Option<&AnnTier> {
        self.ann.get()
    }

    /// The persistable state of the active ANN tier.
    pub fn ann_state(&self) -> Option<AnnState> {
        self.ann.get().map(AnnTier::state)
    }

    /// kNN through the ANN tier when one is active, falling back to the
    /// exact sharded scan ([`EmbeddingStore::knn`]) otherwise. With the
    /// tier at `nprobe = ∞` and `rerank = ∞` the two paths return the
    /// same bytes (see [`crate::ann`] module docs).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn knn_ann(&self, query: &[f32], k: usize) -> Vec<(u64, f32)> {
        self.knn_ann_explained(query, k).0
    }

    /// [`EmbeddingStore::knn_ann`] plus the [`QueryExplain`] describing
    /// which path answered (tier probe stats, or the exact-fallback
    /// scan when no tier is active).
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn knn_ann_explained(&self, query: &[f32], k: usize) -> (Vec<(u64, f32)>, QueryExplain) {
        match self.ann.get() {
            Some(tier) => {
                let _span = obs::span!(target: "serve.store", "store_knn";
                    k = k,
                    ann = true,
                );
                tier.knn_explained(|id, score| self.map_row(id, score), query, k)
            }
            None => self.knn_explained(query, k),
        }
    }

    /// All entries sorted by ascending id — the canonical dump used for
    /// snapshots and for byte-level store comparison in tests. Shards
    /// are read one at a time (per-shard consistency; callers needing a
    /// quiescent dump stop their writers first, as the snapshot
    /// protocol's journal ordering guarantees).
    pub fn dump_sorted(&self) -> Vec<Entry> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.shards.len() {
            let shard = self.read(i);
            for (s, &id) in shard.ids.iter().enumerate() {
                out.push(Entry {
                    id,
                    vec: shard.data[s * self.dim..(s + 1) * self.dim].to_vec(),
                });
            }
        }
        out.sort_unstable_by_key(|e| e.id);
        out
    }

    /// Canonical byte form of the store contents: ids and raw f32 bits
    /// in ascending-id order, independent of shard count and insert
    /// interleaving. The concurrency suite compares these byte-for-byte
    /// across thread-count runs.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let entries = self.dump_sorted();
        let mut out = Vec::with_capacity(entries.len() * (8 + self.dim * 4));
        for e in entries {
            out.extend_from_slice(&e.id.to_le_bytes());
            for x in e.vec {
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;
    use t2vec_tensor::rng::det_rng;

    fn random_vec(dim: usize, rng: &mut impl rand::Rng) -> Vec<f32> {
        (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    #[test]
    fn insert_get_upsert() {
        let store = EmbeddingStore::new(3, 4);
        assert!(store.insert(7, &[1.0, 2.0, 3.0]));
        assert!(!store.insert(7, &[4.0, 5.0, 6.0]), "same id is an upsert");
        assert_eq!(store.get(7).unwrap(), vec![4.0, 5.0, 6.0]);
        assert_eq!(store.len(), 1);
        assert!(store.contains(7));
        assert!(!store.contains(8));
        assert!(store.get(8).is_none());
    }

    #[test]
    fn knn_matches_a_full_sort_reference() {
        // The merged sharded scan must equal one unsharded full sort
        // under the shared order bit for bit.
        let mut rng = det_rng(50);
        let vectors: Vec<Vec<f32>> = (0..300).map(|_| random_vec(16, &mut rng)).collect();
        let store = EmbeddingStore::new(16, 5);
        for (i, v) in vectors.iter().enumerate() {
            store.insert(i as u64, v);
        }
        for q in (0..20).map(|_| random_vec(16, &mut rng)) {
            let mut all: Vec<(u64, f32)> = (0..)
                .zip(&vectors)
                .map(|(id, v)| (id, simd::sq_dist_f32(v, &q)))
                .collect();
            all.sort_by(t2vec_core::index::by_dist_then_id);
            let want: Vec<(u64, u32)> = all[..10]
                .iter()
                .map(|&(id, d)| (id, d.sqrt().to_bits()))
                .collect();
            let got: Vec<(u64, u32)> = store
                .knn(&q, 10)
                .into_iter()
                .map(|(id, d)| (id, d.to_bits()))
                .collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn knn_edge_cases() {
        let store = EmbeddingStore::new(2, 3);
        assert!(store.knn(&[0.0, 0.0], 5).is_empty());
        store.insert(1, &[1.0, 0.0]);
        store.insert(2, &[0.0, 1.0]);
        assert_eq!(store.knn(&[0.0, 0.0], 10).len(), 2, "k > len is clamped");
        assert!(store.knn(&[0.0, 0.0], 0).is_empty());
    }

    #[test]
    fn ties_break_by_ascending_id_across_shards() {
        let store = EmbeddingStore::new(2, 4);
        // Identical vectors land in different shards; ties must come
        // back in id order regardless.
        for id in [9u64, 3, 12, 5] {
            store.insert(id, &[1.0, 1.0]);
        }
        store.insert(1, &[0.0, 0.0]);
        let ids: Vec<u64> = store
            .knn(&[0.0, 0.0], 5)
            .into_iter()
            .map(|(id, _)| id)
            .collect();
        assert_eq!(ids, vec![1, 3, 5, 9, 12]);
    }

    #[test]
    fn nan_vectors_sort_last() {
        let store = EmbeddingStore::new(2, 2);
        store.insert(0, &[f32::NAN, 0.0]);
        store.insert(1, &[1.0, 0.0]);
        let r = store.knn(&[0.0, 0.0], 2);
        assert_eq!(r[0].0, 1);
        assert!(r[1].1.is_nan());
        // NaN must never displace a finite hit from a short list.
        assert_eq!(store.knn(&[0.0, 0.0], 1)[0].0, 1);
    }

    #[test]
    fn dump_and_canonical_bytes_are_shard_invariant() {
        let mut rng = det_rng(51);
        let entries: Vec<Entry> = (0..200)
            .map(|id| Entry {
                id: id * 3 + 1,
                vec: random_vec(8, &mut rng),
            })
            .collect();
        let a = EmbeddingStore::from_entries(8, 1, entries.clone());
        let mut shuffled = entries.clone();
        shuffled.reverse();
        let b = EmbeddingStore::from_entries(8, 7, shuffled);
        assert_eq!(a.dump_sorted(), b.dump_sorted());
        assert_eq!(a.canonical_bytes(), b.canonical_bytes());
        assert_eq!(a.len(), 200);
        assert_eq!(
            b.shard_lens().iter().sum::<usize>(),
            200,
            "shard occupancy must add up"
        );
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn insert_wrong_dim_panics() {
        EmbeddingStore::new(3, 1).insert(0, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = EmbeddingStore::new(3, 0);
    }
}
