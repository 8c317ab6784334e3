//! Seeded inputs. Everything the program under test receives is made
//! here from `--seed`; the same seed gives the same trips, vectors and
//! operation lists.

use rand::rngs::StdRng;
use rand::RngExt;
use t2vec_core::{T2Vec, T2VecConfig, T2VecError, Trainer};
use t2vec_spatial::point::Point;
use t2vec_tensor::rng::det_rng;
use t2vec_trajgen::city::City;
use t2vec_trajgen::dataset::{Dataset, DatasetBuilder};

/// Neighbours asked for by every query.
pub const K: usize = 10;

/// Trips the serving workloads' model is set up on (105 train / 15
/// validation / 30 test).
pub const MODEL_TRIPS: usize = 150;

/// The paper shape every workload runs: embed 256, hidden 256, 3
/// layers, bidirectional, `L3` with 500 noise cells. Early stopping is
/// off so a run's epoch count depends only on `--seconds`.
pub fn paper_config() -> T2VecConfig {
    T2VecConfig {
        hot_cell_threshold: 10,
        pretrain_cells: false,
        batch_size: 32,
        grad_accum: 2,
        dropping_rates: vec![0.0, 0.4],
        distorting_rates: vec![0.0, 0.4],
        max_epochs: 10_000,
        patience: 10_000,
        ..T2VecConfig::paper_default()
    }
}

/// The city is the same on every seed: its road network draws a
/// log-normal attractiveness for every street, so another city means
/// other trip lengths, another vocabulary and other batch shapes, and
/// ten seeds read `train_paper` 1 400-1 880 tokens/s where one seed
/// repeated read 1 460-1 530. The seed draws the trips.
const CITY_SEED: u64 = 2018;

/// The city and one seed's trip source.
pub struct World {
    pub seed: u64,
    city: City,
    rng: StdRng,
}

impl World {
    pub fn new(seed: u64) -> Self {
        let city = City::porto_like(&mut det_rng(CITY_SEED));
        Self {
            seed,
            city,
            rng: det_rng(seed),
        }
    }

    /// `n` trips of at least 20 points, split 70/10/20 by start time.
    pub fn dataset(&mut self, n: usize) -> Dataset {
        DatasetBuilder::new(&self.city)
            .trips(n)
            .min_len(20)
            .build(&mut self.rng)
    }

    /// `n` trips as bare point lists.
    pub fn trips(&mut self, n: usize) -> Vec<Vec<Point>> {
        self.dataset(n).all().map(|t| t.points.clone()).collect()
    }

    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }
}

pub fn trainer(world: &World, ds: &Dataset) -> Result<Trainer, T2VecError> {
    Trainer::new(&paper_config(), &ds.train, &ds.val, world.seed)
}

/// The serving workloads' model: initial weights, since encode cost
/// does not depend on weight values and learned quality is gated by
/// `GOLDEN_EXP.json`.
pub fn serving_model(world: &mut World) -> Result<T2Vec, T2VecError> {
    let ds = world.dataset(MODEL_TRIPS);
    Ok(trainer(world, &ds)?.snapshot())
}

/// `n` vectors clustered around `bases` (the `bench_pr8` recipe:
/// per-dimension jitter of 8 % of the bases' spread, from a hash of the
/// index so any slice can be made independently).
pub fn jittered(bases: &[Vec<f32>], n: usize, salt: u64) -> Vec<Vec<f32>> {
    let dim = bases[0].len();
    let spread: Vec<f32> = (0..dim)
        .map(|j| {
            let lo = bases.iter().map(|b| b[j]).fold(f32::INFINITY, f32::min);
            let hi = bases.iter().map(|b| b[j]).fold(f32::NEG_INFINITY, f32::max);
            (hi - lo).max(1e-3)
        })
        .collect();
    (0..n)
        .map(|i| {
            let base = &bases[i % bases.len()];
            (0..dim)
                .map(|j| {
                    let mut x = (i as u64)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((j as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
                        .wrapping_add(salt);
                    x ^= x >> 31;
                    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
                    x ^= x >> 27;
                    let noise = (x as f32 / u64::MAX as f32) * 2.0 - 1.0;
                    base[j] + 0.08 * spread[j] * noise
                })
                .collect()
        })
        .collect()
}

/// `n` points on segments between random pairs of `encoded` vectors:
/// cluster centres for [`jittered`] that lie where embeddings do
/// without an encode each. With 40 copies around each of 500 encoded
/// trips the tier's cells held 3 or 4 clusters and the candidates a
/// query scanned varied 4 000-6 000 with the seed; 2 000 centres of 10
/// copies even the cells out.
pub fn blended(encoded: &[Vec<f32>], n: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
    (0..n)
        .map(|_| {
            let a = &encoded[rng.random_range(0..encoded.len())];
            let b = &encoded[rng.random_range(0..encoded.len())];
            let w: f32 = rng.random_range(0.0..1.0);
            a.iter()
                .zip(b)
                .map(|(x, y)| w * x + (1.0 - w) * y)
                .collect()
        })
        .collect()
}

/// One request of a serving workload; the `usize` indexes the
/// workload's payload pool (trips or vectors).
#[derive(Clone, Copy)]
pub enum Op {
    Query(usize),
    Insert(u64, usize),
}

/// Where a serving workload's operations draw from.
#[derive(Clone)]
pub struct OpMix {
    pub read_fraction: f64,
    /// Payload index ranges queries draw from: a range is picked
    /// uniformly, then an index within it.
    pub query_pools: Vec<std::ops::Range<usize>>,
    /// Payload indices inserts draw from.
    pub insert_pool: std::ops::Range<usize>,
    /// Ids already stored (`0..stored`); fresh inserts get ids above.
    pub stored: u64,
    /// Share of inserts that replace a stored id.
    pub replace_fraction: f64,
}

impl OpMix {
    /// `n` operations; fresh ids start at `stored + id_offset`, so two
    /// lists with different offsets never write the same fresh id.
    pub fn ops(&self, n: usize, id_offset: u64, rng: &mut StdRng) -> Vec<Op> {
        let mut fresh = self.stored + id_offset;
        (0..n)
            .map(|_| {
                if rng.random_range(0.0..1.0) < self.read_fraction {
                    let pool = &self.query_pools[rng.random_range(0..self.query_pools.len())];
                    Op::Query(rng.random_range(pool.clone()))
                } else {
                    let payload = rng.random_range(self.insert_pool.clone());
                    if rng.random_range(0.0..1.0) < self.replace_fraction {
                        Op::Insert(rng.random_range(0..self.stored), payload)
                    } else {
                        fresh += 1;
                        Op::Insert(fresh, payload)
                    }
                }
            })
            .collect()
    }
}
