//! A unified query interface over all similarity methods.
//!
//! The experiments compare two families of methods:
//!
//! * **pairwise point-matching** (EDR, LCSS, EDwP, CMS, …) — each query
//!   runs one `O(n²)` dynamic program per database trajectory;
//! * **representation-based** (t2vec, vRNN) — the database is encoded
//!   *once* (offline, `O(n)` per trajectory); each query costs one
//!   encoding plus `O(|v|)` vector distances.
//!
//! [`Method::build`] captures exactly this asymmetry: it produces a
//! [`Scorer`] that may hold precomputed state (the vectors). The
//! scalability experiment (Figure 6) measures both the build and query
//! phases.

use t2vec_core::model::vec_dist;
use t2vec_core::vrnn::VRnn;
use t2vec_core::T2Vec;
use t2vec_distance::TrajDistance;
use t2vec_spatial::point::Point;

/// Scores queries against a fixed trajectory database.
pub trait Scorer: Send + Sync {
    /// Distance from `query` to every database trajectory, in database
    /// order. Lower is more similar.
    fn distances(&self, query: &[Point]) -> Vec<f64>;
}

/// A similarity method that can be indexed over a database.
pub trait Method: Send + Sync {
    /// Display name used in experiment tables.
    fn name(&self) -> String;

    /// Prepares a scorer for `db` (for embedding methods this encodes
    /// the whole database — the offline phase of §V-D).
    fn build<'a>(&'a self, db: &'a [Vec<Point>]) -> Box<dyn Scorer + 'a>;
}

// ---------------------------------------------------------------------
// Pairwise point-matching methods.
// ---------------------------------------------------------------------

/// Adapter running a [`TrajDistance`] against every database trajectory
/// per query.
pub struct DpMethod<D: TrajDistance> {
    dist: D,
}

impl<D: TrajDistance> DpMethod<D> {
    /// Wraps a pairwise measure.
    pub fn new(dist: D) -> Self {
        Self { dist }
    }
}

struct DpScorer<'a, D: TrajDistance> {
    dist: &'a D,
    db: &'a [Vec<Point>],
}

impl<'a, D: TrajDistance> Scorer for DpScorer<'a, D> {
    fn distances(&self, query: &[Point]) -> Vec<f64> {
        self.db.iter().map(|t| self.dist.dist(query, t)).collect()
    }
}

impl<D: TrajDistance> Method for DpMethod<D> {
    fn name(&self) -> String {
        self.dist.name().to_string()
    }

    fn build<'a>(&'a self, db: &'a [Vec<Point>]) -> Box<dyn Scorer + 'a> {
        Box::new(DpScorer {
            dist: &self.dist,
            db,
        })
    }
}

// ---------------------------------------------------------------------
// Representation-based methods.
// ---------------------------------------------------------------------

/// t2vec: encode once, compare vectors.
pub struct T2VecMethod<'m> {
    model: &'m T2Vec,
}

impl<'m> T2VecMethod<'m> {
    /// Wraps a trained model.
    pub fn new(model: &'m T2Vec) -> Self {
        Self { model }
    }
}

/// The scorer of both representation-based methods: the database
/// `vectors`, encoded once, and the model's `encode` for each query.
struct VecScorer<F> {
    encode: F,
    vectors: Vec<Vec<f32>>,
}

impl<F: Fn(&[Point]) -> Vec<f32> + Send + Sync> Scorer for VecScorer<F> {
    fn distances(&self, query: &[Point]) -> Vec<f64> {
        let q = (self.encode)(query);
        self.vectors
            .iter()
            .map(|v| f64::from(vec_dist(&q, v)))
            .collect()
    }
}

/// The one `build` body of the representation-based methods.
fn vec_scorer<'a>(
    vectors: Vec<Vec<f32>>,
    encode: impl Fn(&[Point]) -> Vec<f32> + Send + Sync + 'a,
) -> Box<dyn Scorer + 'a> {
    Box::new(VecScorer { encode, vectors })
}

impl<'m> Method for T2VecMethod<'m> {
    fn name(&self) -> String {
        "t2vec".to_string()
    }

    fn build<'a>(&'a self, db: &'a [Vec<Point>]) -> Box<dyn Scorer + 'a> {
        vec_scorer(self.model.encode_batch(db), |q| self.model.encode(q))
    }
}

/// The vanilla-RNN embedding baseline.
pub struct VRnnMethod<'m> {
    model: &'m VRnn,
}

impl<'m> VRnnMethod<'m> {
    /// Wraps a trained baseline model.
    pub fn new(model: &'m VRnn) -> Self {
        Self { model }
    }
}

impl<'m> Method for VRnnMethod<'m> {
    fn name(&self) -> String {
        "vRNN".to_string()
    }

    fn build<'a>(&'a self, db: &'a [Vec<Point>]) -> Box<dyn Scorer + 'a> {
        vec_scorer(self.model.encode_batch(db), |q| self.model.encode(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_distance::edr::Edr;

    fn db() -> Vec<Vec<Point>> {
        vec![
            vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
            vec![Point::new(500.0, 500.0), Point::new(510.0, 500.0)],
        ]
    }

    #[test]
    fn dp_method_scores_db_in_order() {
        let m = DpMethod::new(Edr::new(5.0));
        assert_eq!(m.name(), "EDR");
        let db = db();
        let scorer = m.build(&db);
        let d = scorer.distances(&db[0]);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0], 0.0);
        assert!(d[1] > 0.0);
    }

    #[test]
    fn dp_method_query_not_in_db() {
        let m = DpMethod::new(Edr::new(5.0));
        let db = db();
        let scorer = m.build(&db);
        let q = vec![Point::new(1.0, 1.0), Point::new(11.0, 1.0)];
        let d = scorer.distances(&q);
        assert!(d[0] < d[1], "nearer trajectory should score lower");
    }
}
