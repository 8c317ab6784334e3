//! A synthetic road network with skewed transition attractiveness.
//!
//! Intersections form a jittered grid; edges connect 4-neighbours. Every
//! edge carries an *attractiveness* weight drawn from a heavy-tailed
//! log-normal distribution, and a handful of *arterial corridors* (full
//! rows/columns) get their attractiveness boosted. Route choice minimises
//! `length / attractiveness`, so a small subset of edges ends up carrying
//! a large share of traffic — the "highly skewed transition patterns"
//! (\[10\], \[12\]) that t2vec is designed to exploit.

use rand::{Rng, RngExt};
use serde::{Deserialize, Serialize};
use t2vec_spatial::point::{BBox, Point};
use t2vec_tensor::rng::standard_normal;

/// An intersection identifier.
pub type NodeId = u32;

/// A directed edge of the road network.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Edge {
    /// Destination node.
    pub to: NodeId,
    /// Length in meters.
    pub length: f64,
    /// Attractiveness weight (higher = more popular); routing cost is
    /// `length / attractiveness`.
    pub attractiveness: f64,
}

/// Construction parameters for [`RoadNetwork::grid`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Number of intersection columns.
    pub cols: u32,
    /// Number of intersection rows.
    pub rows: u32,
    /// Spacing between adjacent intersections, meters.
    pub spacing: f64,
    /// Positional jitter applied to each intersection, meters (makes the
    /// grid look like a real street network rather than graph paper).
    pub jitter: f64,
    /// σ of the log-normal attractiveness (0 = uniform, 1.0 = heavy skew).
    pub skew_sigma: f64,
    /// Number of arterial rows and columns with boosted attractiveness.
    pub arterials: u32,
    /// Multiplicative attractiveness boost on arterial edges.
    pub arterial_boost: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            cols: 24,
            rows: 24,
            spacing: 200.0,
            jitter: 20.0,
            skew_sigma: 0.8,
            arterials: 4,
            arterial_boost: 4.0,
        }
    }
}

/// The road network: a directed graph embedded in the metric plane.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    config: NetworkConfig,
    positions: Vec<Point>,
    adjacency: Vec<Vec<Edge>>,
    /// Hub weights for endpoint sampling (popularity of each node as a
    /// trip origin/destination) — Zipf-like.
    hub_weights: Vec<f64>,
}

impl RoadNetwork {
    /// Builds a jittered grid network per `config`.
    ///
    /// # Panics
    /// Panics if the grid has fewer than 2×2 intersections.
    pub fn grid(config: NetworkConfig, rng: &mut impl Rng) -> Self {
        assert!(
            config.cols >= 2 && config.rows >= 2,
            "network needs at least a 2x2 grid"
        );
        let n = (config.cols * config.rows) as usize;
        let node = |r: u32, c: u32| (r * config.cols + c) as NodeId;

        let mut positions = Vec::with_capacity(n);
        for r in 0..config.rows {
            for c in 0..config.cols {
                let jx = rng.random_range(-config.jitter..=config.jitter);
                let jy = rng.random_range(-config.jitter..=config.jitter);
                positions.push(Point::new(
                    f64::from(c) * config.spacing + jx,
                    f64::from(r) * config.spacing + jy,
                ));
            }
        }

        // Pick arterial rows/columns (evenly spread).
        let arterial_rows: Vec<u32> = (0..config.arterials)
            .map(|i| (i + 1) * config.rows / (config.arterials + 1))
            .collect();
        let arterial_cols: Vec<u32> = (0..config.arterials)
            .map(|i| (i + 1) * config.cols / (config.arterials + 1))
            .collect();

        let mut adjacency: Vec<Vec<Edge>> = vec![Vec::with_capacity(4); n];
        let add_undirected = |positions: &[Point],
                              adjacency: &mut Vec<Vec<Edge>>,
                              a: NodeId,
                              b: NodeId,
                              attractiveness: f64| {
            let length = positions[a as usize].dist(&positions[b as usize]);
            adjacency[a as usize].push(Edge {
                to: b,
                length,
                attractiveness,
            });
            adjacency[b as usize].push(Edge {
                to: a,
                length,
                attractiveness,
            });
        };

        for r in 0..config.rows {
            for c in 0..config.cols {
                // log-normal attractiveness: exp(sigma * N(0,1))
                let mut sample_attr = |boosted: bool| {
                    let base = (config.skew_sigma * f64::from(standard_normal(rng))).exp();
                    if boosted {
                        base * config.arterial_boost
                    } else {
                        base
                    }
                };
                if c + 1 < config.cols {
                    let boosted = arterial_rows.contains(&r);
                    let attr = sample_attr(boosted);
                    add_undirected(&positions, &mut adjacency, node(r, c), node(r, c + 1), attr);
                }
                if r + 1 < config.rows {
                    let boosted = arterial_cols.contains(&c);
                    let attr = sample_attr(boosted);
                    add_undirected(&positions, &mut adjacency, node(r, c), node(r + 1, c), attr);
                }
            }
        }

        // Hub weights: a few strong hubs (e.g. station, airport, centre)
        // plus a Zipf-ish tail, mirroring real trip-endpoint skew.
        let mut hub_weights = vec![1.0f64; n];
        let num_hubs = (n / 50).max(3);
        for _ in 0..num_hubs {
            let idx = rng.random_range(0..n);
            hub_weights[idx] += rng.random_range(20.0..80.0);
        }

        Self {
            config,
            positions,
            adjacency,
            hub_weights,
        }
    }

    /// The construction parameters.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Number of intersections.
    pub fn num_nodes(&self) -> usize {
        self.positions.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum()
    }

    /// Position of a node.
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node as usize]
    }

    /// Outgoing edges of a node.
    pub fn edges(&self, node: NodeId) -> &[Edge] {
        &self.adjacency[node as usize]
    }

    /// Endpoint-popularity weights (for hub-biased trip sampling).
    pub fn hub_weights(&self) -> &[f64] {
        &self.hub_weights
    }

    /// The bounding box of all intersections.
    ///
    /// # Panics
    /// Never — construction guarantees at least four nodes.
    pub fn bbox(&self) -> BBox {
        BBox::of_points(&self.positions).expect("network has nodes")
    }

    /// Gini coefficient of edge attractiveness — a measure of how skewed
    /// the transition preferences are (0 = uniform, →1 = extreme).
    pub fn attractiveness_gini(&self) -> f64 {
        let mut attrs: Vec<f64> = self
            .adjacency
            .iter()
            .flat_map(|edges| edges.iter().map(|e| e.attractiveness))
            .collect();
        attrs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = attrs.len() as f64;
        let sum: f64 = attrs.iter().sum();
        if sum == 0.0 {
            return 0.0;
        }
        let weighted: f64 = attrs
            .iter()
            .enumerate()
            .map(|(i, &v)| (2.0 * (i as f64 + 1.0) - n - 1.0) * v)
            .sum();
        weighted / (n * sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2vec_tensor::rng::det_rng;

    fn small_net() -> RoadNetwork {
        let mut rng = det_rng(7);
        RoadNetwork::grid(
            NetworkConfig {
                cols: 6,
                rows: 5,
                ..NetworkConfig::default()
            },
            &mut rng,
        )
    }

    #[test]
    fn grid_dimensions() {
        let net = small_net();
        assert_eq!(net.num_nodes(), 30);
        // Undirected edges: 5*(6-1) horizontal + 6*(5-1) vertical = 49,
        // stored directed = 98.
        assert_eq!(net.num_edges(), 98);
    }

    #[test]
    fn every_node_connected() {
        let net = small_net();
        for n in 0..net.num_nodes() as NodeId {
            assert!(!net.edges(n).is_empty(), "node {n} isolated");
            for e in net.edges(n) {
                assert!(e.length > 0.0, "zero-length edge");
                assert!(e.attractiveness > 0.0);
                assert!((e.to as usize) < net.num_nodes());
            }
        }
    }

    #[test]
    fn edges_are_bidirectional() {
        let net = small_net();
        for n in 0..net.num_nodes() as NodeId {
            for e in net.edges(n) {
                assert!(
                    net.edges(e.to).iter().any(|back| back.to == n),
                    "edge {n}->{} has no reverse",
                    e.to
                );
            }
        }
    }

    #[test]
    fn jitter_keeps_grid_roughly_in_place() {
        let net = small_net();
        let cfg = net.config();
        let b = net.bbox();
        assert!(b.width() <= f64::from(cfg.cols - 1) * cfg.spacing + 2.0 * cfg.jitter);
        assert!(b.width() >= f64::from(cfg.cols - 1) * cfg.spacing - 2.0 * cfg.jitter);
    }

    #[test]
    fn attractiveness_is_skewed() {
        let mut rng = det_rng(9);
        let skewed = RoadNetwork::grid(NetworkConfig::default(), &mut rng);
        let uniform = RoadNetwork::grid(
            NetworkConfig {
                skew_sigma: 0.0,
                arterials: 0,
                ..NetworkConfig::default()
            },
            &mut rng,
        );
        assert!(
            skewed.attractiveness_gini() > 0.3,
            "expected heavy skew, gini = {}",
            skewed.attractiveness_gini()
        );
        assert!(uniform.attractiveness_gini() < 0.01);
    }

    #[test]
    fn hub_weights_have_hubs() {
        let net = small_net();
        let max = net.hub_weights().iter().cloned().fold(0.0f64, f64::max);
        let min = net
            .hub_weights()
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert!(max > 10.0 * min, "expected strong hubs");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut r1 = det_rng(5);
        let mut r2 = det_rng(5);
        let a = RoadNetwork::grid(NetworkConfig::default(), &mut r1);
        let b = RoadNetwork::grid(NetworkConfig::default(), &mut r2);
        assert_eq!(a.position(17), b.position(17));
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    #[should_panic(expected = "at least a 2x2")]
    fn degenerate_grid_panics() {
        let mut rng = det_rng(0);
        let _ = RoadNetwork::grid(
            NetworkConfig {
                cols: 1,
                rows: 5,
                ..NetworkConfig::default()
            },
            &mut rng,
        );
    }
}
