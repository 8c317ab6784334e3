//! Cross-crate behavioural tests of the classical baselines on
//! *generated city data* (the unit tests inside `t2vec-distance` use
//! synthetic walks; here the inputs come through the full trajgen +
//! spatial pipeline).

use t2vec::prelude::*;
use t2vec_distance::dtw::Dtw;
use t2vec_spatial::point::Point;

fn city_trips(n: usize, seed: u64) -> Vec<Vec<Point>> {
    let mut rng = det_rng(seed);
    let city = City::tiny(&mut rng);
    let ds = DatasetBuilder::new(&city)
        .trips(n)
        .min_len(8)
        .build(&mut rng);
    ds.all().map(|t| t.points.clone()).collect()
}

#[test]
fn edwp_is_more_downsampling_robust_than_edr() {
    // The motivating comparison from the paper's related work: EDwP's
    // interpolation absorbs rate changes that EDR cannot.
    let trips = city_trips(30, 1);
    let mut rng = det_rng(2);
    let edr = Edr::new(50.0);
    let edwp = Edwp::new();
    let mut edr_wins = 0;
    let mut edwp_wins = 0;
    for trip in trips.iter().take(20) {
        let down = downsample(trip, 0.5, &mut rng);
        // Normalised self-distance after degradation, relative to the
        // distance to a different trip.
        let other = &trips[(trips.len() / 2) % trips.len()];
        let edr_ratio = edr.dist(trip, &down) / edr.dist(trip, other).max(1e-9);
        let edwp_ratio = edwp.dist(trip, &down) / edwp.dist(trip, other).max(1e-9);
        if edr_ratio < edwp_ratio {
            edr_wins += 1;
        } else {
            edwp_wins += 1;
        }
    }
    assert!(
        edwp_wins > edr_wins,
        "EDwP should be the more rate-robust measure ({edwp_wins} vs {edr_wins})"
    );
}

#[test]
fn all_measures_identify_self_as_most_similar_on_clean_data() {
    let trips = city_trips(25, 3);
    let measures: Vec<Box<dyn TrajDistance>> = vec![
        Box::new(Dtw::new()),
        Box::new(Edr::new(50.0)),
        Box::new(Lcss::new(50.0)),
        Box::new(Edwp::new()),
        Box::new(Cms::new(100.0)),
    ];
    for m in &measures {
        for probe in trips.iter().take(5) {
            let self_d = m.dist(probe, probe);
            let min_other = trips
                .iter()
                .filter(|t| *t != probe)
                .map(|t| m.dist(probe, t))
                .fold(f64::INFINITY, f64::min);
            assert!(
                self_d <= min_other,
                "{}: self distance {self_d} not minimal (min other {min_other})",
                m.name()
            );
        }
    }
}

#[test]
fn cms_is_order_blind_but_sequence_methods_are_not() {
    let trips = city_trips(10, 4);
    let trip = &trips[0];
    let mut rev = trip.clone();
    rev.reverse();
    assert_eq!(
        Cms::new(100.0).dist(trip, &rev),
        0.0,
        "CMS cannot see direction"
    );
    // DTW distance of a route to its reverse is positive for non-trivial
    // routes.
    assert!(Dtw::new().dist(trip, &rev) > 0.0);
}

#[test]
fn distance_measure_epsilon_tracks_grid_resolution() {
    // EDR at a fine threshold is stricter than at a coarse one on real
    // city trajectories (monotonicity survives the full pipeline).
    let trips = city_trips(12, 5);
    let a = &trips[0];
    let b = &trips[1];
    let fine = Edr::new(10.0).dist(a, b);
    let coarse = Edr::new(200.0).dist(a, b);
    assert!(coarse <= fine);
}

#[test]
fn geo_projection_pipeline_roundtrip() {
    // Import/export path: project geographic coordinates into the local
    // frame, run a measure, and confirm unprojection preserves data.
    use t2vec_spatial::point::GeoPoint;
    let anchor = GeoPoint::new(-8.61, 41.15);
    let geo: Vec<GeoPoint> = (0..20)
        .map(|i| GeoPoint::new(-8.61 + f64::from(i) * 1e-4, 41.15 + f64::from(i) * 5e-5))
        .collect();
    let local: Vec<Point> = geo.iter().map(|g| g.project(&anchor)).collect();
    assert_eq!(Dtw::new().dist(&local, &local), 0.0);
    let back: Vec<GeoPoint> = local
        .iter()
        .map(|p| GeoPoint::unproject(p, &anchor))
        .collect();
    for (g, b) in geo.iter().zip(&back) {
        assert!((g.lon - b.lon).abs() < 1e-9);
        assert!((g.lat - b.lat).abs() < 1e-9);
    }
}
