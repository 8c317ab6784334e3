//! k-nearest-trajectory search: encode a database once into the
//! embedding store, then answer queries by its exact scan and by its IVF
//! tier (the paper's future-work §VI.3), and compare against the
//! quadratic EDwP baseline.
//!
//! ```text
//! cargo run --release --example knn_search
//! ```

// Examples print their results; the clippy.toml print ban targets
// library crates (see DESIGN.md §10).
#![allow(clippy::disallowed_macros)]

use std::time::Instant;
use t2vec::prelude::*;

fn main() {
    let mut rng = det_rng(7);
    let city = City::tiny(&mut rng);
    let data = DatasetBuilder::new(&city)
        .trips(200)
        .min_len(6)
        .build(&mut rng);

    let config = T2VecConfig::tiny();
    let model = T2Vec::train(&config, &data.train, &mut rng).expect("training failed");

    // Offline phase: encode the whole database once (O(n) per trip).
    let db: Vec<Vec<_>> = data.test.iter().map(|t| t.points.clone()).collect();
    let t0 = Instant::now();
    let vectors = model.encode_batch(&db);
    println!(
        "encoded {} trajectories in {:.1} ms",
        db.len(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // One store answers both ways: the exact scan, and the IVF tier.
    // Four cells, two probed: about half the database is scored.
    let entries = (0..).zip(vectors).map(|(id, vec)| Entry { id, vec });
    let store = EmbeddingStore::from_entries(model.repr_dim(), 1, entries);
    store.build_ann(&AnnConfig {
        nprobe: 2,
        ..AnnConfig::new(4)
    });

    // Query with a degraded variant of database trajectory 0: the true
    // answer should surface at the top despite the down-sampling.
    let query = downsample(&db[0], 0.5, &mut rng);
    let qv = model.encode(&query);

    let t0 = Instant::now();
    let exact_top = store.knn(&qv, 5);
    let exact_us = t0.elapsed().as_micros();
    let t0 = Instant::now();
    let (ivf_top, explain) = store.knn_ann_explained(&qv, 5);
    let ivf_us = t0.elapsed().as_micros();

    println!("\nexact top-5  ({exact_us} µs): {exact_top:?}");
    println!(
        "IVF   top-5  ({ivf_us} µs, {} candidates): {ivf_top:?}",
        explain.candidates
    );
    assert_eq!(
        exact_top[0].0, 0,
        "the query's own trajectory should rank first"
    );

    // The same query via the strongest classical baseline, for contrast:
    // one O(n²) dynamic program per database entry.
    let edwp = Edwp::new();
    let t0 = Instant::now();
    let mut scored: Vec<(usize, f64)> = db
        .iter()
        .enumerate()
        .map(|(i, t)| (i, edwp.dist(&query, t)))
        .collect();
    scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!(
        "\nEDwP top-5 ({} µs): {:?}",
        t0.elapsed().as_micros(),
        &scored[..5.min(scored.len())]
    );
    println!("\nt2vec answers from vectors; the DP baseline re-reads every trajectory.");
}
