//! Robustness to non-uniform / low sampling rates — a miniature of the
//! paper's Experiment 2 (Table IV): mean rank of the true counterpart
//! under increasing dropping rate, for EDR, EDwP and t2vec.
//!
//! ```text
//! cargo run --release --example robustness
//! ```

// Examples print their results; the clippy.toml print ban targets
// library crates (see DESIGN.md §10).
#![allow(clippy::disallowed_macros)]

use t2vec::prelude::*;
use t2vec_eval::experiments::{mean_rank_of, most_similar_workload, query_pool_split};
use t2vec_eval::method::{DpMethod, Method, T2VecMethod};

fn main() {
    let mut rng = det_rng(23);
    let city = City::tiny(&mut rng);
    let data = DatasetBuilder::new(&city)
        .trips(160)
        .min_len(8)
        .build(&mut rng);

    let config = T2VecConfig::tiny();
    let model = T2Vec::train(&config, &data.train, &mut rng).expect("training failed");

    let (q, p) = query_pool_split(&data.test, 15);

    let methods: Vec<Box<dyn Method + '_>> = vec![
        Box::new(DpMethod::new(Edr::new(50.0))),
        Box::new(DpMethod::new(Edwp::new())),
        Box::new(T2VecMethod::new(&model)),
    ];

    println!(
        "mean rank of the true counterpart (lower = better), db size {}:",
        q.len() + p.len()
    );
    println!("{:>8} {:>10} {:>10} {:>10}", "r1", "EDR", "EDwP", "t2vec");
    for r1 in [0.0, 0.2, 0.4, 0.6] {
        let mut rng = det_rng(100 + (r1 * 10.0) as u64);
        let workload = most_similar_workload(&q, &p, r1, 0.0, &mut rng);
        let ranks: Vec<f64> = methods
            .iter()
            .map(|m| mean_rank_of(m.as_ref(), &workload))
            .collect();
        println!(
            "{:>8.1} {:>10.2} {:>10.2} {:>10.2}",
            r1, ranks[0], ranks[1], ranks[2]
        );
    }
    println!("\nthe paper's finding: EDR degrades sharply with r1; t2vec stays low.");
}
