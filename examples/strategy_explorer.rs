//! Strategy explorer: the performance/cost trade-off ladder of §6.1.
//!
//! WiSeDB trains alternative models for stricter and looser variants of the
//! application's goal (via adaptive retraining, §5), prices each per query
//! template, prunes near-duplicates with Earth Mover's Distance, and lets
//! the application *estimate* what any future workload mix would cost under
//! each strategy — before renting a single VM. The ladder lives in
//! `wisedb::advisor::recommend`.
//!
//! Run with: `cargo run --release --example strategy_explorer`

use wisedb::advisor::{ModelConfig, RecommenderConfig, StrategyRecommender};
use wisedb::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::PerQuery, &spec)?;

    let config = RecommenderConfig {
        ladder_size: 7,
        keep: 3,
        spread: 0.5,
        costing_sample: 600,
        seed: 7,
        training: ModelConfig {
            num_samples: 250,
            sample_size: 10,
            ..ModelConfig::fast()
        },
    };
    println!(
        "Building a ladder of {} goals around the application's PerQuery SLA,\nkeeping the {} most distinct strategies...\n",
        config.ladder_size, config.keep
    );
    let strategies = StrategyRecommender::new(spec.clone(), goal, config).recommend()?;

    // Price three prospective workload mixes under every strategy.
    let mixes: [(&str, Vec<u32>); 3] = [
        ("uniform (100 each)", vec![100; 10]),
        ("short-heavy", {
            let mut v = vec![20; 10];
            v[0] = 400;
            v[1] = 300;
            v
        }),
        ("long-heavy", {
            let mut v = vec![20; 10];
            v[8] = 300;
            v[9] = 400;
            v
        }),
    ];

    println!(
        "{:<12} {:<28} {:>18} {:>18} {:>18}",
        "strictness", "goal flavour", mixes[0].0, mixes[1].0, mixes[2].0
    );
    for s in &strategies {
        let flavour = if s.strictness < -1e-9 {
            "relaxed / cheaper"
        } else if s.strictness > 1e-9 {
            "strict / pricier"
        } else {
            "as requested"
        };
        print!("{:<12.2} {:<28}", s.strictness, flavour);
        for (_, counts) in &mixes {
            print!(" {:>18}", s.estimator.estimate(counts));
        }
        println!();
    }

    // Schedule one real batch under the middle strategy and compare the
    // estimate with the realized cost.
    let chosen = &strategies[strategies.len() / 2];
    let workload = wisedb::sim::generator::uniform_workload(&spec, 500, 99);
    let counts = workload.template_counts(spec.num_templates());
    let estimated = chosen.estimator.estimate(&counts);
    let schedule = chosen.model.schedule_batch(&workload)?;
    let realized = total_cost(&spec, &chosen.goal, &schedule)?;
    println!(
        "\nChosen strategy (strictness {:+.2}): estimated {} vs realized {} on a fresh 500-query batch ({} VMs)",
        chosen.strictness,
        estimated,
        realized,
        schedule.num_vms()
    );
    Ok(())
}
