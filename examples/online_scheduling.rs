//! Online scheduling: queries arriving one at a time (§6.3).
//!
//! Replays a stream of queries through the online scheduler under the four
//! §6.3.1 optimization settings (None / Reuse / Shift / Shift+Reuse) and
//! reports the model work each one pays (full retrains, cache hits,
//! shift-derived models) and its realized cost — Figure 19's experiment
//! in miniature — plus an A*-planned run as the quality yardstick
//! (Figure 18's comparator).
//!
//! Run with: `cargo run --release --example online_scheduling`

use wisedb::advisor::{ArrivingQuery, OnlineConfig, OnlineScheduler, Planner};
use wisedb::prelude::*;
use wisedb::sim::Arrivals;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec)?;

    // 30 queries arriving ~4/s (mean gap 250 ms, std 125 ms), as in §7.4.
    let workload = wisedb::sim::generator::uniform_workload(&spec, 30, 5);
    let times = Arrivals::Normal {
        mean_secs: 0.25,
        std_secs: 0.125,
    }
    .times(30, 5);
    let stream: Vec<ArrivingQuery> = workload
        .queries()
        .iter()
        .zip(&times)
        .map(|(q, &arrival)| ArrivingQuery::new(q.template, arrival))
        .collect();

    let training = ModelConfig {
        num_samples: 120,
        sample_size: 8,
        ..ModelConfig::fast()
    };

    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>14}",
        "variant", "retrains", "cacheHits", "shifts", "cost"
    );
    let variants: [(&str, bool, bool); 4] = [
        ("None", false, false),
        ("Reuse", true, false),
        ("Shift", false, true),
        ("Shift+Reuse", true, true),
    ];
    for (name, reuse, shift) in variants {
        let config = OnlineConfig {
            reuse,
            shift,
            training: training.clone(),
            ..OnlineConfig::default()
        };
        let mut scheduler = OnlineScheduler::train(spec.clone(), goal.clone(), config)?;
        let report = scheduler.run(&stream)?;
        println!(
            "{:<14} {:>10} {:>10} {:>8} {:>14}",
            name,
            report.retrains,
            report.cache_hits,
            report.shifts,
            report.total_cost(&spec, &goal)?
        );
    }

    // Quality yardstick: plan every batch with A* instead of the tree.
    let mut oracle = OnlineScheduler::train(
        spec.clone(),
        goal.clone(),
        OnlineConfig {
            planner: Planner::Optimal,
            training: training.clone(),
            ..OnlineConfig::default()
        },
    )?;
    let report = oracle.run(&stream)?;
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>14}",
        "A*-per-batch",
        report.retrains,
        report.cache_hits,
        report.shifts,
        report.total_cost(&spec, &goal)?
    );
    Ok(())
}
