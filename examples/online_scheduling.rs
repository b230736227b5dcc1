//! Online scheduling: queries arriving one at a time (§6.3).
//!
//! Replays a stream of queries through the streaming runtime's online
//! loop under the four §6.3.1 optimization settings (None / Reuse / Shift
//! / Shift+Reuse) and reports the model work each one pays (full
//! retrains, cache hits, shift-derived models, read from the scheduler's
//! counters) and its realized cost — Figure 19's experiment in miniature —
//! plus an A*-planned run as the quality yardstick (Figure 18's
//! comparator).
//!
//! Run with: `cargo run --release --example online_scheduling`

use wisedb::advisor::Planner;
use wisedb::prelude::*;
use wisedb::sim::Arrivals;
use wisedb_core::ArrivingQuery;

/// Runs `stream` through a one-class service planned under `online` and
/// prints the scheduler's model work and the drained stream's cost.
fn report(
    name: &str,
    spec: &WorkloadSpec,
    goal: &PerformanceGoal,
    online: OnlineConfig,
    stream: &[ArrivingQuery],
) -> Result<(), Box<dyn std::error::Error>> {
    let config = RuntimeConfig {
        online,
        ..RuntimeConfig::default()
    };
    let mut service = WorkloadService::train(spec.clone(), goal.clone(), config)?;
    let cost = service.run_stream(stream)?.last.total_cost();
    let work = service.scheduler(TenantId::DEFAULT)?.counters();
    println!(
        "{:<14} {:>10} {:>10} {:>8} {:>14}",
        name, work.retrains, work.cache_hits, work.shifts, cost
    );
    Ok(())
}

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
        report(name, &spec, &goal, config, &stream)?;
    }

    // Quality yardstick: plan every batch with A* instead of the tree.
    let config = OnlineConfig {
        planner: Planner::Optimal,
        training,
        ..OnlineConfig::default()
    };
    report("A*-per-batch", &spec, &goal, config, &stream)
}
