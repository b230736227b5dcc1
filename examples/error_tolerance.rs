//! Latency-prediction error tolerance (§7.5, Figure 22).
//!
//! WiSeDB schedules with *predicted* latencies; real predictors err. This
//! example injects Gaussian relative error into the predictor, lets queries
//! be matched to the template with the closest predicted latency (§6.2),
//! schedules with the resulting — partly wrong — template labels, and then
//! executes on the simulated cluster with the *true* latencies to see what
//! the errors actually cost.
//!
//! Run with: `cargo run --release --example error_tolerance`

use wisedb::prelude::*;
use wisedb::sim::{self, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec)?;
    let model = ModelGenerator::new(
        spec.clone(),
        goal.clone(),
        ModelConfig {
            num_samples: 300,
            sample_size: 10,
            ..ModelConfig::fast()
        },
    )
    .train()?;

    let workload = wisedb::sim::generator::uniform_workload(&spec, 60, 17);

    println!(
        "{:>8} {:>14} {:>16} {:>16} {:>12}",
        "σ", "misassigned", "believed cost", "realized cost", "inflation"
    );
    for sigma in [0.0, 0.05, 0.10, 0.20, 0.30, 0.40] {
        let perceived = sim::perceive_workload(&spec, &workload, sigma, 23);
        let schedule = model.schedule_batch(&perceived.perceived)?;

        // What the scheduler *believes* the schedule costs...
        let believed = total_cost(&spec, &goal, &schedule)?;
        // ...and what actually happens when true latencies play out.
        let trace = sim::execute(
            &spec,
            &schedule,
            &SimOptions {
                true_latencies: Some(perceived.true_latencies.clone()),
            },
        )?;
        let realized = trace.total_cost(&goal);
        println!(
            "{:>7.0}% {:>13.1}% {:>16} {:>16} {:>11.1}%",
            sigma * 100.0,
            perceived.misassignment_rate() * 100.0,
            believed,
            realized,
            (realized.as_dollars() / believed.as_dollars() - 1.0) * 100.0
        );
    }
    println!(
        "\nThe believed and realized costs agree while misassignment is rare,\nthen diverge as prediction error makes templates ambiguous — the\npaper's Figure 22 cliff."
    );
    Ok(())
}
