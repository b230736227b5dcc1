//! Quickstart: train a WiSeDB decision model and schedule a batch.
//!
//! Mirrors the paper's core loop — specify templates and an SLA, learn a
//! strategy from optimal schedules of small samples, then apply it to an
//! incoming workload — and sanity-checks the result against the optimal
//! scheduler and a classic greedy heuristic.
//!
//! Run with: `cargo run --release --example quickstart`

use wisedb::prelude::*;
use wisedb::sim::{self, SimOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Workload specification: 10 TPC-H-like templates (2–6 min) on
    //    t2.medium instances, as in §7.1.
    let spec = wisedb::sim::catalog::tpch_like(10);
    println!("Templates:");
    for (i, t) in spec.templates().iter().enumerate() {
        println!("  T{:<2} {:<18} {}", i + 1, t.name, t.latencies[0].unwrap());
    }

    // 2. Performance goal: no query may take longer than 15 minutes, with
    //    a penalty of 1 cent per second of violation.
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec)?;
    println!("\nGoal: {:?}\n", goal);

    // 3. Train the decision model on optimal schedules of sample workloads.
    let config = ModelConfig {
        num_samples: 500,
        sample_size: 12,
        ..ModelConfig::fast()
    };
    let model = ModelGenerator::new(spec.clone(), goal.clone(), config).train()?;
    let stats = model.stats();
    println!(
        "Trained on {} samples ({} decisions) in {:.2}s — tree depth {}, {} leaves, {:.1}% resubstitution accuracy",
        stats.num_samples,
        stats.num_rows,
        stats.training_secs,
        stats.tree_depth,
        stats.tree_leaves,
        stats.training_accuracy * 100.0
    );

    // 4. Schedule an incoming batch of 30 queries.
    let workload = wisedb::sim::uniform_workload(&spec, 30, 42);
    let schedule = model.schedule_batch(&workload)?;
    let breakdown = cost_breakdown(&spec, &goal, &schedule)?;
    println!(
        "\nWiSeDB schedule: {} VMs for {} queries",
        schedule.num_vms(),
        schedule.num_queries()
    );
    println!(
        "  startup {} + runtime {} + penalty {} = {}",
        breakdown.startup,
        breakdown.runtime,
        breakdown.penalty,
        breakdown.total()
    );

    // 5. Compare against the optimal schedule and first-fit decreasing.
    let optimal = Solver::new(&spec, &goal).solve(&workload)?;
    let ffd = Heuristic::FirstFitDecreasing.schedule(&spec, &goal, &workload)?;
    let ffd_cost = total_cost(&spec, &goal, &ffd)?;
    println!("\nComparison:");
    println!("  optimal  {}", optimal.cost);
    println!(
        "  WiSeDB   {}  (+{:.1}% over optimal)",
        breakdown.total(),
        (breakdown.total().as_dollars() / optimal.cost.as_dollars() - 1.0) * 100.0
    );
    println!(
        "  FFD      {}  (+{:.1}% over optimal)",
        ffd_cost,
        (ffd_cost.as_dollars() / optimal.cost.as_dollars() - 1.0) * 100.0
    );

    // 6. Execute the schedule on the simulated cluster and verify the bill.
    let trace = sim::execute(&spec, &schedule, &SimOptions::default())?;
    println!(
        "\nSimulated execution: makespan {}, realized cost {}",
        trace.makespan(),
        trace.total_cost(&goal)
    );
    assert!(trace.total_cost(&goal).approx_eq(breakdown.total(), 1e-9));

    // 7. Peek at the learned strategy itself (Figure 6 style).
    let rendering = model.render_tree();
    let lines: Vec<&str> = rendering.lines().take(12).collect();
    println!("\nLearned strategy (first {} lines):", lines.len());
    for l in lines {
        println!("  {l}");
    }
    Ok(())
}
