//! Streaming-runtime benchmark: the online §6.3 loop under sustained
//! arrival streams instead of fixed 30-query replays.
//!
//! Two reports:
//!
//! * **Arrival-process grid** — end-to-end metrics (p50/p95/p99 SLA
//!   latency, violation rate, $/hour, fleet size, scheduler decision
//!   latency) for each arrival family at a common mean rate.
//! * **Saturation sweep** — Poisson arrival rate swept per goal kind. The
//!   cluster scales out, so the binding resource is the *scheduler*: a rate
//!   is sustainable while the mean wall-clock decision time stays below the
//!   mean inter-arrival gap. The reported saturation point is
//!   `1 / mean decision time` at the heaviest swept rate.
//!
//! `WISEDB_SCALE=quick` runs 500-query streams over two arrival processes;
//! `std` (default) covers all four at 1000 queries. `--trace <path>`
//! records the whole run (training included) with full `wisedb-obs`
//! spans and writes a Chrome trace-event JSON to `path`.

use wisedb::advisor::{ModelGenerator, OnlineConfig, OnlineScheduler, TrainingArtifacts};
use wisedb::prelude::*;
use wisedb_bench::{Scale, Table};
use wisedb_runtime::generate_stream;

/// Online (in-loop) retraining budget: deliberately lighter than the base
/// model's offline budget at every scale, because aged-batch retrains run
/// inside the arrival gap and bound the scheduler's decision latency.
fn retrain_config() -> ModelConfig {
    ModelConfig {
        num_samples: 150,
        sample_size: 9,
        seed: 0xBE7C4,
        ..ModelConfig::fast()
    }
}

fn online_config() -> OnlineConfig {
    OnlineConfig {
        training: retrain_config(),
        // Coarser age quantization than the 250 ms default: minutes-scale
        // queries mean minutes-scale waits, and a coarse quantum keeps the
        // Reuse cache small under heavy arrival rates.
        age_quantum: Millis::from_secs(30),
        ..OnlineConfig::default()
    }
}

fn service(model: &DecisionModel, artifacts: &TrainingArtifacts) -> WorkloadService {
    let scheduler = OnlineScheduler::with_model(model.clone(), artifacts.clone(), online_config());
    WorkloadService::with_scheduler(scheduler, RuntimeConfig::default())
}

fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

fn secs(m: Millis) -> String {
    format!("{:.0}s", m.as_secs_f64())
}

fn main() {
    let tracing = wisedb_bench::trace_collector_from_args();
    let scale = Scale::from_env();
    let spec = wisedb::sim::catalog::tpch_like(10);
    let n_queries = match scale {
        Scale::Quick => 500,
        Scale::Std => 1000,
        Scale::Paper => 2000,
    };
    let training = scale.training();

    // -- Train one base model per goal kind, artifacts kept for reuse. --
    eprintln!("streaming: training models ({scale:?})...");
    let mut models = Vec::new();
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).expect("defaults exist");
        // Percentile A* sample solves blow up super-exponentially in the
        // sample size (the penalty digest carries the whole latency
        // distribution) — at the std config (m = 12) one base model takes
        // the better part of an hour on one core. Cap m for that goal so
        // the streaming report stays minutes-scale; the fig binaries
        // measure the full-size Percentile training cost.
        let config = if kind == GoalKind::Percentile {
            ModelConfig {
                sample_size: training.sample_size.min(9),
                ..training.clone()
            }
        } else {
            training.clone()
        };
        let generator = ModelGenerator::new(spec.clone(), goal.clone(), config);
        let (model, artifacts) = generator
            .train_with_artifacts()
            .expect("training on catalog specs succeeds");
        eprintln!("  {}: {:.2}s", kind.name(), model.stats().training_secs);
        models.push((kind, model, artifacts));
    }

    // -- Part A: arrival-process grid (max-latency goal). --
    let mix = TemplateMix::uniform(spec.num_templates());
    let rate = 0.5; // queries per (virtual) second
    let mut processes: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(PoissonProcess::per_second(rate, mix.clone())),
        Box::new(OnOffProcess::new(0.25, 24.0, 8, mix.clone())),
    ];
    if scale != Scale::Quick {
        processes.push(Box::new(DiurnalProcess::new(
            rate,
            0.8,
            Millis::from_mins(10),
            mix.clone(),
        )));
        processes.push(Box::new(DriftProcess::new(
            rate,
            TemplateMix::uniform(spec.num_templates()),
            TemplateMix::hot(spec.num_templates(), 0, 0.7),
            Millis::from_secs(n_queries as u64 / 2),
        )));
    }

    let (_, max_model, max_artifacts) = models
        .iter()
        .find(|(k, _, _)| *k == GoalKind::MaxLatency)
        .expect("all goal kinds trained");
    let mut table = Table::new(
        format!("Streaming: {n_queries}-query streams, Max goal, {rate} q/s mean"),
        &[
            "process", "done", "p50", "p95", "p99", "viol", "$/h", "vms", "dec ms",
        ],
    );
    for process in &mut processes {
        eprintln!("streaming: {}...", process.label());
        let mut svc = service(max_model, max_artifacts);
        let report = svc
            .run_process(process.as_mut(), n_queries)
            .expect("streams on catalog specs run");
        let m = &report.last;
        table.row(&[
            process.label(),
            m.completed.to_string(),
            secs(m.latency.p50),
            secs(m.latency.p95),
            secs(m.latency.p99),
            pct(m.violation_rate),
            format!("{:.2}", m.dollars_per_hour),
            m.vms_provisioned.to_string(),
            format!("{:.2}", m.mean_decision_secs * 1e3),
        ]);
    }
    table.print();

    // -- Part B: Poisson saturation sweep per goal kind. --
    let rates: &[f64] = match scale {
        Scale::Quick => &[0.5, 2.0],
        _ => &[0.25, 0.5, 1.0, 2.0, 4.0],
    };
    let sweep_n = n_queries.min(500);
    let mut headers: Vec<String> = vec!["goal".into()];
    for r in rates {
        headers.push(format!("p95@{r}/s"));
        headers.push(format!("dec ms@{r}/s"));
    }
    headers.push("sat q/s".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        format!("Streaming saturation: Poisson sweep, {sweep_n} queries"),
        &header_refs,
    );
    for (kind, model, artifacts) in &models {
        eprintln!("streaming: sweeping {}...", kind.name());
        let mut cells = vec![kind.name().to_string()];
        let mut last_decision_secs = f64::INFINITY;
        for &r in rates {
            let mut process = PoissonProcess::per_second(r, mix.clone());
            // Same seeded stream per (goal, rate) — comparable across goals.
            let stream = generate_stream(&mut process, sweep_n, 0x005E_ED57 + (r * 8.0) as u64);
            let mut svc = service(model, artifacts);
            let report = svc.run_stream(&stream).expect("streams run");
            let m = &report.last;
            cells.push(secs(m.latency.p95));
            cells.push(format!("{:.2}", m.mean_decision_secs * 1e3));
            last_decision_secs = m.mean_decision_secs;
        }
        // The scheduler sustains arrivals while decision time < gap.
        let saturation = if last_decision_secs > 0.0 {
            1.0 / last_decision_secs
        } else {
            f64::INFINITY
        };
        cells.push(format!("{saturation:.0}"));
        table.row(&cells);
    }
    table.print();

    // -- Part C: overload with and without admission control. --
    let overload_rate = 8.0;
    let mut table = Table::new(
        format!("Streaming overload: Poisson {overload_rate} q/s burst, Max goal"),
        &["admission", "admitted", "shed", "p95", "viol", "$/h", "vms"],
    );
    for (label, admission) in [
        ("AcceptAll", AdmissionPolicy::AcceptAll),
        ("MaxVms(24)", AdmissionPolicy::MaxVms(24)),
    ] {
        let scheduler =
            OnlineScheduler::with_model(max_model.clone(), max_artifacts.clone(), online_config());
        let mut svc = WorkloadService::with_scheduler(
            scheduler,
            RuntimeConfig {
                admission,
                ..RuntimeConfig::default()
            },
        );
        let mut process = PoissonProcess::per_second(overload_rate, mix.clone());
        let report = svc.run_process(&mut process, sweep_n).expect("streams run");
        let m = &report.last;
        table.row(&[
            label.to_string(),
            m.admitted.to_string(),
            m.rejected.to_string(),
            secs(m.latency.p95),
            pct(m.violation_rate),
            format!("{:.2}", m.dollars_per_hour),
            m.vms_provisioned.to_string(),
        ]);
    }
    table.print();

    if let Some((collector, path)) = tracing {
        wisedb_bench::finish_trace(collector, &path);
    }
}
