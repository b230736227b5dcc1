//! The multi-tenant consolidation scenario: shared fleet vs isolated
//! fleets.
//!
//! Three tenant SLA classes — gold (per-query deadlines, priority 2),
//! silver (workload max-latency, priority 1), bronze (average latency,
//! priority 0) — each with its own Poisson arrival stream, are run two
//! ways over identical traffic:
//!
//! * **shared** — one [`WorkloadService`] scheduling all three classes
//!   onto one fleet (per-class decision models, shared open VM);
//! * **isolated** — one single-class service per class, each renting its
//!   own fleet (the pre-multi-tenant deployment: one fleet per goal).
//!
//! The interesting number is the **consolidation saving**: the shared
//! fleet packs one class's queries into another's rented-but-idle VM
//! tails, so it runs the same traffic with fewer VM rentals and start-up
//! fees. Both runs reuse the same per-class base models, so the
//! comparison isolates *fleet sharing* — not model quality.
//!
//! Used by `fig multitenant` (the report) and `--bin regress` (counter
//! guards: completions, shared/isolated VM rentals).

use wisedb::prelude::*;
use wisedb_advisor::{MultiScheduler, TrainingArtifacts};
use wisedb_runtime::StreamReport;

use crate::Scale;

/// The scenario's three SLA classes over `spec`.
pub fn classes(spec: &WorkloadSpec) -> Vec<SlaClass> {
    vec![
        SlaClass::new(
            "gold",
            PerformanceGoal::paper_default(GoalKind::PerQuery, spec).expect("defaults exist"),
        )
        .with_priority(2),
        SlaClass::new(
            "silver",
            PerformanceGoal::paper_default(GoalKind::MaxLatency, spec).expect("defaults exist"),
        )
        .with_priority(1),
        SlaClass::new(
            "bronze",
            PerformanceGoal::paper_default(GoalKind::AverageLatency, spec).expect("defaults exist"),
        ),
    ]
}

/// Per-class Poisson arrival rates (queries per virtual second): gold is
/// the thin premium stream, bronze the heavy background one. Each class
/// alone is *sparse* against the catalog's 120–360 s query latencies
/// (mean gaps of 5–6.7 minutes), so an isolated fleet mostly pays a fresh
/// VM start-up per query; the merged stream's ~2-minute gaps are dense
/// enough that the shared fleet keeps finding a busy open VM whose tail a
/// deadline-feasible query can ride — that gap is the consolidation
/// saving.
pub const RATES: [f64; 3] = [1.0 / 400.0, 1.0 / 350.0, 1.0 / 300.0];

/// Arrivals per class at each scale.
pub fn arrivals_per_class(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 50,
        Scale::Std => 150,
        Scale::Paper => 300,
    }
}

/// Everything one scenario run produces.
pub struct MultiTenantOutcome {
    /// The three classes, in [`TenantId`] order.
    pub classes: Vec<SlaClass>,
    /// The shared-fleet run.
    pub shared: StreamReport,
    /// One isolated single-class run per class (same order, same
    /// sub-streams, same base models).
    pub isolated: Vec<StreamReport>,
}

impl MultiTenantOutcome {
    /// Total cost (infrastructure + penalties) of the shared fleet.
    pub fn shared_total(&self) -> Money {
        self.shared.last.total_cost()
    }

    /// Total cost summed across the isolated fleets.
    pub fn isolated_total(&self) -> Money {
        self.isolated.iter().map(|r| r.last.total_cost()).sum()
    }

    /// VMs the shared fleet rented.
    pub fn shared_vms(&self) -> u64 {
        self.shared.last.vms_provisioned
    }

    /// VM rentals summed across the isolated fleets.
    pub fn isolated_vms(&self) -> u64 {
        self.isolated.iter().map(|r| r.last.vms_provisioned).sum()
    }

    /// Consolidation saving: how much of the isolated deployments' total
    /// cost the shared fleet avoids (positive = sharing is cheaper).
    pub fn saving_pct(&self) -> f64 {
        let iso = self.isolated_total().as_dollars();
        if iso <= 0.0 {
            return 0.0;
        }
        (1.0 - self.shared_total().as_dollars() / iso) * 100.0
    }
}

/// Online configuration shared by both deployments and the `streaming*`
/// figures: light in-loop retraining, coarse age quantum (minutes-scale
/// queries).
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        training: ModelConfig {
            num_samples: 150,
            sample_size: 9,
            seed: 0xBE7C4,
            ..ModelConfig::fast()
        },
        age_quantum: Millis::from_secs(30),
        ..OnlineConfig::default()
    }
}

/// Runs the scenario at `scale` on `spec` and returns both deployments'
/// reports. Deterministic: fixed per-class stream seeds, fixed training
/// seeds, and both deployments share the same trained base models.
pub fn run(spec: &WorkloadSpec, scale: Scale) -> MultiTenantOutcome {
    let class_set = classes(spec);
    let online = online_config();
    let n = arrivals_per_class(scale);
    let mix = TemplateMix::uniform(spec.num_templates());

    // One base model per class, shared by both deployments.
    eprintln!("multitenant: training {} class models...", class_set.len());
    let mut trained: Vec<(DecisionModel, TrainingArtifacts)> = Vec::new();
    for class in &class_set {
        let generator = ModelGenerator::new(
            spec.clone(),
            class.goal.clone(),
            scale.training().with_seed(0xC1A55),
        );
        let (model, artifacts) = generator
            .train_with_artifacts()
            .expect("training on catalog specs succeeds");
        trained.push((model, artifacts));
    }

    // One tagged Poisson sub-stream per class.
    let sub_streams: Vec<Vec<wisedb_core::ArrivingQuery>> = class_set
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let mut process = PoissonProcess::per_second(RATES[i], mix.clone());
            generate_class_stream(&mut process, n, 0x5EED + i as u64, TenantId(i as u32))
        })
        .collect();

    // Shared fleet: all classes, one service.
    let schedulers: Vec<OnlineScheduler> = trained
        .iter()
        .map(|(m, a)| OnlineScheduler::with_model(m.clone(), a.clone(), online.clone()))
        .collect();
    let multi = MultiScheduler::with_schedulers(class_set.clone(), schedulers, online.clone())
        .expect("class schedulers share the spec");
    let mut shared_svc = wisedb_runtime::WorkloadService::with_multi(
        multi,
        RuntimeConfig {
            online: online.clone(),
            ..RuntimeConfig::default()
        },
    );
    let shared = shared_svc
        .run_stream(&merge_streams(sub_streams.clone()))
        .expect("shared run completes");

    // Isolated fleets: one single-class service per class over its own
    // sub-stream (retagged to the default class — each service knows only
    // one class).
    let isolated: Vec<StreamReport> = class_set
        .iter()
        .zip(&trained)
        .zip(&sub_streams)
        .map(|((_, (model, artifacts)), stream)| {
            let scheduler =
                OnlineScheduler::with_model(model.clone(), artifacts.clone(), online.clone());
            let mut svc = wisedb_runtime::WorkloadService::with_scheduler(
                scheduler,
                RuntimeConfig {
                    online: online.clone(),
                    ..RuntimeConfig::default()
                },
            );
            let solo: Vec<wisedb_core::ArrivingQuery> = stream
                .iter()
                .map(|a| wisedb_core::ArrivingQuery::new(a.template, a.arrival))
                .collect();
            svc.run_stream(&solo).expect("isolated run completes")
        })
        .collect();

    MultiTenantOutcome {
        classes: class_set,
        shared,
        isolated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic_and_conserves_work() {
        let spec = wisedb::sim::catalog::tpch_like(4);
        let a = run(&spec, Scale::Quick);
        assert_eq!(a.classes.len(), 3);
        let n = arrivals_per_class(Scale::Quick) as u64;
        assert_eq!(a.shared.last.completed, 3 * n);
        for (i, iso) in a.isolated.iter().enumerate() {
            assert_eq!(iso.last.completed, n, "class {i}");
        }
        // Per-class rows in the shared run cover the same work as the
        // isolated runs.
        for (row, iso) in a.shared.last.classes.iter().zip(&a.isolated) {
            assert_eq!(row.completed, iso.last.completed);
        }
        let b = run(&spec, Scale::Quick);
        assert_eq!(a.shared.completions, b.shared.completions);
        assert_eq!(a.shared_vms(), b.shared_vms());
        assert_eq!(a.isolated_vms(), b.isolated_vms());
    }
}
