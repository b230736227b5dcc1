//! The batch executor against first principles: random schedules run
//! through `sim::execute` and are checked against a replay computed here,
//! query by query. Each VM runs its queue back to back from t = 0, so a
//! query's start is the prefix sum of the execution times ahead of it on
//! its VM, and the bill is Eq. 1 (start-up fees, rental for busy time,
//! the goal's penalty on the finish times).

use proptest::prelude::*;

use wisedb::prelude::*;
use wisedb::sim::{self, SimOptions};
use wisedb_core::{Placement, QueryLatency, VmInstance};

fn arb_goal_kind() -> impl Strategy<Value = GoalKind> {
    prop_oneof![
        Just(GoalKind::PerQuery),
        Just(GoalKind::MaxLatency),
        Just(GoalKind::AverageLatency),
        Just(GoalKind::Percentile),
    ]
}

/// Per-template latencies (ms) on `t2.medium`, plus `t2.small` when
/// `two_types`.
fn spec_of(latencies: &[(u64, u64)], two_types: bool) -> WorkloadSpec {
    let mut types = vec![VmType::t2_medium()];
    if two_types {
        types.push(VmType::t2_small());
    }
    let templates = latencies
        .iter()
        .enumerate()
        .map(|(i, &(medium, small))| QueryTemplate {
            name: format!("T{}", i + 1),
            latencies: [medium, small][..types.len()]
                .iter()
                .map(|&ms| Some(Millis::from_millis(ms)))
                .collect(),
        })
        .collect();
    WorkloadSpec::new(templates, types).unwrap()
}

/// VMs of the given types. Pick `i` puts a query of template `picks[i].0`
/// at the back of VM `picks[i].1` (both reduced modulo the choices). Query
/// ids follow the order of `picks[i].2`, so a queue need not be in id
/// order.
fn schedule_of(spec: &WorkloadSpec, vm_types: &[u32], picks: &[(usize, usize, u32)]) -> Schedule {
    let types = spec.num_vm_types() as u32;
    let mut vms: Vec<VmInstance> = vm_types
        .iter()
        .map(|&t| VmInstance::new(VmTypeId(t % types)))
        .collect();
    let rank = |i: usize| {
        (0..picks.len())
            .filter(|&j| (picks[j].2, j) < (picks[i].2, i))
            .count()
    };
    for (i, &(t, v, _)) in picks.iter().enumerate() {
        vms[v % vm_types.len()].queue.push(Placement {
            query: QueryId(rank(i) as u32),
            template: TemplateId((t % spec.num_templates()) as u32),
        });
    }
    Schedule { vms }
}

/// One executed query as the replay predicts it.
#[derive(Debug, PartialEq, Eq)]
struct Expected {
    query: QueryId,
    template: TemplateId,
    vm_index: usize,
    start: Millis,
    finish: Millis,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256, .. ProptestConfig::default()
    })]

    /// Per-query start/finish are exact prefix sums over each VM's queue
    /// (true latencies where given, predictions elsewhere), per-VM busy
    /// time is exact, and the bill is Eq. 1 to within 1e-9 dollars.
    #[test]
    fn execute_matches_the_prefix_sum_replay_and_eq1(
        latencies in collection::vec((1_000u64..600_000, 1_000u64..900_000), 1..=4),
        two_types in prop_oneof![Just(false), Just(true)],
        kind in arb_goal_kind(),
        vm_types in collection::vec(0u32..2, 1..=5),
        picks in collection::vec((0usize..64, 0usize..64, 0u32..64), 0..=14),
        // Zero-length runs are drawn often: they tie on start and finish.
        truth in prop_oneof![
            Just(None),
            collection::vec(prop_oneof![Just(0u64), 0u64..400_000], 0..=14).prop_map(Some),
        ],
    ) {
        let spec = spec_of(&latencies, two_types);
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let schedule = schedule_of(&spec, &vm_types, &picks);
        // A prefix of the queries carries a true latency; the rest run at
        // the prediction.
        let true_latencies: Option<Vec<Millis>> =
            truth.map(|ms| ms.into_iter().map(Millis::from_millis).collect());
        let options = SimOptions {
            true_latencies: true_latencies.clone(),
        };
        let trace = sim::execute(&spec, &schedule, &options).unwrap();

        let mut expected = Vec::new();
        let mut eq1 = Money::ZERO;
        prop_assert_eq!(trace.vms.len(), schedule.vms.len());
        for (vm_index, vm) in schedule.vms.iter().enumerate() {
            let vm_type = spec.vm_type(vm.vm_type).unwrap();
            let mut clock = Millis::ZERO;
            for p in &vm.queue {
                let exec = true_latencies
                    .as_ref()
                    .and_then(|t| t.get(p.query.index()).copied())
                    .unwrap_or_else(|| spec.latency(p.template, vm.vm_type).unwrap());
                expected.push(Expected {
                    query: p.query,
                    template: p.template,
                    vm_index,
                    start: clock,
                    finish: clock + exec,
                });
                clock += exec;
            }
            // Back to back from zero: busy time is the last finish.
            let billed = &trace.vms[vm_index];
            prop_assert_eq!(billed.vm_type, vm.vm_type);
            prop_assert_eq!(billed.busy, clock);
            prop_assert!(billed.rental_cost.approx_eq(vm_type.runtime_cost(clock), 1e-9));
            prop_assert!(billed.startup_cost.approx_eq(vm_type.startup_cost, 1e-9));
            eq1 += vm_type.startup_cost + vm_type.runtime_cost(clock);
        }

        let executed: Vec<Expected> = trace
            .queries
            .iter()
            .map(|q| Expected {
                query: q.query,
                template: q.template,
                vm_index: q.vm_index,
                start: q.start,
                finish: q.finish,
            })
            .collect();
        prop_assert_eq!(&executed, &expected);
        let latencies: Vec<QueryLatency> = expected
            .iter()
            .map(|e| QueryLatency { query: e.query, template: e.template, latency: e.finish })
            .collect();
        prop_assert_eq!(trace.latencies(), latencies.clone());
        let makespan = expected.iter().map(|e| e.finish).max().unwrap_or(Millis::ZERO);
        prop_assert_eq!(trace.makespan(), makespan);

        eq1 += goal.penalty(&latencies);
        let realized = trace.total_cost(&goal);
        prop_assert!(realized.approx_eq(eq1, 1e-9), "executed {realized} vs Eq. 1 {eq1}");
        if true_latencies.is_none() {
            let analytic = total_cost(&spec, &goal, &schedule).unwrap();
            prop_assert!(realized.approx_eq(analytic, 1e-9), "executed {realized} vs {analytic}");
        }
    }
}
