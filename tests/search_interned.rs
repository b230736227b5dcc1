//! Differential tests for the interned A* hot path.
//!
//! The interning refactor (dense state ids, persistent queues, CoW penalty
//! state) must be **observationally invisible**: same optimal schedules,
//! same costs, same search work — only faster. This suite pins that down
//! three ways: fixed goldens on the paper's example workloads, adaptive-vs-
//! fresh equivalence over the id-indexed memo, and a property test
//! comparing A* against brute-force enumeration on small random workloads.

use proptest::prelude::*;

use wisedb::prelude::*;
use wisedb::search::{AdaptiveSearcher, SearchConfig};
use wisedb_core::{total_cost, PenaltyRate, Placement, VmInstance};

fn fig3_spec() -> WorkloadSpec {
    WorkloadSpec::single_vm(
        vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
        VmType::t2_medium(),
    )
    .unwrap()
}

/// Figure 3's workload (q1 of T1, q2–q4 of T2) under its per-query goal:
/// the optimal schedule is scenario 1 — 3 VMs, zero penalty — and the
/// interned searcher must reproduce its exact cost.
#[test]
fn golden_figure_three_cost_is_bit_identical() {
    let spec = fig3_spec();
    let goal = PerformanceGoal::PerQuery {
        deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
        rate: PenaltyRate::CENT_PER_SECOND,
    };
    let workload = Workload::from_counts(&[1, 3]);
    let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
    assert!(result.stats.optimal);
    assert_eq!(result.schedule.num_vms(), 3);
    // 3 start-ups + 5 query-minutes of t2.medium, no penalty — the value
    // the pre-refactor searcher returned.
    let expected = Money::from_dollars(3.0 * 0.0008 + 0.052 * 5.0 / 60.0);
    assert!(
        result.cost.approx_eq(expected, 1e-9),
        "cost {} != golden {}",
        result.cost,
        expected
    );
    // The interner saw every distinct vertex; work counters are coherent.
    assert!(result.stats.interned > 0);
    assert!(result.stats.interned <= result.stats.generated + 1);
    assert!(result.stats.expanded <= result.stats.generated + 1);
}

/// §3's three-template example: the optimal schedule interleaves
/// T1+T2+T3 per VM, fitting 2 VMs with zero penalty where FFD/FFI use 3.
#[test]
fn golden_section_three_interleaving() {
    let spec = WorkloadSpec::single_vm(
        vec![
            ("T1", Millis::from_mins(4)),
            ("T2", Millis::from_mins(3)),
            ("T3", Millis::from_mins(2)),
        ],
        VmType::t2_medium(),
    )
    .unwrap();
    let goal = PerformanceGoal::MaxLatency {
        deadline: Millis::from_mins(9),
        rate: PenaltyRate::CENT_PER_SECOND,
    };
    let workload = Workload::from_counts(&[2, 2, 2]);
    let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
    result.schedule.validate_complete(&workload).unwrap();
    assert_eq!(result.schedule.num_vms(), 2);
    // 2 start-ups + 18 query-minutes, zero penalty.
    let expected = Money::from_dollars(2.0 * 0.0008 + 0.052 * 18.0 / 60.0);
    assert!(result.cost.approx_eq(expected, 1e-9));
}

/// Fixed-seed goldens across all four goal kinds on the experiment
/// catalog: the reported cost must match both the analytic Eq. 1 cost of
/// the returned schedule and an independent brute-force enumeration.
#[test]
fn golden_catalog_costs_match_brute_force_for_every_goal() {
    let spec = wisedb::sim::catalog::tpch_like(4);
    let workload = wisedb::sim::generator::uniform_workload(&spec, 5, 1234);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec)
            .unwrap()
            .tighten_pct(&spec, 0.6);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(result.stats.optimal, "{kind:?}");
        result.schedule.validate_complete(&workload).unwrap();
        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        assert!(
            result.cost.approx_eq(analytic, 1e-9),
            "{kind:?}: reported {} vs analytic {}",
            result.cost,
            analytic
        );
        let brute = brute_force_best(&spec, &goal, &workload);
        assert!(
            result.cost.approx_eq(brute, 1e-9),
            "{kind:?}: A* {} vs brute force {}",
            result.cost,
            brute
        );
    }
}

/// The id-indexed adaptive memo must leave results identical to fresh
/// searches while never expanding more vertices.
#[test]
fn adaptive_memo_is_equivalent_and_no_slower() {
    let spec = fig3_spec();
    let workload = Workload::from_counts(&[3, 3]);
    for kind in [GoalKind::MaxLatency, GoalKind::PerQuery] {
        let base = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let mut adaptive = AdaptiveSearcher::new();
        for pct in [0.0, 0.3, 0.6, 0.9] {
            let goal = base.tighten_pct(&spec, pct);
            let reused = adaptive
                .solve(&spec, &goal, &workload, SearchConfig::default())
                .unwrap();
            let fresh = Solver::new(&spec, &goal).solve(&workload).unwrap();
            assert!(
                reused.cost.approx_eq(fresh.cost, 1e-9),
                "{kind:?}@{pct}: adaptive {} vs fresh {}",
                reused.cost,
                fresh.cost
            );
            assert!(
                reused.stats.expanded <= fresh.stats.expanded,
                "{kind:?}@{pct}"
            );
        }
        assert!(adaptive.memo_len() > 0);
    }
}

/// Exhaustively enumerates every partition of the workload into ordered
/// VM queues (single VM type) and returns the best Eq. 1 cost.
fn brute_force_best(spec: &WorkloadSpec, goal: &PerformanceGoal, workload: &Workload) -> Money {
    fn go(
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        remaining: &mut Vec<Query>,
        schedule: &mut Schedule,
        best: &mut Money,
    ) {
        if remaining.is_empty() {
            let c = total_cost(spec, goal, schedule).unwrap();
            if c < *best {
                *best = c;
            }
            return;
        }
        for i in 0..remaining.len() {
            let q = remaining.remove(i);
            for v in 0..schedule.vms.len() {
                schedule.vms[v].queue.push(Placement {
                    query: q.id,
                    template: q.template,
                });
                go(spec, goal, remaining, schedule, best);
                schedule.vms[v].queue.pop();
            }
            schedule.vms.push(VmInstance::new(VmTypeId(0)));
            schedule.vms.last_mut().unwrap().queue.push(Placement {
                query: q.id,
                template: q.template,
            });
            go(spec, goal, remaining, schedule, best);
            schedule.vms.pop();
            remaining.insert(i, q);
        }
    }
    let mut remaining: Vec<Query> = workload.queries().to_vec();
    let mut schedule = Schedule::empty();
    let mut best = Money::from_dollars(f64::INFINITY);
    go(spec, goal, &mut remaining, &mut schedule, &mut best);
    best
}

/// A small random spec: 2–3 templates, 30 s – 5 min latencies, one VM type.
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    proptest::collection::vec(30u64..300, 2..=3).prop_map(|secs| {
        WorkloadSpec::single_vm(
            secs.into_iter()
                .enumerate()
                .map(|(i, s)| (format!("T{}", i + 1), Millis::from_secs(s)))
                .collect::<Vec<_>>(),
            VmType::t2_medium(),
        )
        .unwrap()
    })
}

fn arb_goal(spec: &WorkloadSpec) -> impl Strategy<Value = PerformanceGoal> {
    let latencies: Vec<Millis> = spec
        .templates()
        .iter()
        .map(|t| t.min_latency().unwrap())
        .collect();
    let longest = latencies.iter().copied().max().unwrap();
    let mean = latencies.iter().copied().sum::<Millis>() / latencies.len() as u64;
    prop_oneof![
        (11u64..35).prop_map({
            let latencies = latencies.clone();
            move |f| PerformanceGoal::PerQuery {
                deadlines: latencies
                    .iter()
                    .map(|l| l.mul_f64(f as f64 / 10.0))
                    .collect(),
                rate: PenaltyRate::CENT_PER_SECOND,
            }
        }),
        (11u64..35).prop_map(move |f| PerformanceGoal::MaxLatency {
            deadline: longest.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
        (11u64..35).prop_map(move |f| PerformanceGoal::AverageLatency {
            target: mean.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
        ((11u64..35), (50.0f64..100.0)).prop_map(move |(f, p)| PerformanceGoal::Percentile {
            percent: p,
            deadline: mean.mul_f64(f as f64 / 10.0),
            rate: PenaltyRate::CENT_PER_SECOND,
        }),
    ]
}

/// (spec, goal, counts) with 1–5 queries — small enough for the
/// brute-force enumerator.
fn arb_instance() -> impl Strategy<Value = (WorkloadSpec, PerformanceGoal, Vec<u32>)> {
    arb_spec().prop_flat_map(|spec| {
        let nt = spec.num_templates();
        let goal = arb_goal(&spec);
        let counts = proptest::collection::vec(0u32..=2, nt).prop_filter("1..=5 queries", |c| {
            let total: u32 = c.iter().sum();
            total > 0 && total <= 5
        });
        (Just(spec), goal, counts)
    })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 20, .. ProptestConfig::default()
    })]

    /// The interned A* finds the brute-force optimum on random small
    /// workloads under every goal kind.
    #[test]
    fn interned_astar_matches_brute_force((spec, goal, counts) in arb_instance()) {
        let workload = Workload::from_counts(&counts);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        prop_assert!(result.stats.optimal);
        result.schedule.validate_complete(&workload).unwrap();
        let brute = brute_force_best(&spec, &goal, &workload);
        prop_assert!(
            result.cost.approx_eq(brute, 1e-9),
            "A* {} vs brute {}", result.cost, brute
        );
        // Reported cost always agrees with the analytic model.
        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        prop_assert!(result.cost.approx_eq(analytic, 1e-9));
    }
}
