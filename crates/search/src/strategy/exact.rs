//! Exact A* — the paper's search (§4.3), extracted from the historical
//! monolith bit-for-bit.
//!
//! A path from the start vertex (everything unassigned) to any goal vertex
//! (nothing unassigned) spells out a complete schedule, and its weight is
//! exactly `cost(R, S)` — so the shortest path *is* the optimal schedule.
//!
//! The searcher tolerates negative placement edges (average-latency goals
//! can refund penalty when a fast query lowers the mean) by allowing node
//! reopening; because every placement consumes a query and start-ups
//! require a non-empty previous VM, the graph is a finite DAG and the
//! search always terminates. With an admissible heuristic, the first goal
//! vertex *popped* is optimal even when the heuristic is inconsistent.
//!
//! ## Interned hot path
//!
//! Every distinct vertex is interned to a dense `u32` id on first sight, so
//! the per-expansion tables — best-known g, the cached heuristic value, and
//! the explored set — are flat `Vec`s indexed by id, and the vertex itself
//! is that id's key in the interner's flat storage: expanding a node
//! prices, keys, interns, dedups, bounds and prunes each successor without
//! allocating (see `common`, shared with anytime search).
//! The [`SearchStats::interned`] counter exposes the dedup-table size.

use std::collections::BinaryHeap;

use wisedb_core::Money;

use crate::state::SearchState;

use super::common::{expand, HeapEntry, PruneRule, SearchCx, Tables, G_EPS};
use super::{ExploredStates, SearchOutcome, SearchStats};

/// Runs exact A* from `initial` under `cx.config.node_limit` expansions.
/// When `keep_explored` is set, the returned [`ExploredStates`] carries
/// the settled g-values for adaptive reuse.
pub(crate) fn search(
    cx: &SearchCx<'_>,
    initial: SearchState,
    keep_explored: bool,
) -> (SearchOutcome, ExploredStates) {
    let mut stats = SearchStats {
        optimal: true,
        ..SearchStats::default()
    };

    let (mut t, h0) = Tables::init(cx, initial);
    let mut open = BinaryHeap::new();
    open.push(HeapEntry {
        f: h0,
        g: 0.0,
        idx: 0,
    });

    // A quick greedy completion bounds the optimum from above: any
    // vertex whose f exceeds it can never be on an optimal path. Kept
    // whole — it doubles as the budget-exit fallback schedule.
    let greedy = cx.greedy_completion(&t.root, stats);
    let upper_bound = greedy.cost.as_dollars() + G_EPS;

    // Incumbent: best goal vertex generated so far, as a fallback when
    // the expansion budget is hit.
    let mut incumbent: Option<(usize, f64)> = None;
    let mut successors = Vec::new();

    while let Some(entry) = open.pop() {
        let node = t.arena[entry.idx];
        let sid = node.sid;
        if entry.g > t.best_g[sid as usize] + G_EPS {
            continue; // stale entry
        }

        if node.remaining == 0 {
            let steps = t.reconstruct(cx, entry.idx);
            stats.expanded += 1;
            stats.interned = t.interner.len() as u64;
            stats.bound = 1.0;
            return (
                SearchOutcome {
                    steps,
                    cost: Money::from_dollars(entry.g),
                    stats,
                },
                t.finish_explored(),
            );
        }

        // The expansion budget: `node_limit` counts vertices actually
        // expanded (popped and given successors) — `generated` and
        // `interned` routinely exceed it. Checked *before* expanding,
        // so a limited search performs exactly `node_limit`
        // expansions, reports `limit_hit`, and falls back to its
        // incumbent with a sound suboptimality bound from the
        // still-open frontier.
        if stats.expanded as usize >= cx.config.node_limit {
            stats.optimal = false;
            stats.limit_hit = true;
            stats.interned = t.interner.len() as u64;
            // `entry` was popped but not expanded: put it back so the
            // frontier lower bound sees it.
            open.push(entry);
            let lb = open_lower_bound(&open, &t).max(h0);
            let mut outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
            outcome.stats.bound = suboptimality(outcome.cost, lb);
            return (outcome, t.finish_explored());
        }

        stats.expanded += 1;
        if keep_explored {
            t.record_explored(sid, entry.g);
        }

        expand(
            cx,
            &mut t,
            &mut stats,
            entry.idx,
            entry.g,
            PruneRule::Above(upper_bound),
            &mut successors,
        );
        for s in &successors {
            if s.is_goal {
                match incumbent {
                    Some((_, best)) if best <= s.g => {}
                    _ => {
                        incumbent = Some((s.idx, s.g));
                        stats.incumbents += 1;
                    }
                }
            }
            open.push(HeapEntry {
                f: s.g + s.h,
                g: s.g,
                idx: s.idx,
            });
        }
    }

    // Open list exhausted without popping a goal: only possible if no
    // complete schedule exists, which spec validation rules out — but
    // return the incumbent defensively.
    stats.optimal = false;
    stats.interned = t.interner.len() as u64;
    let outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
    (outcome, t.finish_explored())
}

/// Best complete schedule available when a search stops early: the
/// incumbent goal vertex if one was generated, otherwise (or if cheaper)
/// the greedy completion computed at search start — an incumbent
/// generated early in a limited search can be dreadful. `stats` replaces
/// the stale snapshot embedded in the greedy outcome.
fn fallback_result(
    cx: &SearchCx<'_>,
    t: &Tables,
    incumbent: Option<(usize, f64)>,
    greedy: &SearchOutcome,
    stats: SearchStats,
) -> SearchOutcome {
    if let Some((idx, g)) = incumbent {
        if g <= greedy.cost.as_dollars() {
            return SearchOutcome {
                steps: t.reconstruct(cx, idx),
                cost: Money::from_dollars(g),
                stats,
            };
        }
    }
    SearchOutcome {
        steps: greedy.steps.clone(),
        cost: greedy.cost,
        stats,
    }
}

/// A sound lower bound on the optimal cost from the still-open frontier:
/// with an admissible heuristic, some open vertex on every optimal path
/// carries `g + h ≤ C*`, so the minimum over open non-stale entries cannot
/// exceed the optimum. (Stale entries — a better path to their vertex is
/// already known — are skipped; that only tightens the bound.)
pub(crate) fn open_lower_bound(open: &BinaryHeap<HeapEntry>, t: &Tables) -> f64 {
    let mut lb = f64::INFINITY;
    for entry in open.iter() {
        let sid = t.arena[entry.idx].sid as usize;
        if entry.g > t.best_g[sid] + G_EPS {
            continue;
        }
        let f = entry.g + t.h_cache[sid];
        if f < lb {
            lb = f;
        }
    }
    lb
}

/// `cost / lb` clamped to ≥ 1, or infinity when no positive finite lower
/// bound is available.
pub(crate) fn suboptimality(cost: Money, lb: f64) -> f64 {
    let cost = cost.as_dollars();
    if lb.is_finite() && lb > 0.0 {
        (cost / lb).max(1.0)
    } else if cost <= 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use wisedb_core::{
        total_cost, Millis, Money, PenaltyRate, PerformanceGoal, Schedule, VmInstance, VmType,
        Workload, WorkloadSpec,
    };

    use crate::decision::Decision;
    use crate::strategy::{SearchConfig, Solver};

    fn fig3_spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn fig3_goal() -> PerformanceGoal {
        PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        }
    }

    #[test]
    fn empty_workload_is_trivial() {
        let spec = fig3_spec();
        let goal = fig3_goal();
        let result = Solver::new(&spec, &goal).solve(&Workload::empty()).unwrap();
        assert_eq!(result.cost, Money::ZERO);
        assert_eq!(result.schedule.num_vms(), 0);
    }

    #[test]
    fn figure_three_workload_finds_scenario_one() {
        // Q = {q1(T1), q2..q4(T2)}: the optimal schedule uses 3 VMs — T2
        // queries cannot share a VM without penalty, but one T2 and the T1
        // can (T2 first completes at 1m, T1 at 3m).
        let spec = fig3_spec();
        let goal = fig3_goal();
        let workload = Workload::from_counts(&[1, 3]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(result.stats.optimal);
        assert_eq!(result.stats.bound, 1.0);
        result.schedule.validate_complete(&workload).unwrap();
        assert_eq!(result.schedule.num_vms(), 3);
        // No penalties: cost = 3 startups + 5 query-minutes.
        let expected = Money::from_dollars(3.0 * 0.0008 + 0.052 * 5.0 / 60.0);
        assert!(result.cost.approx_eq(expected, 1e-9));
        // Reported cost agrees with the analytic cost model.
        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        assert!(result.cost.approx_eq(analytic, 1e-9));
    }

    /// §3's three-template example: FFD uses 3 VMs with a 9-minute bound,
    /// FFI also needs 3, but interleaving T1+T2+T3 per VM fits in 2 VMs.
    #[test]
    fn section_three_example_beats_both_greedy_heuristics() {
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
        // S' = {[T1,T2,T3], [T1,T2,T3]}: two VMs, zero penalty.
        assert_eq!(result.schedule.num_vms(), 2);
        let breakdown = wisedb_core::cost_breakdown(&spec, &goal, &result.schedule).unwrap();
        assert_eq!(breakdown.penalty, Money::ZERO);
    }

    #[test]
    fn average_goal_with_negative_edges_still_optimal() {
        let spec = fig3_spec();
        let goal = PerformanceGoal::AverageLatency {
            target: Millis::from_secs(90),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let workload = Workload::from_counts(&[2, 2]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(result.stats.optimal);
        result.schedule.validate_complete(&workload).unwrap();
        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        assert!(result.cost.approx_eq(analytic, 1e-9));

        let ffd_like = {
            // All four queries on one VM.
            let mut s = Schedule::empty();
            s.vms.push(VmInstance::new(wisedb_core::VmTypeId(0)));
            for q in workload.queries() {
                s.vms[0].queue.push(wisedb_core::Placement {
                    query: q.id,
                    template: q.template,
                });
            }
            total_cost(&spec, &goal, &s).unwrap()
        };
        assert!(result.cost <= ffd_like + Money::from_dollars(1e-9));
    }

    #[test]
    fn percentile_goal_solves() {
        let spec = fig3_spec();
        let goal = PerformanceGoal::Percentile {
            percent: 50.0,
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let workload = Workload::from_counts(&[2, 2]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        assert!(result.stats.optimal);
        result.schedule.validate_complete(&workload).unwrap();
        let analytic = total_cost(&spec, &goal, &result.schedule).unwrap();
        assert!(result.cost.approx_eq(analytic, 1e-9));
    }

    #[test]
    fn steps_replay_to_the_returned_schedule() {
        let spec = fig3_spec();
        let goal = fig3_goal();
        let workload = Workload::from_counts(&[2, 1]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        // One step per VM + one per query.
        assert_eq!(
            result.steps.len(),
            result.schedule.num_vms() + workload.len()
        );
        // First step is always a start-up (footnote 3 of the paper).
        assert!(matches!(result.steps[0].decision, Decision::CreateVm(_)));
        // Replaying weights reproduces the cost.
        let mut cost = Money::ZERO;
        for step in &result.steps {
            let w = step.state.edge_weight(&spec, &goal, step.decision).unwrap();
            cost += w;
        }
        assert!(cost.approx_eq(result.cost, 1e-9));
    }

    #[test]
    fn node_limit_falls_back_to_a_complete_schedule() {
        let spec = fig3_spec();
        let goal = fig3_goal();
        let workload = Workload::from_counts(&[3, 3]);
        let result = Solver::new(&spec, &goal)
            .with_config(SearchConfig {
                node_limit: 2,
                ..SearchConfig::default()
            })
            .solve(&workload)
            .unwrap();
        assert!(!result.stats.optimal);
        // The budget outcome is observable, not a silent fallback: the
        // limit counts expansions (exactly `node_limit` of them), and the
        // frontier still certifies a finite suboptimality bound.
        assert!(result.stats.limit_hit);
        assert_eq!(result.stats.expanded, 2);
        assert!(result.stats.bound.is_finite());
        assert!(result.stats.bound >= 1.0);
        result.schedule.validate_complete(&workload).unwrap();
    }

    #[test]
    fn multi_vm_type_prefers_cheap_vm_for_cheap_queries() {
        // T1 runs identically on both types; the small type is half price.
        let spec = WorkloadSpec::new(
            vec![wisedb_core::QueryTemplate::uniform(
                "T1",
                vec![Millis::from_mins(1), Millis::from_mins(1)],
            )],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let workload = Workload::from_counts(&[2]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        // Every rented VM should be the cheap type.
        for vm in &result.schedule.vms {
            assert_eq!(vm.vm_type, wisedb_core::VmTypeId(1));
        }
    }

    #[test]
    fn brute_force_agreement_on_tiny_instances() {
        // Cross-check A* against exhaustive enumeration of all schedules
        // for a 3-query workload under every goal kind.
        let spec = fig3_spec();
        let workload = Workload::from_counts(&[1, 2]);
        for kind in wisedb_core::GoalKind::ALL {
            let goal = PerformanceGoal::paper_default(kind, &spec)
                .unwrap()
                .tighten_pct(&spec, 0.5);
            let astar = Solver::new(&spec, &goal).solve(&workload).unwrap();
            let brute = brute_force_best(&spec, &goal, &workload);
            assert!(
                astar.cost.approx_eq(brute, 1e-9),
                "{kind:?}: A*={} brute={}",
                astar.cost,
                brute
            );
        }
    }

    /// Exhaustively enumerates every partition of the workload into ordered
    /// VM queues (single VM type) and returns the best cost.
    fn brute_force_best(spec: &WorkloadSpec, goal: &PerformanceGoal, workload: &Workload) -> Money {
        fn go(
            spec: &WorkloadSpec,
            goal: &PerformanceGoal,
            remaining: &mut Vec<wisedb_core::Query>,
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
                // Place onto each existing VM...
                for v in 0..schedule.vms.len() {
                    schedule.vms[v].queue.push(wisedb_core::Placement {
                        query: q.id,
                        template: q.template,
                    });
                    go(spec, goal, remaining, schedule, best);
                    schedule.vms[v].queue.pop();
                }
                // ...or a fresh VM.
                schedule.vms.push(VmInstance::new(wisedb_core::VmTypeId(0)));
                schedule
                    .vms
                    .last_mut()
                    .unwrap()
                    .queue
                    .push(wisedb_core::Placement {
                        query: q.id,
                        template: q.template,
                    });
                go(spec, goal, remaining, schedule, best);
                schedule.vms.pop();
                remaining.insert(i, q);
            }
        }
        let mut remaining: Vec<wisedb_core::Query> = workload.queries().to_vec();
        let mut schedule = Schedule::empty();
        let mut best = Money::from_dollars(f64::INFINITY);
        go(spec, goal, &mut remaining, &mut schedule, &mut best);
        best
    }

    #[test]
    fn placement_only_on_last_vm_shapes_steps() {
        let spec = fig3_spec();
        let goal = fig3_goal();
        let workload = Workload::from_counts(&[2, 2]);
        let result = Solver::new(&spec, &goal).solve(&workload).unwrap();
        // After a CreateVm, the previous VM never grows again: queue sizes
        // in the final schedule match the step sequence's run lengths.
        let mut runs = Vec::new();
        let mut current = 0usize;
        let mut seen_vm = false;
        for step in &result.steps {
            match step.decision {
                Decision::CreateVm(_) => {
                    if seen_vm {
                        runs.push(current);
                    }
                    seen_vm = true;
                    current = 0;
                }
                Decision::Place(_) => current += 1,
            }
        }
        runs.push(current);
        let queue_sizes: Vec<usize> = result
            .schedule
            .vms
            .iter()
            .map(|vm| vm.queue.len())
            .collect();
        assert_eq!(runs, queue_sizes);
    }
}
