//! Batch execution: a finished [`Schedule`] replayed on the
//! [`LiveCluster`] simulator and billed.
//!
//! [`execute`] provisions each of the schedule's VMs at t = 0 on a session
//! of its own, queues its queue in order and drains the session (see
//! [`live`](crate::live) for the execution semantics). With the predictions as execution times the
//! realized cost is exactly the analytic Eq. 1 cost; Figure 22 passes true
//! latencies instead, to price what prediction error costs for real.

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreResult, CostBreakdown, Millis, Money, PerformanceGoal, QueryLatency, Schedule, SpecHandle,
    TenantId, VmTypeId, WorkloadSpec,
};

use crate::live::{Completion, LiveCluster, LiveOptions};

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// True execution latency per query (indexed by [`QueryId`]), when the
    /// truth differs from the template prediction (Figure 22's setting).
    /// Queries past the end of the vector run at the prediction.
    ///
    /// [`QueryId`]: wisedb_core::QueryId
    pub true_latencies: Option<Vec<Millis>>,
}

/// What happened to one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmTrace {
    /// The rented type.
    pub vm_type: VmTypeId,
    /// Total execution time performed. The VM runs its queue back to back
    /// from t = 0, so this is also when it is released.
    pub busy: Millis,
    /// Start-up fee paid.
    pub startup_cost: Money,
    /// Rental charged.
    pub rental_cost: Money,
}

/// A full execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Per-query outcomes, in schedule order. A batch arrives at t = 0, so
    /// each query's SLA latency is its `finish`.
    pub queries: Vec<Completion>,
    /// Per-VM outcomes, in provisioning order.
    pub vms: Vec<VmTrace>,
}

impl ExecutionTrace {
    /// The realized SLA latencies, ready for penalty computation.
    pub fn latencies(&self) -> Vec<QueryLatency> {
        self.queries
            .iter()
            .map(|q| QueryLatency {
                query: q.query,
                template: q.template,
                latency: q.finish,
            })
            .collect()
    }

    /// Cost breakdown: start-up fees, rental, and penalty.
    pub fn breakdown(&self, goal: &PerformanceGoal) -> CostBreakdown {
        let startup: Money = self.vms.iter().map(|v| v.startup_cost).sum();
        let rental: Money = self.vms.iter().map(|v| v.rental_cost).sum();
        CostBreakdown {
            startup,
            runtime: rental,
            penalty: goal.penalty(&self.latencies()),
        }
    }

    /// Total realized cost.
    pub fn total_cost(&self, goal: &PerformanceGoal) -> Money {
        self.breakdown(goal).total()
    }

    /// When the last query finished.
    pub fn makespan(&self) -> Millis {
        self.queries
            .iter()
            .map(|q| q.finish)
            .max()
            .unwrap_or(Millis::ZERO)
    }
}

/// Executes `schedule` on the simulated cluster.
pub fn execute(
    spec: &WorkloadSpec,
    schedule: &Schedule,
    options: &SimOptions,
) -> CoreResult<ExecutionTrace> {
    let handle = SpecHandle::from(spec.clone());
    let truth = |i: usize| options.true_latencies.as_ref()?.get(i).copied();
    let mut queries = Vec::with_capacity(schedule.num_queries());
    let mut vms = Vec::with_capacity(schedule.num_vms());
    // Every VM starts at t = 0 and shares nothing with the others, so each
    // runs on a session of its own: the replay holds one VM's state at a
    // time, not the whole schedule's.
    for (vm_index, vm) in schedule.vms.iter().enumerate() {
        let mut cluster = LiveCluster::new(handle.clone(), LiveOptions::default());
        let index = cluster.provision(vm.vm_type)?;
        for p in &vm.queue {
            let exec = truth(p.query.index());
            cluster.enqueue_timed(index, p.query, p.template, TenantId::DEFAULT, exec)?;
        }
        // The drain reports in finish order. A queue that runs back to back
        // is in (start, finish) order; only zero-length runs tie, and tied
        // entries share their times.
        let mut done = cluster.drain();
        done.sort_unstable_by_key(|c| (c.start, c.finish));
        let mut busy = Millis::ZERO;
        for (p, c) in vm.queue.iter().zip(done) {
            busy += c.finish - c.start;
            queries.push(Completion {
                query: p.query,
                template: p.template,
                vm_index,
                ..c
            });
        }
        let vm_type = spec.vm_type(vm.vm_type)?;
        vms.push(VmTrace {
            vm_type: vm.vm_type,
            busy,
            startup_cost: vm_type.startup_cost,
            rental_cost: vm_type.runtime_cost(busy),
        });
    }
    Ok(ExecutionTrace { queries, vms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{tpch_like, tpch_like_two_types};
    use crate::generator::uniform_workload;
    use wisedb_core::{
        total_cost, CoreError, GoalKind, Placement, QueryId, TemplateId, VmInstance, Workload,
    };
    use wisedb_search::Solver;

    fn simple_schedule(_spec: &WorkloadSpec, workload: &Workload) -> Schedule {
        // Everything on one VM of type 0 in workload order.
        let mut vm = VmInstance::new(VmTypeId(0));
        for q in workload.queries() {
            vm.queue.push(Placement {
                query: q.id,
                template: q.template,
            });
        }
        Schedule { vms: vec![vm] }
    }

    #[test]
    fn default_options_match_analytic_cost() {
        let spec = tpch_like(10);
        let workload = uniform_workload(&spec, 12, 3);
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let schedule = Solver::new(&spec, &goal).solve(&workload).unwrap().schedule;
        let trace = execute(&spec, &schedule, &SimOptions::default()).unwrap();
        let simulated = trace.total_cost(&goal);
        let analytic = total_cost(&spec, &goal, &schedule).unwrap();
        assert!(
            simulated.approx_eq(analytic, 1e-9),
            "simulated {simulated} != analytic {analytic}"
        );
    }

    #[test]
    fn queries_run_sequentially_per_vm() {
        let spec = tpch_like(3);
        let workload = Workload::from_counts(&[2, 1, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let trace = execute(&spec, &schedule, &SimOptions::default()).unwrap();
        assert_eq!(trace.queries.len(), 3);
        for w in trace.queries.windows(2) {
            assert_eq!(w[1].start, w[0].finish);
        }
        assert_eq!(trace.makespan(), trace.queries.last().unwrap().finish);
        assert_eq!(trace.vms[0].busy, trace.makespan());
    }

    #[test]
    fn true_latencies_override_predictions() {
        let spec = tpch_like(2);
        let workload = Workload::from_counts(&[1, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let opts = SimOptions {
            true_latencies: Some(vec![Millis::from_secs(999)]),
        };
        let trace = execute(&spec, &schedule, &opts).unwrap();
        assert_eq!(trace.latencies()[0].latency, Millis::from_secs(999));
        // Billing follows the true execution time, not the prediction.
        let expected = spec.vm_types()[0].runtime_cost(Millis::from_secs(999));
        assert!(trace.vms[0].rental_cost.approx_eq(expected, 1e-12));
    }

    #[test]
    fn multi_type_schedule_bills_each_type() {
        let spec = tpch_like_two_types(4);
        let schedule = Schedule {
            vms: vec![
                VmInstance {
                    vm_type: VmTypeId(0),
                    queue: vec![Placement {
                        query: QueryId(0),
                        template: TemplateId(0),
                    }],
                },
                VmInstance {
                    vm_type: VmTypeId(1),
                    queue: vec![Placement {
                        query: QueryId(1),
                        template: TemplateId(0),
                    }],
                },
            ],
        };
        let trace = execute(&spec, &schedule, &SimOptions::default()).unwrap();
        // Same template, but the small VM runs it slower & cheaper per hour.
        assert!(trace.vms[1].busy > trace.vms[0].busy);
        assert!(trace.vms[1].rental_cost < trace.vms[0].rental_cost * 1.2);
    }

    #[test]
    fn unsupported_placement_is_an_error() {
        let spec = wisedb_core::WorkloadSpec::new(
            vec![wisedb_core::QueryTemplate {
                name: "medium-only".into(),
                latencies: vec![Some(Millis::from_mins(1)), None],
            }],
            vec![
                wisedb_core::VmType::t2_medium(),
                wisedb_core::VmType::t2_small(),
            ],
        )
        .unwrap();
        let schedule = Schedule {
            vms: vec![VmInstance {
                vm_type: VmTypeId(1),
                queue: vec![Placement {
                    query: QueryId(0),
                    template: TemplateId(0),
                }],
            }],
        };
        assert!(matches!(
            execute(&spec, &schedule, &SimOptions::default()),
            Err(CoreError::UnsupportedPlacement { .. })
        ));
    }
}
