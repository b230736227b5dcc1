//! The cluster execution simulator: WiSeDB's "IaaS provider".
//!
//! The paper deploys schedules on a private cloud emulating EC2. Here a
//! discrete-event simulator plays that role: it provisions the schedule's
//! VMs, replays each queue front-to-back (optionally honouring start-up
//! delays, per-query arrival times, and true latencies that differ from the
//! predictions the scheduler used), and bills rental plus SLA penalties.
//!
//! With default options the simulated cost is *exactly* the analytic Eq. 1
//! cost — asserted by tests — so advisor-level experiments can trust either
//! path; the extra options exist to measure what prediction error or slow
//! VM boots would have cost for real.

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreError, CoreResult, CostBreakdown, Millis, Money, PerformanceGoal, QueryId, QueryLatency,
    Schedule, TemplateId, VmTypeId, WorkloadSpec,
};

/// Execution options.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Delay each VM's first query by the VM type's start-up delay. The
    /// analytic model folds provisioning time into the start-up *fee*, so
    /// this defaults to off.
    pub include_startup_delay: bool,
    /// Bill wall-clock rental (provision → release) instead of Eq. 1's
    /// busy-time billing.
    pub bill_wallclock: bool,
    /// True execution latency per query (indexed by [`QueryId`]), when the
    /// truth differs from the template prediction (Figure 22's setting).
    pub true_latencies: Option<Vec<Millis>>,
    /// Arrival time per query (indexed by [`QueryId`]); a query cannot
    /// start before it arrives, and its SLA latency is measured from
    /// arrival. Defaults to "all available at t=0".
    pub arrivals: Option<Vec<Millis>>,
}

/// What happened to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// The query.
    pub query: QueryId,
    /// Template the scheduler believed it was.
    pub template: TemplateId,
    /// VM (index into the schedule) that ran it.
    pub vm_index: usize,
    /// Wall-clock start.
    pub start: Millis,
    /// Wall-clock completion.
    pub finish: Millis,
    /// SLA latency: completion minus arrival (or minus zero for batches).
    pub latency: Millis,
}

/// What happened to one VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmTrace {
    /// The rented type.
    pub vm_type: VmTypeId,
    /// When the VM could first run queries.
    pub ready_at: Millis,
    /// When the VM was released (after its last query).
    pub released_at: Millis,
    /// Total execution time performed.
    pub busy: Millis,
    /// Start-up fee paid.
    pub startup_cost: Money,
    /// Rental charged.
    pub rental_cost: Money,
}

/// A full execution record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Per-query outcomes, in schedule order.
    pub queries: Vec<QueryTrace>,
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
                latency: q.latency,
            })
            .collect()
    }

    /// The SLA penalty of the realized latencies.
    pub fn penalty(&self, goal: &PerformanceGoal) -> Money {
        goal.penalty(&self.latencies())
    }

    /// Cost breakdown: start-up fees, rental, and penalty.
    pub fn breakdown(&self, goal: &PerformanceGoal) -> CostBreakdown {
        let startup: Money = self.vms.iter().map(|v| v.startup_cost).sum();
        let rental: Money = self.vms.iter().map(|v| v.rental_cost).sum();
        CostBreakdown {
            startup,
            runtime: rental,
            penalty: self.penalty(goal),
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
    let mut queries = Vec::with_capacity(schedule.num_queries());
    let mut vms = Vec::with_capacity(schedule.num_vms());

    for (vm_index, vm) in schedule.vms.iter().enumerate() {
        let vm_type = spec.vm_type(vm.vm_type)?;
        let ready_at = if options.include_startup_delay {
            vm_type.startup_delay
        } else {
            Millis::ZERO
        };
        let mut clock = ready_at;
        let mut busy = Millis::ZERO;
        for p in &vm.queue {
            let predicted =
                spec.latency(p.template, vm.vm_type)
                    .ok_or(CoreError::UnsupportedPlacement {
                        template: p.template,
                        vm_type: vm.vm_type,
                    })?;
            let exec = options
                .true_latencies
                .as_ref()
                .and_then(|l| l.get(p.query.index()).copied())
                .unwrap_or(predicted);
            let arrival = options
                .arrivals
                .as_ref()
                .and_then(|a| a.get(p.query.index()).copied())
                .unwrap_or(Millis::ZERO);
            let start = clock.max(arrival);
            let finish = start + exec;
            queries.push(QueryTrace {
                query: p.query,
                template: p.template,
                vm_index,
                start,
                finish,
                latency: finish.saturating_sub(arrival),
            });
            busy += exec;
            clock = finish;
        }
        let released_at = clock;
        let rental_cost = if options.bill_wallclock {
            vm_type.runtime_cost(released_at)
        } else {
            vm_type.runtime_cost(busy)
        };
        vms.push(VmTrace {
            vm_type: vm.vm_type,
            ready_at,
            released_at,
            busy,
            startup_cost: vm_type.startup_cost,
            rental_cost,
        });
    }
    Ok(ExecutionTrace { queries, vms })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{tpch_like, tpch_like_two_types};
    use crate::generator::uniform_workload;
    use wisedb_core::{total_cost, GoalKind, Placement, VmInstance, Workload};
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
        assert_eq!(trace.vms[0].busy, trace.vms[0].released_at);
    }

    #[test]
    fn startup_delay_shifts_everything() {
        let spec = tpch_like(2);
        let workload = Workload::from_counts(&[1, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let opts = SimOptions {
            include_startup_delay: true,
            ..SimOptions::default()
        };
        let trace = execute(&spec, &schedule, &opts).unwrap();
        assert_eq!(trace.queries[0].start, Millis::from_secs(30));
        assert_eq!(trace.vms[0].ready_at, Millis::from_secs(30));
        // Latency includes the boot wait: the SLA clock starts at submission.
        assert_eq!(
            trace.queries[0].latency,
            Millis::from_secs(30) + spec.latency(TemplateId(0), VmTypeId(0)).unwrap()
        );
    }

    #[test]
    fn wallclock_billing_charges_idle_boot_time() {
        let spec = tpch_like(2);
        let workload = Workload::from_counts(&[1, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let busy_bill = execute(&spec, &schedule, &SimOptions::default())
            .unwrap()
            .vms[0]
            .rental_cost;
        let wall_bill = execute(
            &spec,
            &schedule,
            &SimOptions {
                include_startup_delay: true,
                bill_wallclock: true,
                ..SimOptions::default()
            },
        )
        .unwrap()
        .vms[0]
            .rental_cost;
        assert!(wall_bill > busy_bill);
    }

    #[test]
    fn true_latencies_override_predictions() {
        let spec = tpch_like(2);
        let workload = Workload::from_counts(&[1, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let opts = SimOptions {
            true_latencies: Some(vec![Millis::from_secs(999)]),
            ..SimOptions::default()
        };
        let trace = execute(&spec, &schedule, &opts).unwrap();
        assert_eq!(trace.queries[0].latency, Millis::from_secs(999));
        // Billing follows the true execution time, not the prediction.
        let expected = spec.vm_types()[0].runtime_cost(Millis::from_secs(999));
        assert!(trace.vms[0].rental_cost.approx_eq(expected, 1e-12));
    }

    #[test]
    fn arrivals_gate_start_times_and_latency() {
        let spec = tpch_like(2);
        // Two queries of T1 (120s) on one VM; the second arrives late.
        let workload = Workload::from_counts(&[2, 0]);
        let schedule = simple_schedule(&spec, &workload);
        let opts = SimOptions {
            arrivals: Some(vec![Millis::ZERO, Millis::from_secs(300)]),
            ..SimOptions::default()
        };
        let trace = execute(&spec, &schedule, &opts).unwrap();
        // First finishes at 120s; second can't start until 300s.
        assert_eq!(trace.queries[1].start, Millis::from_secs(300));
        assert_eq!(trace.queries[1].latency, Millis::from_secs(120));
        // VM idles between queries; wall-clock billing would cover it.
        assert_eq!(trace.vms[0].busy, Millis::from_secs(240));
        assert_eq!(trace.vms[0].released_at, Millis::from_secs(420));
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
