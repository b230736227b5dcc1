//! Workload schedules.
//!
//! A schedule `S = {vm_1, vm_2, ...}` is a list of provisioned VMs, each with
//! an ordered queue of queries (§3). It answers the three questions WiSeDB
//! exists to answer: how many VMs of which types, which query goes where, and
//! in what order.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::spec::WorkloadSpec;
use crate::template::TemplateId;
use crate::time::Millis;
use crate::vm::VmTypeId;
use crate::workload::{QueryId, Workload};

/// A query assigned to a position in some VM's queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Placement {
    /// The placed query.
    pub query: QueryId,
    /// The query's template (denormalized for cost computations).
    pub template: TemplateId,
}

/// One provisioned VM and its processing queue, executed front to back.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmInstance {
    /// The rented VM type.
    pub vm_type: VmTypeId,
    /// Queries in execution order.
    pub queue: Vec<Placement>,
}

impl VmInstance {
    /// An empty instance of the given type.
    pub fn new(vm_type: VmTypeId) -> Self {
        VmInstance {
            vm_type,
            queue: Vec::new(),
        }
    }

    /// Total busy time: the sum of the queue's latencies on this VM type.
    pub(crate) fn busy_time(&self, spec: &WorkloadSpec) -> CoreResult<Millis> {
        let mut total = Millis::ZERO;
        for p in &self.queue {
            total +=
                spec.latency(p.template, self.vm_type)
                    .ok_or(CoreError::UnsupportedPlacement {
                        template: p.template,
                        vm_type: self.vm_type,
                    })?;
        }
        Ok(total)
    }
}

/// The realized latency of one scheduled query: queue wait plus execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryLatency {
    /// The query.
    pub query: QueryId,
    /// Its template.
    pub template: TemplateId,
    /// Time from VM start to query completion (wait + execution), which is
    /// the paper's notion of query latency within a schedule.
    pub latency: Millis,
}

/// A complete or partial workload schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schedule {
    /// Provisioned VMs in provisioning order.
    pub vms: Vec<VmInstance>,
}

impl Schedule {
    /// An empty schedule.
    pub fn empty() -> Self {
        Schedule::default()
    }

    /// Number of provisioned VMs.
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// Number of placed queries.
    pub fn num_queries(&self) -> usize {
        self.vms.iter().map(|vm| vm.queue.len()).sum()
    }

    /// The completion latency of every placed query.
    ///
    /// Queries on a VM run sequentially: the latency of the k-th query is the
    /// sum of the latencies of queries 0..k plus its own execution time.
    pub fn query_latencies(&self, spec: &WorkloadSpec) -> CoreResult<Vec<QueryLatency>> {
        let mut out = Vec::with_capacity(self.num_queries());
        for vm in &self.vms {
            let mut clock = Millis::ZERO;
            for p in &vm.queue {
                let exec = spec.latency(p.template, vm.vm_type).ok_or(
                    CoreError::UnsupportedPlacement {
                        template: p.template,
                        vm_type: vm.vm_type,
                    },
                )?;
                clock += exec;
                out.push(QueryLatency {
                    query: p.query,
                    template: p.template,
                    latency: clock,
                });
            }
        }
        Ok(out)
    }

    /// Checks the schedule is a *complete* schedule of `workload`: every
    /// query placed exactly once, with its correct template, and no foreign
    /// queries.
    pub fn validate_complete(&self, workload: &Workload) -> CoreResult<()> {
        let mut seen = vec![false; workload.len()];
        let mut placed = 0usize;
        for vm in &self.vms {
            for p in &vm.queue {
                let idx = p.query.index();
                let Some(expected) = workload.queries().get(idx) else {
                    return Err(CoreError::IncompleteSchedule {
                        detail: format!("{} is not part of the workload", p.query),
                    });
                };
                if expected.template != p.template {
                    return Err(CoreError::IncompleteSchedule {
                        detail: format!(
                            "{} placed as {} but the workload says {}",
                            p.query, p.template, expected.template
                        ),
                    });
                }
                if seen[idx] {
                    return Err(CoreError::IncompleteSchedule {
                        detail: format!("{} placed more than once", p.query),
                    });
                }
                seen[idx] = true;
                placed += 1;
            }
        }
        if placed != workload.len() {
            let missing = seen.iter().position(|&s| !s).unwrap_or(0);
            return Err(CoreError::IncompleteSchedule {
                detail: format!(
                    "{} of {} queries placed; first missing: {}",
                    placed,
                    workload.len(),
                    QueryId(missing as u32)
                ),
            });
        }
        Ok(())
    }

    /// Per-template instance counts across all VM queues.
    pub fn template_counts(&self, num_templates: usize) -> Vec<u32> {
        let mut counts = vec![0u32; num_templates];
        for vm in &self.vms {
            for p in &vm.queue {
                if let Some(c) = counts.get_mut(p.template.index()) {
                    *c += 1;
                }
            }
        }
        counts
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, vm) in self.vms.iter().enumerate() {
            write!(f, "vm{}<{}>: [", i + 1, vm.vm_type.0)?;
            for (j, p) in vm.queue.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}:{}", p.query, p.template)?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmType;
    use crate::{GoalKind, Money, PerformanceGoal};

    fn spec() -> WorkloadSpec {
        // T1: 2 minutes, T2: 1 minute — the Figure 3 configuration.
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    /// Figure 3, scenario 2: vm1 = [q1(T1), q2(T2)], vm2 = [q3(T2), q4(T2)].
    fn scenario_two() -> (Workload, Schedule) {
        let workload =
            Workload::from_templates([TemplateId(0), TemplateId(1), TemplateId(1), TemplateId(1)]);
        let schedule = Schedule {
            vms: vec![
                VmInstance {
                    vm_type: VmTypeId(0),
                    queue: vec![
                        Placement {
                            query: QueryId(0),
                            template: TemplateId(0),
                        },
                        Placement {
                            query: QueryId(1),
                            template: TemplateId(1),
                        },
                    ],
                },
                VmInstance {
                    vm_type: VmTypeId(0),
                    queue: vec![
                        Placement {
                            query: QueryId(2),
                            template: TemplateId(1),
                        },
                        Placement {
                            query: QueryId(3),
                            template: TemplateId(1),
                        },
                    ],
                },
            ],
        };
        (workload, schedule)
    }

    #[test]
    fn latencies_accumulate_queue_wait() {
        let (_, schedule) = scenario_two();
        let lats = schedule.query_latencies(&spec()).unwrap();
        // vm1: q1 completes at 2m, q2 at 3m. vm2: q3 at 1m, q4 at 2m.
        assert_eq!(lats[0].latency, Millis::from_mins(2));
        assert_eq!(lats[1].latency, Millis::from_mins(3));
        assert_eq!(lats[2].latency, Millis::from_mins(1));
        assert_eq!(lats[3].latency, Millis::from_mins(2));
    }

    #[test]
    fn provisioning_cost_matches_equation_one() {
        let (_, schedule) = scenario_two();
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let cost = crate::cost_breakdown(&spec, &goal, &schedule).unwrap();
        // vm1 busy 3 minutes, vm2 busy 2: 2 startups + 5 query-minutes.
        let expected = Money::from_dollars(2.0 * 0.0008 + 0.052 * 5.0 / 60.0);
        assert!((cost.startup + cost.runtime).approx_eq(expected, 1e-9));
    }

    #[test]
    fn validate_complete_accepts_exact_cover() {
        let (workload, schedule) = scenario_two();
        schedule.validate_complete(&workload).unwrap();
    }

    #[test]
    fn validate_complete_rejects_missing_and_duplicates() {
        let (workload, mut schedule) = scenario_two();
        let removed = schedule.vms[1].queue.pop().unwrap();
        let err = schedule.validate_complete(&workload).unwrap_err();
        assert!(matches!(err, CoreError::IncompleteSchedule { .. }));

        schedule.vms[1].queue.push(removed);
        schedule.vms[1].queue.push(removed);
        let err = schedule.validate_complete(&workload).unwrap_err();
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn validate_complete_rejects_wrong_template() {
        let (workload, mut schedule) = scenario_two();
        schedule.vms[0].queue[0].template = TemplateId(1);
        let err = schedule.validate_complete(&workload).unwrap_err();
        assert!(err.to_string().contains("workload says"));
    }

    #[test]
    fn unsupported_placement_is_an_error() {
        let spec = WorkloadSpec::new(
            vec![crate::template::QueryTemplate {
                name: "medium-only".into(),
                latencies: vec![Some(Millis::from_mins(1)), None],
            }],
            vec![VmType::t2_medium(), VmType::t2_small()],
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
            schedule.query_latencies(&spec),
            Err(CoreError::UnsupportedPlacement { .. })
        ));
    }

    #[test]
    fn counts_and_sizes() {
        let (_, schedule) = scenario_two();
        assert_eq!(schedule.num_vms(), 2);
        assert_eq!(schedule.num_queries(), 4);
        assert_eq!(schedule.template_counts(2), vec![1, 3]);
    }
}
