//! The reference oracle for the online loop: an independent §6.3 replay
//! over the public `OnlineScheduler::plan_arrivals` API with its own
//! minimal VM simulator.
//!
//! `WorkloadService` drives the same planner against `LiveCluster`; the
//! identity tests compare the two loops query by query. Nothing here is
//! shared with the runtime or the simulator, so a bug in either shows up
//! as a disagreement. It imports only `wisedb-core` and `wisedb-advisor`,
//! so both the integration tests and the runtime crate's unit tests can
//! include it with `#[path]`.

use wisedb_advisor::{ClusterView, OnlineScheduler, PendingArrival, PlannedStep};
use wisedb_core::{
    ArrivingQuery, CoreResult, Millis, Money, OpenVmView, PerformanceGoal, QueryId, QueryLatency,
    TemplateId, VmTypeId, WorkloadSpec,
};

/// Where and when one query ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub query: QueryId,
    pub template: TemplateId,
    /// Index of the VM that ran it, in provisioning order.
    pub vm_index: usize,
    pub arrival: Millis,
    pub start: Millis,
    pub finish: Millis,
}

/// A finished replay.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per-query outcomes in stream order.
    pub outcomes: Vec<Outcome>,
    /// VM types provisioned, in order.
    pub vm_types: Vec<VmTypeId>,
}

impl Replay {
    /// Eq. 1 for the replay: start-up fees + busy-time rental + the
    /// goal's penalty over the realized latencies.
    pub fn total_cost(&self, spec: &WorkloadSpec, goal: &PerformanceGoal) -> Money {
        let mut busy = vec![Millis::ZERO; self.vm_types.len()];
        for o in &self.outcomes {
            busy[o.vm_index] += o.finish - o.start;
        }
        let mut cost = Money::ZERO;
        for (&vm_type, &busy) in self.vm_types.iter().zip(&busy) {
            let vt = spec.vm_type(vm_type).unwrap();
            cost += vt.startup_cost + vt.runtime_cost(busy);
        }
        let latencies: Vec<QueryLatency> = self
            .outcomes
            .iter()
            .map(|o| QueryLatency {
                query: o.query,
                template: o.template,
                latency: o.finish - o.arrival,
            })
            .collect();
        cost + goal.penalty(&latencies)
    }
}

struct Vm {
    vm_type: VmTypeId,
    /// When all started work finishes.
    avail: Millis,
    /// Templates of started queries still running, with their finish.
    running: Vec<(TemplateId, Millis)>,
    /// Assigned but not started: (query, template, batch time).
    queued: Vec<(QueryId, TemplateId, Millis)>,
    released: bool,
}

/// Replays `stream` (one class) through `scheduler`: at each arrival the
/// cluster advances, every unstarted query is recalled, and the batch is
/// replanned and queued; the cluster then drains.
pub fn replay(scheduler: &mut OnlineScheduler, stream: &[ArrivingQuery]) -> CoreResult<Replay> {
    let spec = scheduler.base_model().spec().clone();
    let mut vms: Vec<Vm> = Vec::new();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; stream.len()];
    for (i, arriving) in stream.iter().enumerate() {
        let now = arriving.arrival;
        advance(&mut vms, now, &spec, stream, &mut outcomes);
        let mut batch = vec![PendingArrival {
            id: QueryId(i as u32),
            template: arriving.template,
            arrival: now,
        }];
        for vm in &mut vms {
            for (id, template, _) in vm.queued.drain(..) {
                let arrival = stream[id.index()].arrival;
                batch.push(PendingArrival {
                    id,
                    template,
                    arrival,
                });
            }
        }
        let view = ClusterView {
            vms_rented: vms.len() as u32,
            open_vm: vms.last().filter(|vm| !vm.released).map(|vm| OpenVmView {
                vm_type: vm.vm_type,
                running: vm.running.iter().map(|&(t, _)| t).collect(),
                backlog: vm.avail.saturating_sub(now),
            }),
        };
        for step in scheduler.plan_arrivals(&view, &batch, now)? {
            match step {
                PlannedStep::Provision(vm_type) => vms.push(Vm {
                    vm_type,
                    avail: now,
                    running: Vec::new(),
                    queued: Vec::new(),
                    released: false,
                }),
                PlannedStep::Assign { query, template } => vms
                    .last_mut()
                    .expect("plans rent before placing")
                    .queued
                    .push((query, template, now)),
            }
        }
    }
    advance(
        &mut vms,
        Millis::from_millis(u64::MAX),
        &spec,
        stream,
        &mut outcomes,
    );
    Ok(Replay {
        outcomes: outcomes.into_iter().map(|o| o.expect("ran")).collect(),
        vm_types: vms.iter().map(|vm| vm.vm_type).collect(),
    })
}

/// Starts every queued query whose start lies strictly before `now`, and
/// releases VMs that fall idle with nothing queued.
fn advance(
    vms: &mut [Vm],
    now: Millis,
    spec: &WorkloadSpec,
    stream: &[ArrivingQuery],
    outcomes: &mut [Option<Outcome>],
) {
    for (v, vm) in vms.iter_mut().enumerate() {
        vm.running.retain(|&(_, finish)| finish > now);
        let mut started = 0;
        for &(query, template, queued_at) in &vm.queued {
            let start = vm.avail.max(queued_at);
            if start >= now {
                break;
            }
            let finish = start + spec.latency(template, vm.vm_type).unwrap();
            outcomes[query.index()] = Some(Outcome {
                query,
                template,
                vm_index: v,
                arrival: stream[query.index()].arrival,
                start,
                finish,
            });
            vm.avail = finish;
            if finish > now {
                vm.running.push((template, finish));
            }
            started += 1;
        }
        vm.queued.drain(..started);
        if vm.queued.is_empty() && vm.avail <= now {
            vm.released = true;
        }
    }
}
