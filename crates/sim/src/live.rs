//! The cluster simulator: WiSeDB's IaaS provider as an ongoing process.
//!
//! The paper deploys schedules on a private cloud that emulates EC2.
//! [`LiveCluster`] plays that role one event at a time: provision a VM
//! *now*, queue a query behind it, advance the virtual clock and observe
//! what finished, pull unstarted work back for rescheduling (§6.3's
//! reschedule-on-arrival), and read a running bill at any instant. The
//! streaming runtime drives it arrival by arrival; [`execute`] replays a
//! finished batch [`Schedule`] on it, one session per VM.
//!
//! Execution semantics follow Eq. 1. A VM accepts queries from the instant
//! it is provisioned: the paper folds boot time into the start-up fee
//! `f_s`, which is paid at provisioning. Each VM runs its queue in order,
//! back to back; a query starts at the later of the VM's previous finish
//! and the scheduling pass that queued it. Its execution time is fixed
//! when it is queued: the spec's prediction, or the true latency
//! [`execute`] passes for Figure 22. Rental `f_r` is billed for busy time
//! only, so an idle VM costs nothing and releases itself. For the same
//! placements the drained bill is `Σ startup + Σ runtime`, Eq. 1's
//! infrastructure terms.
//!
//! The session is event-driven, so a step costs what is due, not the size
//! of the fleet. Each unreleased VM has one next event in a min-heap: the
//! start of its queue's head, or its release once the queue is empty. An
//! advance pops the due events and steps those VMs in ascending index
//! order; started queries wait in a second heap ordered by
//! `(finish, query)` until the clock passes their finish. Pending counts
//! are counters, and a recall visits only the VMs with queued work.
//! Results, bills included, are those of walking every VM in index order
//! on each advance (`tests/props_live.rs` checks this against such a
//! walk): `Money` is an `f64`, so the order of the sums is part of the
//! result.
//!
//! [`execute`]: crate::execute
//! [`Schedule`]: wisedb_core::Schedule

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use wisedb_core::{
    CoreError, CoreResult, Millis, Money, QueryId, SpecHandle, TemplateId, TenantId, VmTypeId,
    WorkloadSpec,
};

/// Options of a live cluster session. There are none: the type stays
/// only because callers outside the workspace still name it.
#[derive(Debug, Clone, Default)]
pub struct LiveOptions {}

/// A query queued on a live VM but not yet started.
#[derive(Debug, Clone, Copy)]
struct QueuedQuery {
    query: QueryId,
    /// The template the scheduler believes it is (base template, not an
    /// aged alias).
    template: TemplateId,
    /// The virtual time of the scheduling pass that queued it; it cannot
    /// start earlier even if the VM is idle.
    not_before: Millis,
    /// The submitting tenant's SLA class (drives recall routing and
    /// rental attribution).
    class: TenantId,
    /// Execution time, fixed at enqueue.
    exec: Millis,
}

/// A pending query pulled back off the cluster for rescheduling, tagged
/// with the VM it came from (see [`LiveCluster::recall_pending_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecalledQuery {
    /// Index of the VM the query was queued on.
    pub vm_index: usize,
    /// The recalled query.
    pub query: QueryId,
    /// Its template.
    pub template: TemplateId,
    /// Its SLA class.
    pub class: TenantId,
}

/// One query's completed execution on the live cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Completion {
    /// The query.
    pub query: QueryId,
    /// Its template.
    pub template: TemplateId,
    /// Its SLA class ([`TenantId::DEFAULT`] on single-class sessions).
    pub class: TenantId,
    /// Index of the VM that ran it, in provisioning order.
    pub vm_index: usize,
    /// Execution start (virtual time).
    pub start: Millis,
    /// Execution finish (virtual time).
    pub finish: Millis,
}

pub use wisedb_core::OpenVmView;

/// What a VM's next event does. At one instant a release sorts before a
/// start: an advance *to* `t` releases a VM idle since `t` but starts
/// only work due strictly before `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    Release,
    Start,
}

/// A VM's next event: when, and what. An advance to `now` steps every VM
/// whose event sorts before `(now, Start)`.
type Event = (Millis, Due);

/// One rented VM of the live session.
#[derive(Debug, Clone)]
struct LiveVm {
    vm_type: VmTypeId,
    /// When all *committed* (started) work finishes; starts at the
    /// provisioning instant.
    avail: Millis,
    /// Committed queries in start order: (template, finish). Entries whose
    /// finish has passed are pruned when the VM next starts work, and
    /// skipped by readers until then.
    running: Vec<(TemplateId, Millis)>,
    /// Queued but not started; recallable.
    pending: Vec<QueuedQuery>,
    /// Released VMs hold no work and accept none.
    released: bool,
    /// The event this VM's live heap entry carries; other entries for it
    /// are stale. `None` while it is being stepped and once released.
    event: Option<Event>,
}

impl LiveVm {
    /// The VM's next event: its queue head's start, or its release.
    fn next_event(&self) -> Event {
        match self.pending.first() {
            Some(q) => (self.avail.max(q.not_before), Due::Start),
            None => (self.avail, Due::Release),
        }
    }
}

/// A started query waiting for the clock to pass its finish. Ordered by
/// `(finish, query)`, ties by start order, which is the order the
/// completions are reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    /// Start order across the session.
    seq: u64,
    completion: Completion,
}

impl InFlight {
    fn key(&self) -> (Millis, QueryId, u64) {
        (self.completion.finish, self.completion.query, self.seq)
    }
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An event-driven cluster session that provisions, runs, and bills VMs as
/// the virtual clock advances. See the module docs for semantics.
#[derive(Debug, Clone)]
pub struct LiveCluster {
    spec: SpecHandle,
    vms: Vec<LiveVm>,
    now: Millis,
    /// Each unreleased VM's next event, earliest first, with stale
    /// entries (see [`LiveVm::event`]) skipped when popped.
    events: BinaryHeap<Reverse<(Event, usize)>>,
    /// Scratch for the VMs one advance steps.
    due: Vec<usize>,
    /// Indices of the VMs with queued work, ascending.
    queued: Vec<usize>,
    /// Started queries whose [`Completion`] is emitted once the clock
    /// passes their finish, earliest first.
    in_flight: BinaryHeap<Reverse<InFlight>>,
    /// Queries started so far (the next [`InFlight::seq`]).
    started: u64,
    /// VMs provisioned and not yet released.
    vms_in_flight: usize,
    /// Queries queued but not started, in total and per SLA class.
    pending: usize,
    pending_by_class: Vec<usize>,
    /// Start-up fees of every provisioned VM (paid at provision time).
    startup_billed: Money,
    /// Rental billed for committed execution time.
    runtime_billed: Money,
    /// Dollar attribution per SLA class (index = [`TenantId`]): start-up
    /// fees go to the class whose plan rented the VM, rental to the class
    /// whose query executed. Sums to [`billed`](Self::billed) exactly.
    billed_by_class: Vec<Money>,
}

/// `class`'s entry of a per-class ledger, growing the ledger on first
/// sight of a class.
fn slot<T: Clone + Default>(ledger: &mut Vec<T>, class: TenantId) -> &mut T {
    let i = class.index();
    if ledger.len() <= i {
        ledger.resize(i + 1, T::default());
    }
    &mut ledger[i]
}

/// Files VM `v`'s next event if it changed; the old entry goes stale.
fn reschedule(events: &mut BinaryHeap<Reverse<(Event, usize)>>, vm: &mut LiveVm, v: usize) {
    let next = vm.next_event();
    if vm.event != Some(next) {
        vm.event = Some(next);
        events.push(Reverse((next, v)));
    }
}

impl LiveCluster {
    /// Opens a session at virtual time zero. Accepts an owned spec or a
    /// shared [`SpecHandle`] — the runtime passes the scheduler's handle,
    /// so the whole stack shares one spec allocation.
    pub fn new(spec: impl Into<SpecHandle>, _options: LiveOptions) -> Self {
        LiveCluster {
            spec: spec.into(),
            vms: Vec::new(),
            now: Millis::ZERO,
            events: BinaryHeap::new(),
            due: Vec::new(),
            queued: Vec::new(),
            in_flight: BinaryHeap::new(),
            started: 0,
            vms_in_flight: 0,
            pending: 0,
            pending_by_class: Vec::new(),
            startup_billed: Money::ZERO,
            runtime_billed: Money::ZERO,
            billed_by_class: Vec::new(),
        }
    }

    /// The session's workload specification.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The current virtual time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Provisions a VM of `vm_type` at the current time, paying its
    /// start-up fee (attributed to the default class). Returns the VM's
    /// index (provisioning order).
    pub fn provision(&mut self, vm_type: VmTypeId) -> CoreResult<usize> {
        self.provision_as(vm_type, TenantId::DEFAULT)
    }

    /// [`provision`](Self::provision) with the start-up fee attributed to
    /// the SLA class whose plan rented the VM. The VM itself is shared —
    /// any class may queue on it.
    pub fn provision_as(&mut self, vm_type: VmTypeId, class: TenantId) -> CoreResult<usize> {
        let startup_cost = self.spec.vm_type(vm_type)?.startup_cost;
        self.startup_billed += startup_cost;
        *slot(&mut self.billed_by_class, class) += startup_cost;
        let index = self.vms.len();
        let mut vm = LiveVm {
            vm_type,
            avail: self.now,
            running: Vec::new(),
            pending: Vec::new(),
            released: false,
            event: None,
        };
        // Idle from the start: it releases at the next advance unless
        // work is queued first.
        reschedule(&mut self.events, &mut vm, index);
        self.vms.push(vm);
        self.vms_in_flight += 1;
        wisedb_obs::counter_add("wisedb_cluster_vms_provisioned_total", 1);
        wisedb_obs::instant("cluster.provision")
            .virt(self.now)
            .attr_u64("vm_type", vm_type.index() as u64)
            .attr_u64("class", class.index() as u64)
            .attr_u64("vm_index", index as u64)
            .emit();
        Ok(index)
    }

    /// Queues `query` on VM `vm_index` behind its existing work, under the
    /// default class. The query cannot start before the current virtual
    /// time. Released VMs are rejected — idle VMs release automatically
    /// and accept no further work.
    pub fn enqueue(
        &mut self,
        vm_index: usize,
        query: QueryId,
        template: TemplateId,
    ) -> CoreResult<()> {
        self.enqueue_as(vm_index, query, template, TenantId::DEFAULT)
    }

    /// [`enqueue`](Self::enqueue) with an SLA class tag: the class rides
    /// the queue entry into the query's [`Completion`] and its rental
    /// attribution.
    pub fn enqueue_as(
        &mut self,
        vm_index: usize,
        query: QueryId,
        template: TemplateId,
        class: TenantId,
    ) -> CoreResult<()> {
        self.enqueue_timed(vm_index, query, template, class, None)
    }

    /// [`enqueue_as`](Self::enqueue_as) with the execution time fixed to
    /// `truth` when given, instead of the spec's prediction. The placement
    /// must be one the spec supports either way.
    pub(crate) fn enqueue_timed(
        &mut self,
        vm_index: usize,
        query: QueryId,
        template: TemplateId,
        class: TenantId,
        truth: Option<Millis>,
    ) -> CoreResult<()> {
        let vm = self
            .vms
            .get_mut(vm_index)
            .ok_or(CoreError::UnknownVmIndex { index: vm_index })?;
        if vm.released {
            return Err(CoreError::VmReleased { index: vm_index });
        }
        let predicted =
            self.spec
                .latency(template, vm.vm_type)
                .ok_or(CoreError::UnsupportedPlacement {
                    template,
                    vm_type: vm.vm_type,
                })?;
        vm.pending.push(QueuedQuery {
            query,
            template,
            not_before: self.now,
            class,
            exec: truth.unwrap_or(predicted),
        });
        if vm.pending.len() == 1 {
            // The queue was empty: the pending release becomes a start.
            reschedule(&mut self.events, vm, vm_index);
            if let Err(at) = self.queued.binary_search(&vm_index) {
                self.queued.insert(at, vm_index);
            }
        }
        self.pending += 1;
        *slot(&mut self.pending_by_class, class) += 1;
        Ok(())
    }

    /// Pulls back `class`'s not-yet-started queries for rescheduling, in
    /// queue order, leaving other classes' pending work in place — the
    /// multi-tenant recall discipline: one class's replan never perturbs
    /// another's queued placements. The §6.3 loop calls this on each
    /// arrival: everything unstarted is fair game for a better plan. Each
    /// entry names the VM it was recalled from, so a caller whose replan
    /// fails can restore the previous assignment.
    pub fn recall_pending_of(&mut self, class: TenantId) -> Vec<RecalledQuery> {
        let count = self.pending_of(class);
        if count == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(count);
        let LiveCluster {
            vms,
            events,
            queued,
            ..
        } = self;
        queued.retain(|&vm_index| {
            if out.len() == count {
                return true;
            }
            let vm = &mut vms[vm_index];
            let before = out.len();
            vm.pending.retain(|q| {
                if q.class != class {
                    return true;
                }
                out.push(RecalledQuery {
                    vm_index,
                    query: q.query,
                    template: q.template,
                    class,
                });
                false
            });
            if out.len() > before {
                reschedule(events, vm, vm_index);
            }
            !vm.pending.is_empty()
        });
        self.pending -= count;
        self.pending_by_class[class.index()] = 0;
        wisedb_obs::counter_add("wisedb_cluster_recalled_total", count as u64);
        wisedb_obs::instant("cluster.recall")
            .virt(self.now)
            .attr_u64("class", class.index() as u64)
            .attr_u64("queries", count as u64)
            .emit();
        out
    }

    /// Advances the virtual clock to `now` (monotone; earlier times are
    /// clamped to the current clock). Starts pending queries whose start
    /// time falls strictly before `now`, releases idle VMs, and returns
    /// the queries that **finished** by `now`, in finish order (ties by
    /// query id, then start order). A query that has started but not yet
    /// finished stays in flight — its completion is emitted by a later
    /// advance — so callers' live gauges never count executing work as
    /// done.
    ///
    /// A pending query starts at `max(vm avail, its queueing time)` and
    /// runs for the execution time fixed when it was queued. Only VMs
    /// with an event due are touched, in ascending index order.
    pub fn advance_to(&mut self, now: Millis) -> Vec<Completion> {
        let now = now.max(self.now);
        self.now = now;
        let horizon = (now, Due::Start);
        while let Some(&Reverse((event, v))) = self.events.peek() {
            if event >= horizon {
                break;
            }
            self.events.pop();
            let vm = &mut self.vms[v];
            if vm.event == Some(event) {
                vm.event = None;
                self.due.push(v);
            }
        }
        // Ascending index order keeps the f64 bills summed as a walk over
        // the whole fleet would sum them.
        self.due.sort_unstable();
        for i in 0..self.due.len() {
            self.step(self.due[i], now);
        }
        self.due.clear();
        let mut completions = Vec::new();
        while let Some(Reverse(next)) = self.in_flight.peek() {
            if next.completion.finish > now {
                break;
            }
            completions.push(next.completion);
            self.in_flight.pop();
        }
        completions
    }

    /// Steps VM `v`, whose event is due at `now`: starts its queued
    /// queries that can start before `now`, billing them, then releases
    /// it if it is idle, or files its next event.
    fn step(&mut self, v: usize, now: Millis) {
        let vm = &mut self.vms[v];
        let vm_type = self
            .spec
            .vm_type(vm.vm_type)
            .expect("provision validated the type");
        vm.running.retain(|&(_, finish)| finish > now);
        let mut started = 0;
        for q in &vm.pending {
            let start = vm.avail.max(q.not_before);
            if start >= now {
                break;
            }
            let finish = start + q.exec;
            self.in_flight.push(Reverse(InFlight {
                seq: self.started,
                completion: Completion {
                    query: q.query,
                    template: q.template,
                    class: q.class,
                    vm_index: v,
                    start,
                    finish,
                },
            }));
            self.started += 1;
            let rental = vm_type.runtime_cost(q.exec);
            self.runtime_billed += rental;
            // Rental attribution: the executing query's class pays.
            *slot(&mut self.billed_by_class, q.class) += rental;
            self.pending_by_class[q.class.index()] -= 1;
            vm.avail = finish;
            if finish > now {
                vm.running.push((q.template, finish));
            }
            started += 1;
        }
        vm.pending.drain(..started);
        self.pending -= started;
        if vm.pending.is_empty() {
            if started > 0 {
                if let Ok(at) = self.queued.binary_search(&v) {
                    self.queued.remove(at);
                }
            }
            if vm.avail <= now {
                // Idle: release it and free its buffers.
                vm.released = true;
                vm.running = Vec::new();
                vm.pending = Vec::new();
                self.vms_in_flight -= 1;
                return;
            }
        }
        reschedule(&mut self.events, vm, v);
    }

    /// Runs everything still queued to completion and returns the final
    /// completions. The clock ends at the last finish (it never rewinds).
    pub fn drain(&mut self) -> Vec<Completion> {
        let before = self.now;
        let completions = self.advance_to(Millis::from_millis(u64::MAX));
        // The drain pass moved the clock to the sentinel; settle it back to
        // the true end of work so dollars-per-hour stays meaningful.
        let last_activity = self
            .vms
            .iter()
            .map(|vm| vm.avail)
            .max()
            .unwrap_or(Millis::ZERO);
        self.now = before.max(last_activity);
        completions
    }

    /// The most recently provisioned VM, if it can still accept work:
    /// its index (provisioning order) and the planner's view of it.
    ///
    /// The backlog covers committed work *and* queries still queued on the
    /// VM (their execution times), and `running` lists both populations: in
    /// the single-class loop the queue is always empty here (everything
    /// unstarted was just recalled), but a multi-tenant replan leaves
    /// other classes' pending in place, and a plan that ignored it would
    /// stack deadline-bound work behind invisible queues.
    pub fn open_vm(&self) -> Option<(usize, OpenVmView)> {
        let index = self.vms.len().checked_sub(1)?;
        let vm = self.vms.last().filter(|vm| !vm.released)?;
        let mut running: Vec<TemplateId> = vm
            .running
            .iter()
            .filter(|&&(_, finish)| finish > self.now)
            .map(|&(t, _)| t)
            .collect();
        let mut backlog = vm.avail.saturating_sub(self.now);
        for q in &vm.pending {
            backlog += q.exec;
            running.push(q.template);
        }
        Some((
            index,
            OpenVmView {
                vm_type: vm.vm_type,
                running,
                backlog,
            },
        ))
    }

    /// VMs provisioned and not yet released.
    pub fn vms_in_flight(&self) -> usize {
        self.vms_in_flight
    }

    /// VMs ever provisioned.
    pub fn vms_provisioned(&self) -> usize {
        self.vms.len()
    }

    /// The provisioned VM types, in provisioning order.
    pub fn vm_types(&self) -> Vec<VmTypeId> {
        self.vms.iter().map(|vm| vm.vm_type).collect()
    }

    /// Queries queued but not started, across all VMs.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Queries of one SLA class queued but not started, across all VMs.
    pub fn pending_of(&self, class: TenantId) -> usize {
        self.pending_by_class
            .get(class.index())
            .copied()
            .unwrap_or(0)
    }

    /// Infrastructure billed so far: start-up fees of every provisioned VM
    /// plus rental for committed execution time. The post-drain value
    /// equals Eq. 1's infrastructure terms for the same placements.
    pub fn billed(&self) -> Money {
        self.startup_billed + self.runtime_billed
    }

    /// Dollar attribution per SLA class, indexed by [`TenantId`] (classes
    /// beyond the vector's length have been charged nothing). Start-up
    /// fees belong to the class whose plan rented the VM, rental to the
    /// class whose query executed; the entries sum to
    /// [`billed`](Self::billed).
    pub fn billed_by_class(&self) -> &[Money] {
        &self.billed_by_class
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{tpch_like, tpch_like_two_types};
    use wisedb_core::{QueryTemplate, VmType};

    fn cluster(n: usize) -> LiveCluster {
        LiveCluster::new(tpch_like(n), LiveOptions::default())
    }

    #[test]
    fn provision_enqueue_advance_bills_eq1() {
        let mut c = cluster(3);
        let spec = c.spec().clone();
        let v = c.provision(VmTypeId(0)).unwrap();
        c.enqueue(v, QueryId(0), TemplateId(0)).unwrap();
        c.enqueue(v, QueryId(1), TemplateId(1)).unwrap();
        let l0 = spec.latency(TemplateId(0), VmTypeId(0)).unwrap();
        let l1 = spec.latency(TemplateId(1), VmTypeId(0)).unwrap();

        let done = c.drain();
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].start, Millis::ZERO);
        assert_eq!(done[0].finish, l0);
        assert_eq!(done[1].start, l0);
        assert_eq!(done[1].finish, l0 + l1);
        let vt = spec.vm_type(VmTypeId(0)).unwrap();
        let expected = vt.startup_cost + vt.runtime_cost(l0 + l1);
        assert!(c.billed().approx_eq(expected, 1e-9), "{}", c.billed());
        assert_eq!(c.now(), l0 + l1);
        assert_eq!(c.vms_in_flight(), 0);
    }

    #[test]
    fn queries_start_only_strictly_before_now_and_finish_later() {
        let mut c = cluster(2);
        let v = c.provision(VmTypeId(0)).unwrap();
        c.enqueue(v, QueryId(0), TemplateId(0)).unwrap();
        // Advancing *to* the queueing instant starts nothing (start >= now).
        assert!(c.advance_to(Millis::ZERO).is_empty());
        assert_eq!(c.pending(), 1);
        // One tick later the query has started (it is no longer pending)
        // but is far from finished: no completion is emitted until the
        // clock passes its finish, and the VM stays in flight.
        assert!(c.advance_to(Millis::from_millis(1)).is_empty());
        assert_eq!(c.pending(), 0);
        assert_eq!(c.vms_in_flight(), 1);
        let exec = c.spec().latency(TemplateId(0), VmTypeId(0)).unwrap();
        assert!(c.advance_to(exec - Millis::from_millis(1)).is_empty());
        // The clock reaching the finish emits the completion exactly once.
        let done = c.advance_to(exec);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].start, Millis::ZERO);
        assert_eq!(done[0].finish, exec);
        assert!(c.advance_to(exec + Millis::SECOND).is_empty());
        assert_eq!(c.vms_in_flight(), 0);
    }

    #[test]
    fn recall_pulls_back_only_unstarted_work() {
        let mut c = cluster(2);
        let v = c.provision(VmTypeId(0)).unwrap();
        c.enqueue(v, QueryId(0), TemplateId(0)).unwrap();
        c.enqueue(v, QueryId(1), TemplateId(1)).unwrap();
        // Move a little: query 0 starts (it's committed), query 1 waits.
        c.advance_to(Millis::from_secs(1));
        let recalled = c.recall_pending_of(TenantId::DEFAULT);
        assert_eq!(
            recalled,
            vec![RecalledQuery {
                vm_index: 0,
                query: QueryId(1),
                template: TemplateId(1),
                class: TenantId::DEFAULT,
            }]
        );
        assert_eq!(c.pending(), 0);
        // The open VM reports the backlog of the committed query.
        let (index, open) = c.open_vm().unwrap();
        assert_eq!(index, 0);
        assert_eq!(open.running, vec![TemplateId(0)]);
        let l0 = c.spec().latency(TemplateId(0), VmTypeId(0)).unwrap();
        assert_eq!(open.backlog, l0.saturating_sub(Millis::from_secs(1)));
    }

    #[test]
    fn idle_vm_releases_and_closes() {
        let mut c = cluster(2);
        let v = c.provision(VmTypeId(0)).unwrap();
        c.enqueue(v, QueryId(0), TemplateId(1)).unwrap();
        let l = c.spec().latency(TemplateId(1), VmTypeId(0)).unwrap();
        c.advance_to(l + Millis::SECOND);
        assert_eq!(c.vms_in_flight(), 0);
        assert!(c.open_vm().is_none(), "released VMs are not open");
        assert_eq!(c.vms_provisioned(), 1);
        // Released VMs accept no further work.
        assert!(matches!(
            c.enqueue(v, QueryId(1), TemplateId(0)),
            Err(CoreError::VmReleased { .. })
        ));
    }

    #[test]
    fn unsupported_placement_is_rejected_at_enqueue() {
        let spec = tpch_like_two_types(2);
        // Manufacture a spec where template 0 cannot run on type 1.
        let mut templates = spec.templates().to_vec();
        templates[0].latencies[1] = None;
        let spec = WorkloadSpec::new(templates, spec.vm_types().to_vec()).unwrap();
        let mut c = LiveCluster::new(spec, LiveOptions::default());
        let v = c.provision(VmTypeId(1)).unwrap();
        assert!(matches!(
            c.enqueue(v, QueryId(0), TemplateId(0)),
            Err(CoreError::UnsupportedPlacement { .. })
        ));
    }

    #[test]
    fn class_recall_leaves_other_classes_queued() {
        let mut c = cluster(3);
        let v = c.provision_as(VmTypeId(0), TenantId(1)).unwrap();
        c.enqueue_as(v, QueryId(0), TemplateId(0), TenantId(0))
            .unwrap();
        c.enqueue_as(v, QueryId(1), TemplateId(1), TenantId(1))
            .unwrap();
        c.enqueue_as(v, QueryId(2), TemplateId(2), TenantId(0))
            .unwrap();
        assert_eq!(c.pending_of(TenantId(0)), 2);
        assert_eq!(c.pending_of(TenantId(1)), 1);
        // Recalling class 0 pulls its two queries in queue order and
        // leaves class 1's untouched.
        let recalled = c.recall_pending_of(TenantId(0));
        assert_eq!(
            recalled.iter().map(|r| r.query).collect::<Vec<_>>(),
            vec![QueryId(0), QueryId(2)]
        );
        assert!(recalled.iter().all(|r| r.class == TenantId(0)));
        assert_eq!(c.pending(), 1);
        assert_eq!(c.pending_of(TenantId(1)), 1);
        // The open VM's view accounts for the still-queued class-1 query.
        let (_, open) = c.open_vm().unwrap();
        let l1 = c.spec().latency(TemplateId(1), VmTypeId(0)).unwrap();
        assert_eq!(open.backlog, l1);
        assert_eq!(open.running, vec![TemplateId(1)]);
    }

    #[test]
    fn class_billing_attribution_sums_to_the_total() {
        let spec = tpch_like(3);
        let mut c = LiveCluster::new(spec.clone(), LiveOptions::default());
        // Class 1 rents the VM; classes 0 and 1 both execute on it.
        let v = c.provision_as(VmTypeId(0), TenantId(1)).unwrap();
        c.enqueue_as(v, QueryId(0), TemplateId(0), TenantId(0))
            .unwrap();
        c.enqueue_as(v, QueryId(1), TemplateId(1), TenantId(1))
            .unwrap();
        let done = c.drain();
        assert_eq!(done[0].class, TenantId(0));
        assert_eq!(done[1].class, TenantId(1));
        let vt = spec.vm_type(VmTypeId(0)).unwrap();
        let l0 = spec.latency(TemplateId(0), VmTypeId(0)).unwrap();
        let l1 = spec.latency(TemplateId(1), VmTypeId(0)).unwrap();
        let by_class = c.billed_by_class();
        assert!(by_class[0].approx_eq(vt.runtime_cost(l0), 1e-9));
        assert!(by_class[1].approx_eq(vt.startup_cost + vt.runtime_cost(l1), 1e-9));
        let attributed: Money = by_class.iter().copied().sum();
        assert!(attributed.approx_eq(c.billed(), 1e-9));
        // Classes that were never charged have no entry.
        assert_eq!(by_class.len(), 2);
    }

    #[test]
    fn one_advance_bills_due_vms_in_index_order() {
        // Rentals of 0.2 and 0.4 dollars (one hour at those rates) on top
        // of a 0.1 start-up fee: f64 sums whose result depends on order.
        let vm_type = |name: &str, rate: f64| VmType {
            name: name.into(),
            startup_cost: Money::from_dollars(0.1),
            rate_per_hour: Money::from_dollars(rate),
        };
        let spec = WorkloadSpec::new(
            vec![QueryTemplate {
                name: "hour".into(),
                latencies: vec![Some(Millis::HOUR), Some(Millis::HOUR)],
            }],
            vec![vm_type("a", 0.2), vm_type("b", 0.4)],
        )
        .unwrap();
        let mut c = LiveCluster::new(spec, LiveOptions::default());
        let class = TenantId(1);
        let a = c.provision_as(VmTypeId(0), TenantId(0)).unwrap();
        c.enqueue_as(a, QueryId(0), TemplateId(0), TenantId(0))
            .unwrap();
        c.advance_to(Millis::from_millis(1));
        // VM `a` is busy for an hour, so its next start is due after VM
        // `b`'s: the event heap yields `b` first.
        c.enqueue_as(a, QueryId(1), TemplateId(0), class).unwrap();
        let b = c.provision_as(VmTypeId(1), class).unwrap();
        c.enqueue_as(b, QueryId(2), TemplateId(0), class).unwrap();
        c.advance_to(Millis::HOUR + Millis::SECOND);
        let fee = Money::from_dollars(0.1);
        let (ra, rb) = (Money::from_dollars(0.2), Money::from_dollars(0.4));
        let in_index_order = fee + ra + rb;
        assert_ne!(in_index_order, fee + rb + ra, "the order must matter");
        assert_eq!(c.billed_by_class()[1], in_index_order);
    }

    #[test]
    fn billing_accrues_incrementally() {
        let mut c = cluster(2);
        let v = c.provision(VmTypeId(0)).unwrap();
        let after_provision = c.billed();
        assert!(after_provision > Money::ZERO, "start-up fee paid up front");
        c.enqueue(v, QueryId(0), TemplateId(0)).unwrap();
        c.advance_to(Millis::from_millis(1));
        assert!(c.billed() > after_provision, "runtime billed at commit");
    }
}
