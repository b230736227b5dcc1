//! The scan-based live cluster, kept as the reference `tests/props_live.rs`
//! checks `wisedb_sim::LiveCluster` against.
//!
//! Every `advance_to` walks every unreleased VM in index order: it prunes
//! finished work, starts each queued query whose start falls strictly
//! before the new clock, and releases idle VMs; completions are every
//! started query whose finish has passed, stably sorted by
//! `(finish, query)`. Pending counts and recalls scan the fleet too. It
//! emits no telemetry; otherwise it is the simulator's semantics written
//! the plainest way, so a faster cluster must match it exactly: same
//! completions in the same order, the same bills to the last bit.

use wisedb_core::{
    CoreError, CoreResult, Millis, Money, OpenVmView, QueryId, TemplateId, TenantId, VmTypeId,
    WorkloadSpec,
};
use wisedb_sim::{Completion, RecalledQuery};

/// A query queued on a VM but not yet started.
#[derive(Debug, Clone, Copy)]
struct QueuedQuery {
    query: QueryId,
    template: TemplateId,
    /// The clock when it was queued; it cannot start earlier.
    not_before: Millis,
    class: TenantId,
    /// Execution time, fixed at enqueue.
    exec: Millis,
}

/// One rented VM.
#[derive(Debug, Clone)]
struct LiveVm {
    vm_type: VmTypeId,
    /// When all started work finishes; starts at the provisioning instant.
    avail: Millis,
    /// Started queries still executing: (template, finish).
    running: Vec<(TemplateId, Millis)>,
    /// Queued but not started; recallable.
    pending: Vec<QueuedQuery>,
    released: bool,
}

/// The reference cluster session.
#[derive(Debug, Clone)]
pub struct LiveCluster {
    spec: WorkloadSpec,
    vms: Vec<LiveVm>,
    /// Indices of the VMs not yet released, ascending.
    live: Vec<usize>,
    now: Millis,
    /// Started queries whose finish lies beyond the clock.
    executing: Vec<Completion>,
    startup_billed: Money,
    runtime_billed: Money,
    billed_by_class: Vec<Money>,
}

impl LiveCluster {
    /// Opens a session at virtual time zero.
    pub fn new(spec: WorkloadSpec) -> Self {
        LiveCluster {
            spec,
            vms: Vec::new(),
            live: Vec::new(),
            now: Millis::ZERO,
            executing: Vec::new(),
            startup_billed: Money::ZERO,
            runtime_billed: Money::ZERO,
            billed_by_class: Vec::new(),
        }
    }

    fn charge(&mut self, class: TenantId, amount: Money) {
        let i = class.index();
        if self.billed_by_class.len() <= i {
            self.billed_by_class.resize(i + 1, Money::ZERO);
        }
        self.billed_by_class[i] += amount;
    }

    /// The current virtual time.
    pub fn now(&self) -> Millis {
        self.now
    }

    /// Provisions a VM now, the start-up fee charged to `class`.
    pub fn provision_as(&mut self, vm_type: VmTypeId, class: TenantId) -> CoreResult<usize> {
        let startup_cost = self.spec.vm_type(vm_type)?.startup_cost;
        self.startup_billed += startup_cost;
        self.charge(class, startup_cost);
        self.vms.push(LiveVm {
            vm_type,
            avail: self.now,
            running: Vec::new(),
            pending: Vec::new(),
            released: false,
        });
        self.live.push(self.vms.len() - 1);
        Ok(self.vms.len() - 1)
    }

    /// Queues `query` behind VM `vm_index`'s work; it cannot start before
    /// the current clock.
    pub fn enqueue_as(
        &mut self,
        vm_index: usize,
        query: QueryId,
        template: TemplateId,
        class: TenantId,
    ) -> CoreResult<()> {
        let vm = self
            .vms
            .get_mut(vm_index)
            .ok_or(CoreError::UnknownVmIndex { index: vm_index })?;
        if vm.released {
            return Err(CoreError::VmReleased { index: vm_index });
        }
        let exec =
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
            exec,
        });
        Ok(())
    }

    /// Pulls back `class`'s unstarted queries, VM by VM in index order,
    /// each VM's in queue order.
    pub fn recall_pending_of(&mut self, class: TenantId) -> Vec<RecalledQuery> {
        let mut out = Vec::new();
        for &vm_index in &self.live {
            let vm = &mut self.vms[vm_index];
            let mut kept = Vec::with_capacity(vm.pending.len());
            for q in vm.pending.drain(..) {
                if q.class == class {
                    out.push(RecalledQuery {
                        vm_index,
                        query: q.query,
                        template: q.template,
                        class: q.class,
                    });
                } else {
                    kept.push(q);
                }
            }
            vm.pending = kept;
        }
        out
    }

    /// Advances the clock (never backwards) and returns the queries that
    /// finished by it, in `(finish, query)` order.
    pub fn advance_to(&mut self, now: Millis) -> Vec<Completion> {
        let now = now.max(self.now);
        self.now = now;
        let mut by_class = std::mem::take(&mut self.billed_by_class);
        for &v in &self.live {
            let vm = &mut self.vms[v];
            vm.running.retain(|&(_, finish)| finish > now);
            let mut started = 0;
            for q in &vm.pending {
                let start = vm.avail.max(q.not_before);
                if start >= now {
                    break;
                }
                let finish = start + q.exec;
                self.executing.push(Completion {
                    query: q.query,
                    template: q.template,
                    class: q.class,
                    vm_index: v,
                    start,
                    finish,
                });
                let rental = self
                    .spec
                    .vm_type(vm.vm_type)
                    .expect("provision validated the type")
                    .runtime_cost(q.exec);
                self.runtime_billed += rental;
                if by_class.len() <= q.class.index() {
                    by_class.resize(q.class.index() + 1, Money::ZERO);
                }
                by_class[q.class.index()] += rental;
                vm.avail = finish;
                if finish > now {
                    vm.running.push((q.template, finish));
                }
                started += 1;
            }
            vm.pending.drain(..started);
            if vm.pending.is_empty() && vm.avail <= now && !vm.released {
                vm.released = true;
            }
        }
        self.billed_by_class = by_class;
        self.live.retain(|&v| !self.vms[v].released);
        let mut completions: Vec<Completion> = Vec::new();
        self.executing.retain(|c| {
            if c.finish <= now {
                completions.push(*c);
                false
            } else {
                true
            }
        });
        completions.sort_by_key(|c| (c.finish, c.query));
        completions
    }

    /// Runs everything queued to completion; the clock ends at the last
    /// finish.
    pub fn drain(&mut self) -> Vec<Completion> {
        let before = self.now;
        let completions = self.advance_to(Millis::from_millis(u64::MAX));
        let last_activity = self
            .vms
            .iter()
            .map(|vm| vm.avail)
            .max()
            .unwrap_or(Millis::ZERO);
        self.now = before.max(last_activity);
        completions
    }

    /// The most recently provisioned VM, unless released, with its
    /// running and queued templates and its backlog.
    pub fn open_vm(&self) -> Option<(usize, OpenVmView)> {
        let index = self.vms.len().checked_sub(1)?;
        let vm = self.vms.last().filter(|vm| !vm.released)?;
        let mut running: Vec<TemplateId> = vm.running.iter().map(|&(t, _)| t).collect();
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
        self.live.len()
    }

    /// VMs ever provisioned.
    pub fn vms_provisioned(&self) -> usize {
        self.vms.len()
    }

    /// Queries queued but not started.
    pub fn pending(&self) -> usize {
        self.live.iter().map(|&v| self.vms[v].pending.len()).sum()
    }

    /// One class's queries queued but not started.
    pub fn pending_of(&self, class: TenantId) -> usize {
        self.live
            .iter()
            .flat_map(|&v| &self.vms[v].pending)
            .filter(|q| q.class == class)
            .count()
    }

    /// Start-up fees plus rental for started work.
    pub fn billed(&self) -> Money {
        self.startup_billed + self.runtime_billed
    }

    /// Dollar attribution per class.
    pub fn billed_by_class(&self) -> &[Money] {
        &self.billed_by_class
    }
}
