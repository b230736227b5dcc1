//! The event loop: a virtual-clock online workload-management service.
//!
//! [`WorkloadService`] wires the pieces into the §6.3 loop, run as a
//! continuously stepped process instead of a batch replay:
//!
//! 1. an arrival fires (from a stream or an [`ArrivalProcess`]), tagged
//!    with its tenant's SLA class;
//! 2. the live cluster advances to the arrival instant — queued queries
//!    start, finished ones complete and feed the metrics;
//! 3. admission control inspects the load (including the arriving class's
//!    priority and queue depth) and may shed the arrival;
//! 4. every *unstarted query of the same class* is recalled from the
//!    cluster and replanned together with the newcomer by that class's
//!    decision model ([`MultiScheduler::plan_arrivals`]); other classes'
//!    queued placements stay put;
//! 5. the plan's provision/assign steps are dispatched back onto the
//!    shared cluster, which bills them — attributed to the class — as
//!    they execute.
//!
//! That loop is one engine with two entry points. A same-class burst
//! ([`offer_batch_as`](WorkloadService::offer_batch_as), and so
//! `offer_as` and every one-group tick) runs it inline against the live
//! cluster. A multi-class tick ([`offer_tick`](WorkloadService::offer_tick))
//! admits every group in tick order, takes one epoch view of the cluster,
//! and then plans each group against that view and merges its plan, again
//! in tick order, all on the calling thread.
//!
//! A single-class service (what [`train`](WorkloadService::train) builds)
//! degenerates to the original single-goal pipeline **bit-identically**:
//! recalling "the arrival's class" recalls everything, the one model plans
//! every batch, and the per-class metrics row mirrors the fleet totals
//! (asserted by `tests/multitenant_e2e.rs` against an independent replay
//! of the §6.3 loop). This is the only online executor: the advisor only
//! plans, and the Figure 18/19 replays run through
//! [`run_stream`](WorkloadService::run_stream), reading the model work
//! back from [`scheduler`](WorkloadService::scheduler)`(class).counters()`.
//!
//! Everything is deterministic under a fixed seed — same stream, same
//! placements, same bill — except scheduler *decision latency*, which is
//! measured wall-clock and reported but never steers the simulation.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wisedb_advisor::{
    ClusterView, DecisionModel, MultiScheduler, OnlineConfig, OnlineScheduler, PendingArrival,
    PlannedStep, TrainingArtifacts,
};
use wisedb_core::{
    ArrivingQuery, CoreError, CoreResult, GoalHandle, MetricsSnapshot, Millis, QueryId, SlaClass,
    SpecHandle, TemplateId, TenantId, VmTypeId, WorkloadSpec,
};
use wisedb_sim::{Completion, LiveCluster, LiveOptions, RecalledQuery};

use crate::admission::{AdmissionPolicy, LoadStatus};
use crate::arrivals::ArrivalProcess;
use crate::metrics::MetricsCollector;

/// Configuration of a [`WorkloadService`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Online scheduling configuration (planner, Reuse/Shift, training,
    /// cache capacity) — applied to every class's scheduler.
    pub online: OnlineConfig,
    /// The overload valve.
    pub admission: AdmissionPolicy,
    /// Seed for arrival generation in
    /// [`run_process`](WorkloadService::run_process).
    pub seed: u64,
    /// Take an interim [`MetricsSnapshot`] every `snapshot_every` offered
    /// arrivals (`0` = final snapshot only).
    pub snapshot_every: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            online: OnlineConfig::default(),
            admission: AdmissionPolicy::AcceptAll,
            seed: 0x0005_7EA4,
            snapshot_every: 0,
        }
    }
}

/// What became of one offered arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Admitted and planned onto the fleet.
    Admitted,
    /// Dropped by admission control (graceful degradation, not an error).
    Shed,
}

/// What a finished stream run reports.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Interim snapshots (one per `snapshot_every` arrivals, if enabled).
    pub snapshots: Vec<MetricsSnapshot>,
    /// The final snapshot, after draining all queued work.
    pub last: MetricsSnapshot,
    /// Every completed execution, in completion order.
    pub completions: Vec<Completion>,
}

/// One class group of a scheduling tick: the class plus its arrivals
/// (`(template, at)` pairs in non-decreasing `at` order; groups must also
/// be tick-ordered by their first arrival).
pub type TickGroup = (TenantId, Vec<(TemplateId, Millis)>);

/// Counters of a service's scheduling ticks; see
/// [`stats`](WorkloadService::stats). All four are deterministic for a
/// fixed trace and tick structure.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickStats {
    /// Scheduling ticks processed (inline one-group calls count as
    /// one-group ticks).
    pub ticks: u64,
    /// Epoch views taken: multi-group ticks that reached the plan phase.
    pub epochs: u64,
    /// Plan calls issued.
    pub decisions: u64,
    /// Plans validated and applied by the merge step.
    pub merged_plans: u64,
}

/// A streaming online workload-management service over a virtual clock,
/// scheduling one or more tenant SLA classes onto one shared fleet.
pub struct WorkloadService {
    /// The class table: every class's definition and scheduler.
    scheduler: MultiScheduler,
    core: ServiceCore,
    stats: TickStats,
}

/// Everything of the service *except* the planner: the live cluster, the
/// metrics collector, and the arrival/completion ledgers, plus the staged
/// offer pipeline (admit → prepare → view → settle: validate, then apply
/// or roll back) those books drive. The inline burst and the multi-group
/// tick walk the same stages; the tick just admits and prepares every
/// group before it takes the view.
struct ServiceCore {
    cluster: LiveCluster,
    metrics: MetricsCollector,
    config: RuntimeConfig,
    /// Original arrival time per admitted query, indexed by [`QueryId`].
    /// (The query's SLA class needs no sibling table: it rides the cluster
    /// queue entries into each [`Completion`].)
    arrival_of: Vec<Millis>,
    /// Completions observed so far (completion order).
    completions: Vec<Completion>,
}

/// One admitted group between its admission and its merge: what a failed
/// plan must undo.
struct Prepared {
    /// Stream id of the group's first newcomer.
    first_id: usize,
    /// Newcomers admitted.
    admitted: usize,
    /// The class's unstarted queries, recalled to be replanned.
    recalled: Vec<RecalledQuery>,
}

/// One group of a multi-group tick between admission and planning.
struct Admitted {
    /// Position of the group in the tick.
    seq: usize,
    class: TenantId,
    outcomes: Vec<OfferOutcome>,
    group: Prepared,
    /// The newcomers plus the class's recalled pending work.
    batch: Vec<PendingArrival>,
    /// The last admitted instant of the group.
    planned_at: Millis,
}

/// The open VM a plan was made against — its index and type — if any.
type OpenVm = Option<(usize, VmTypeId)>;

impl WorkloadService {
    /// Trains a base model for `(spec, goal)` and opens a single-class
    /// service — the legacy single-goal shape. Accepts owned values or
    /// shared handles; either way the scheduler, cluster, and metrics
    /// layers end up sharing one spec/goal allocation.
    pub fn train(
        spec: impl Into<SpecHandle>,
        goal: impl Into<GoalHandle>,
        config: RuntimeConfig,
    ) -> CoreResult<Self> {
        WorkloadService::train_classes(spec, vec![SlaClass::solo(goal.into())], config)
    }

    /// Trains one base model per SLA class (`classes[i]` is
    /// [`TenantId`]`(i)`) and opens a multi-tenant service: every class's
    /// arrivals are planned by its own model, all contending for one
    /// shared fleet.
    pub fn train_classes(
        spec: impl Into<SpecHandle>,
        classes: Vec<SlaClass>,
        config: RuntimeConfig,
    ) -> CoreResult<Self> {
        let scheduler = MultiScheduler::train(spec, classes, config.online.clone())?;
        Ok(Self::with_multi(scheduler, config))
    }

    /// Opens a single-class service around an already-trained scheduler.
    pub fn with_scheduler(scheduler: OnlineScheduler, config: RuntimeConfig) -> Self {
        let goal: GoalHandle = scheduler.base_model().goal_handle().clone();
        let multi = MultiScheduler::with_schedulers(
            vec![SlaClass::solo(goal)],
            vec![scheduler],
            config.online.clone(),
        )
        .expect("one class, one scheduler, shared spec");
        Self::with_multi(multi, config)
    }

    /// Opens a service around a pre-built multi-class scheduler.
    pub fn with_multi(scheduler: MultiScheduler, config: RuntimeConfig) -> Self {
        let spec: SpecHandle = scheduler.spec_handle().clone();
        let classes = scheduler.classes().to_vec();
        WorkloadService {
            scheduler,
            core: ServiceCore::new(spec, classes, config),
            stats: TickStats::default(),
        }
    }

    /// The workload specification in force.
    pub fn spec(&self) -> &WorkloadSpec {
        self.core.cluster.spec()
    }

    /// The configured SLA classes, indexed by [`TenantId`].
    pub fn classes(&self) -> &[SlaClass] {
        self.scheduler.classes()
    }

    /// One class's scheduler (base model + caches).
    pub fn scheduler(&self, class: TenantId) -> CoreResult<&OnlineScheduler> {
        self.scheduler.scheduler(class)
    }

    /// The current virtual time.
    pub fn now(&self) -> Millis {
        self.core.cluster.now()
    }

    /// The configuration the service was opened with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.core.config
    }

    /// The live cluster session (fleet state, running bill).
    pub fn cluster(&self) -> &LiveCluster {
        &self.core.cluster
    }

    /// Aggregate tick counters: ticks, epochs, plan calls and merges.
    pub fn stats(&self) -> TickStats {
        self.stats.clone()
    }

    /// Hot-swaps one class's decision model — the background-retraining
    /// hook: train a drift-adapted model off the event loop (the
    /// `DriftProcess` + `ModelConfig::threads` machinery), then swap it in
    /// without stopping the service. The new model (fresh Reuse/Shift
    /// caches) takes effect on the **next arrival**; in-flight and queued
    /// queries are untouched. The model must match the service's spec and
    /// the class's goal.
    pub fn swap_model(
        &mut self,
        class: TenantId,
        model: DecisionModel,
        artifacts: TrainingArtifacts,
    ) -> CoreResult<()> {
        let result = self.scheduler.swap_model(class, model, artifacts);
        wisedb_obs::counter_add("wisedb_runtime_model_swaps_total", 1);
        wisedb_obs::instant("runtime.swap_model")
            .virt(self.core.cluster.now())
            .attr_u64("class", class.index() as u64)
            .attr_bool("applied", result.is_ok())
            .emit();
        result
    }

    /// Offers one arrival of the default class at virtual time `at`
    /// (monotone across calls). Returns `true` if admitted, `false` if
    /// shed.
    pub fn offer(&mut self, template: TemplateId, at: Millis) -> CoreResult<bool> {
        self.offer_as(template, TenantId::DEFAULT, at)
    }

    /// Offers one arrival of an SLA class at virtual time `at` (monotone
    /// across calls). Returns `true` if admitted, `false` if shed by
    /// admission control. Errors if the class is unknown or the template
    /// is outside the class's declared subset.
    pub fn offer_as(
        &mut self,
        template: TemplateId,
        class: TenantId,
        at: Millis,
    ) -> CoreResult<bool> {
        let outcomes = self.offer_batch_as(class, &[(template, at)])?;
        Ok(outcomes[0] == OfferOutcome::Admitted)
    }

    /// Offers a burst of same-class arrivals (`(template, at)` pairs in
    /// non-decreasing `at` order) — a one-group tick — coalescing every
    /// admitted newcomer into **one** `plan_arrivals` call instead of one
    /// per arrival: the request-batching path a network server takes when
    /// load outruns the scheduler thread (drain the queue, plan once).
    /// With a single group the class's scheduler plans in place against
    /// the live cluster: no epoch view is counted.
    ///
    /// Each arrival still advances the clock and passes through admission
    /// individually (earlier newcomers of the same burst count toward the
    /// later ones' queue-depth signals), so a one-element burst is
    /// [`offer_as`](WorkloadService::offer_as). Admitted arrivals are then
    /// planned together with the class's recalled pending work at the
    /// last admitted instant.
    ///
    /// On error the planning rollback restores recalled queries and drops
    /// the whole burst's newcomers; arrivals shed before the error keep
    /// their rejection counts.
    pub fn offer_batch_as(
        &mut self,
        class: TenantId,
        arrivals: &[(TemplateId, Millis)],
    ) -> CoreResult<Vec<OfferOutcome>> {
        if arrivals.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch_span = wisedb_obs::span("runtime.offer_batch");
        if batch_span.recording() {
            batch_span.attr_u64("class", class.index() as u64);
            batch_span.attr_u64("arrivals", arrivals.len() as u64);
            batch_span.virt(arrivals[arrivals.len() - 1].1);
        }
        let priority = self.check_group(class, arrivals)?;

        self.stats.ticks += 1;
        let (outcomes, admitted) = self.core.admit_burst(class, priority, arrivals, 0);
        let Some(&(_, planned_at)) = admitted.last() else {
            return Ok(outcomes);
        };
        let (group, batch) = self.core.prepare_batch(class, &admitted);
        let (view, open) = self.core.plan_view();
        self.plan_and_settle(class, &view, open, group, &batch, planned_at)
            .map(|()| outcomes)
    }

    /// Plans one admitted group against `view` and books the plan: the
    /// step both entry points share. Counts the plan call, and the merge
    /// when the plan validated and applied.
    fn plan_and_settle(
        &mut self,
        class: TenantId,
        view: &ClusterView,
        open: OpenVm,
        group: Prepared,
        batch: &[PendingArrival],
        planned_at: Millis,
    ) -> CoreResult<()> {
        let started = Instant::now();
        let mut plan_span = wisedb_obs::span("runtime.plan");
        if plan_span.recording() {
            plan_span.attr_u64("batch", batch.len() as u64);
            plan_span.attr_u64("recalled", group.recalled.len() as u64);
            plan_span.virt(planned_at);
        }
        let planned = self.scheduler.plan_arrivals(class, view, batch, planned_at);
        drop(plan_span);
        let secs = started.elapsed().as_secs_f64();
        self.stats.decisions += 1;
        wisedb_obs::counter_add("wisedb_runtime_decisions_total", 1);
        let settled = self.core.settle(class, planned, secs, open, group);
        if settled.is_ok() {
            self.stats.merged_plans += 1;
            wisedb_obs::counter_add("wisedb_runtime_merged_plans_total", 1);
        }
        settled
    }

    /// A group's admission priority, or why the group cannot be offered:
    /// its class is unknown, or a template falls outside the class subset.
    fn check_group(&self, class: TenantId, arrivals: &[(TemplateId, Millis)]) -> CoreResult<u8> {
        let sla = self.scheduler.class(class)?;
        match arrivals.iter().find(|&&(t, _)| !sla.allows(t)) {
            Some(&(template, _)) => Err(CoreError::TemplateNotInClass { template, class }),
            None => Ok(sla.priority),
        }
    }

    /// Processes one scheduling tick in three phases: admit every group
    /// in tick order, take one view of the cluster (the tick's *epoch*),
    /// then plan each group against that view and merge its plan, in tick
    /// order. Returns one verdict list per input group, aligned with
    /// `groups`; a group whose class is unknown, whose template falls
    /// outside the class subset, or whose plan fails gets an `Err` — other
    /// groups proceed (failed groups roll back their recall, like a failed
    /// burst). A one-group tick is [`offer_batch_as`](Self::offer_batch_as).
    ///
    /// Every plan depends only on the epoch view, the group's batch and
    /// its class's scheduler, none of which an earlier group's merge
    /// touches, so the outputs are those of planning every group before
    /// merging any.
    ///
    /// Groups should be tick-ordered (non-decreasing first-arrival
    /// times). A class heads at most one planned group per tick: its
    /// pending work was recalled into the first group's batch, so a
    /// second group of a class that already admitted arrivals this tick
    /// gets a [`CoreError::InconsistentPlan`]. The outer `CoreResult`
    /// never fails; it stays because `benchmark/` unwraps it.
    #[allow(clippy::type_complexity)]
    pub fn offer_tick(
        &mut self,
        groups: &[TickGroup],
    ) -> CoreResult<Vec<CoreResult<Vec<OfferOutcome>>>> {
        if let [(class, arrivals)] = groups {
            return Ok(vec![self.offer_batch_as(*class, arrivals)]);
        }
        if groups.is_empty() {
            return Ok(Vec::new());
        }
        self.stats.ticks += 1;

        // Phase 1 — admit serially in tick order. Newcomers admitted by
        // earlier groups are folded into later groups' admission signals,
        // mirroring how one serial burst's own earlier arrivals gate its
        // later ones. A group that needs no plan gets its result here;
        // the rest wait in `planned`.
        let mut results: Vec<Option<CoreResult<Vec<OfferOutcome>>>> = Vec::new();
        let mut planned: Vec<Admitted> = Vec::new();
        let mut carried = 0usize;
        for (seq, (class, arrivals)) in groups.iter().enumerate() {
            let class = *class;
            let checked = self.check_group(class, arrivals).and_then(|priority| {
                if planned.iter().any(|a| a.class == class) {
                    return Err(CoreError::InconsistentPlan {
                        detail: format!("{class} already has a planned group in this tick"),
                    });
                }
                Ok(priority)
            });
            let priority = match checked {
                Ok(priority) => priority,
                Err(err) => {
                    results.push(Some(Err(err)));
                    continue;
                }
            };
            let (outcomes, admitted) = self.core.admit_burst(class, priority, arrivals, carried);
            let Some(&(_, planned_at)) = admitted.last() else {
                results.push(Some(Ok(outcomes)));
                continue;
            };
            carried += admitted.len();
            let (group, batch) = self.core.prepare_batch(class, &admitted);
            planned.push(Admitted {
                seq,
                class,
                outcomes,
                group,
                batch,
                planned_at,
            });
            results.push(None);
        }

        if !planned.is_empty() {
            // Phase 2 — one epoch view. Assignments before a plan's first
            // provision target the epoch's open VM.
            let (view, open) = self.core.plan_view();
            self.stats.epochs += 1;
            // Phase 3 — plan against the epoch and merge, in tick order.
            for a in planned {
                let settled =
                    self.plan_and_settle(a.class, &view, open, a.group, &a.batch, a.planned_at);
                results[a.seq] = Some(settled.map(|()| a.outcomes));
            }
        }

        Ok(results
            .into_iter()
            .map(|r| r.expect("every group settled"))
            .collect())
    }

    /// Runs everything still queued to completion.
    pub fn drain(&mut self) {
        self.core.drain();
    }

    /// A metrics snapshot at the current virtual instant, with per-class
    /// rows carrying the cluster's dollar attribution.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.core.snapshot()
    }

    /// Completions observed so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.core.completions
    }

    /// Replays a class-tagged arrival stream in ticks of up to
    /// `tick_size` arrivals: each chunk is grouped by class (one group
    /// per class, first-appearance order) and processed as one
    /// [`offer_tick`](Self::offer_tick), then the cluster drains. An
    /// interim snapshot is taken at each tick boundary that crosses a
    /// multiple of [`RuntimeConfig::snapshot_every`] offered arrivals.
    pub fn run_ticked(
        &mut self,
        stream: &[ArrivingQuery],
        tick_size: usize,
    ) -> CoreResult<StreamReport> {
        let every = self.core.config.snapshot_every;
        let mut snapshots = Vec::new();
        let mut offered = 0usize;
        for chunk in stream.chunks(tick_size.max(1)) {
            let mut groups: Vec<TickGroup> = Vec::new();
            for q in chunk {
                match groups.iter_mut().find(|(c, _)| *c == q.class) {
                    Some((_, arrivals)) => arrivals.push((q.template, q.arrival)),
                    None => groups.push((q.class, vec![(q.template, q.arrival)])),
                }
            }
            for result in self.offer_tick(&groups)? {
                result?;
            }
            offered += chunk.len();
            if every > 0 && offered / every > (offered - chunk.len()) / every {
                snapshots.push(self.snapshot());
            }
        }
        self.drain();
        Ok(StreamReport {
            snapshots,
            last: self.snapshot(),
            completions: self.core.completions.clone(),
        })
    }

    /// Replays an explicit arrival stream (possibly multi-class — each
    /// arrival's tag routes it) one arrival per tick, then drains.
    pub fn run_stream(&mut self, stream: &[ArrivingQuery]) -> CoreResult<StreamReport> {
        self.run_ticked(stream, 1)
    }

    /// Draws `n` arrivals from `process` (seeded by the config, tagged
    /// with the default class) and runs them through the loop, then
    /// drains.
    pub fn run_process(
        &mut self,
        process: &mut dyn ArrivalProcess,
        n: usize,
    ) -> CoreResult<StreamReport> {
        let mut rng = StdRng::seed_from_u64(self.core.config.seed);
        let mut now = self.core.cluster.now();
        let stream: Vec<ArrivingQuery> = (0..n)
            .map(|_| {
                let (gap, template) = process.next(now, &mut rng);
                now += gap;
                ArrivingQuery::new(template, now)
            })
            .collect();
        self.run_stream(&stream)
    }
}

impl ServiceCore {
    /// Opens the books: a fresh cluster session over `spec` and a metrics
    /// collector with one row per class.
    fn new(spec: SpecHandle, classes: Vec<SlaClass>, config: RuntimeConfig) -> Self {
        ServiceCore {
            cluster: LiveCluster::new(spec, LiveOptions::default()),
            metrics: MetricsCollector::with_classes(classes),
            config,
            arrival_of: Vec::new(),
            completions: Vec::new(),
        }
    }

    /// Admission for one same-class burst, one arrival at a time: the
    /// virtual clock advances to each instant, and newcomers already
    /// admitted from this burst are folded into the pending/in-flight
    /// signals (they are not yet queued on the cluster, but they are
    /// committed to be).
    ///
    /// `carried` extends that fold to newcomers admitted by *earlier
    /// groups of the same scheduling tick* — a multi-group tick admits
    /// several groups before any of them is planned, and each must see
    /// its predecessors' commitments exactly like a later arrival of one
    /// serial burst would. (They are all of other classes: a class heads
    /// one planned group per tick.) It is `0` on the inline one-group path.
    ///
    /// Returns the per-arrival outcomes plus the admitted `(template, at)`
    /// pairs; rejections are recorded against `class` as they happen.
    fn admit_burst(
        &mut self,
        class: TenantId,
        priority: u8,
        arrivals: &[(TemplateId, Millis)],
        carried: usize,
    ) -> (Vec<OfferOutcome>, Vec<(TemplateId, Millis)>) {
        let mut outcomes = Vec::with_capacity(arrivals.len());
        let mut admitted: Vec<(TemplateId, Millis)> = Vec::new();
        for &(template, at) in arrivals {
            self.step_to(at);
            let committed = admitted.len() + carried;
            let status = LoadStatus {
                now: at,
                pending: self.cluster.pending() + committed,
                in_flight: self.metrics.admitted() - self.metrics.completed() + committed as u64,
                vms_in_flight: self.cluster.vms_in_flight(),
                class,
                priority,
                class_pending: self.cluster.pending_of(class) + admitted.len(),
            };
            if self.config.admission.admits(&status) {
                admitted.push((template, at));
                outcomes.push(OfferOutcome::Admitted);
                wisedb_obs::counter_add("wisedb_runtime_admitted_total", 1);
            } else {
                self.metrics.reject_as(class);
                outcomes.push(OfferOutcome::Shed);
                wisedb_obs::counter_add("wisedb_runtime_shed_total", 1);
                wisedb_obs::instant("admission.shed")
                    .virt(at)
                    .attr_u64("class", class.index() as u64)
                    .attr_u64("template", template.index() as u64)
                    .attr_u64("pending", status.pending as u64)
                    .emit();
            }
        }
        (outcomes, admitted)
    }

    /// Builds the planning batch for one admitted group: assigns stream
    /// ids to the newcomers (recording their arrival times) and recalls
    /// every *same-class* query queued unstarted. Other classes' queued
    /// placements stay put — their own next arrival may replan them.
    fn prepare_batch(
        &mut self,
        class: TenantId,
        admitted: &[(TemplateId, Millis)],
    ) -> (Prepared, Vec<PendingArrival>) {
        let first_id = self.arrival_of.len();
        let mut batch: Vec<PendingArrival> = Vec::with_capacity(admitted.len());
        for (i, &(template, at)) in admitted.iter().enumerate() {
            batch.push(PendingArrival {
                id: QueryId((first_id + i) as u32),
                template,
                arrival: at,
            });
            self.arrival_of.push(at);
        }
        let recalled = self.cluster.recall_pending_of(class);
        for r in &recalled {
            batch.push(PendingArrival {
                id: r.query,
                template: r.template,
                arrival: self.arrival_of[r.query.index()],
            });
        }
        let group = Prepared {
            first_id,
            admitted: admitted.len(),
            recalled,
        };
        (group, batch)
    }

    /// The fleet as a planner sees it at this instant, plus the open VM
    /// that assignments before a plan's first provision step go to.
    fn plan_view(&self) -> (ClusterView, OpenVm) {
        let open = self.cluster.open_vm();
        let target = open.as_ref().map(|(index, view)| (*index, view.vm_type));
        let view = ClusterView {
            vms_rented: self.cluster.vms_provisioned() as u32,
            open_vm: open.map(|(_, view)| view),
        };
        (view, target)
    }

    /// Books one group's planning outcome. A plan is recorded as a
    /// decision, checked in full against the live cluster **before**
    /// anything is mutated — a malformed or stale plan must fail this
    /// request, not the process — and applied. A failed or rejected plan
    /// rolls the group back.
    fn settle(
        &mut self,
        class: TenantId,
        planned: CoreResult<Vec<PlannedStep>>,
        plan_secs: f64,
        open: OpenVm,
        group: Prepared,
    ) -> CoreResult<()> {
        let checked = planned.and_then(|plan| {
            self.metrics.decision(plan_secs);
            wisedb_obs::observe_us("wisedb_runtime_decision_us", (plan_secs * 1e6) as u64);
            self.validate_plan(&plan, open.map(|(_, vm_type)| vm_type))?;
            Ok(plan)
        });
        match checked {
            Ok(plan) => self.apply_plan(class, plan, open.map(|(index, _)| index), group.admitted),
            // Planning failed (e.g. a retrain hit its search limits), or
            // the plan was inconsistent.
            Err(err) => Err(self.rollback_offer(group, err)),
        }
    }

    /// Checks a plan's steps against the live cluster **before** any of
    /// them is applied: every provision names a VM type of the spec, every
    /// assignment has a VM to target (the open VM, or a provision step
    /// earlier in the plan), and the target's type supports the template.
    /// A malformed or stale plan is rejected as a typed
    /// [`CoreError::InconsistentPlan`] while the service state is still
    /// untouched (and therefore restorable).
    fn validate_plan(
        &self,
        plan: &[PlannedStep],
        mut target_type: Option<VmTypeId>,
    ) -> CoreResult<()> {
        let spec = self.cluster.spec();
        for step in plan {
            match *step {
                PlannedStep::Provision(vm_type) => {
                    spec.vm_type(vm_type)
                        .map_err(|e| CoreError::InconsistentPlan {
                            detail: format!("plan provisions a VM type outside the spec: {e}"),
                        })?;
                    target_type = Some(vm_type);
                }
                PlannedStep::Assign { query, template } => {
                    let Some(vm_type) = target_type else {
                        return Err(CoreError::InconsistentPlan {
                            detail: format!(
                                "plan places {query:?} with no open VM and no prior provision step"
                            ),
                        });
                    };
                    if spec.latency(template, vm_type).is_none() {
                        return Err(CoreError::InconsistentPlan {
                            detail: format!(
                                "plan places {query:?} ({template}) on unsupporting {vm_type}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Dispatches a validated plan onto the cluster, crediting `admitted`
    /// admissions to `class` first. `target` is the VM assignments before
    /// the plan's first provision step go to — the open VM of the view the
    /// plan was made against (the live one, or the tick snapshot's).
    ///
    /// Callers must have run [`validate_plan`](Self::validate_plan); a
    /// failure mid-application still answers with a typed error, but the
    /// already-applied prefix stands (no time passes mid-dispatch, so
    /// validated steps cannot actually fail).
    fn apply_plan(
        &mut self,
        class: TenantId,
        plan: Vec<PlannedStep>,
        mut target: Option<usize>,
        admitted: usize,
    ) -> CoreResult<()> {
        for _ in 0..admitted {
            self.metrics.admit_as(class);
        }
        for step in plan {
            match step {
                PlannedStep::Provision(vm_type) => {
                    // validate_plan checked the type against the spec; a
                    // failure here still answers with a typed error.
                    let index = self.cluster.provision_as(vm_type, class).map_err(|e| {
                        CoreError::InconsistentPlan {
                            detail: format!("provisioning planned {vm_type} failed: {e}"),
                        }
                    })?;
                    target = Some(index);
                }
                PlannedStep::Assign { query, template } => {
                    // validate_plan proved a target exists and supports the
                    // template, and no time passes mid-dispatch, so the
                    // target VM cannot have been released.
                    let vm = target.ok_or_else(|| CoreError::InconsistentPlan {
                        detail: format!("plan places {query:?} before renting any VM"),
                    })?;
                    self.cluster
                        .enqueue_as(vm, query, template, class)
                        .map_err(|e| CoreError::InconsistentPlan {
                            detail: format!("queueing planned {query:?} on VM {vm} failed: {e}"),
                        })?;
                }
            }
        }
        Ok(())
    }

    /// Unwinds a failed planning attempt: recalled queries go back to
    /// their previous VMs and the group's newcomers are dropped, so the
    /// service stays coherent for callers that handle the error and
    /// continue. The newcomers' ids are reclaimed when they sit at the
    /// tail of the ledger (always true for a lone burst; in a multi-group
    /// tick only the last group's are — earlier groups leave a gap of
    /// never-queued ids, which nothing ever completes). Returns the error
    /// to report — the original one, or a [`CoreError::InconsistentPlan`]
    /// if even the restore failed (a cluster-state inconsistency the
    /// caller must know about).
    fn rollback_offer(&mut self, group: Prepared, err: CoreError) -> CoreError {
        let mut restore_failure = None;
        for r in group.recalled {
            if let Err(e) = self
                .cluster
                .enqueue_as(r.vm_index, r.query, r.template, r.class)
            {
                restore_failure = Some(CoreError::InconsistentPlan {
                    detail: format!(
                        "planning failed ({err}) and restoring recalled {:?} failed: {e}",
                        r.query
                    ),
                });
            }
        }
        if self.arrival_of.len() == group.first_id + group.admitted {
            self.arrival_of.truncate(group.first_id);
        }
        restore_failure.unwrap_or(err)
    }

    /// Advances the virtual clock, harvesting completions into the metrics.
    fn step_to(&mut self, at: Millis) {
        let finished = self.cluster.advance_to(at);
        self.harvest(finished);
    }

    /// Runs everything still queued to completion.
    fn drain(&mut self) {
        let finished = self.cluster.drain();
        self.harvest(finished);
    }

    /// Books finished executions: metrics, the completions counter, the
    /// completion ledger.
    fn harvest(&mut self, finished: Vec<Completion>) {
        for completion in finished {
            self.metrics
                .complete(&completion, self.arrival_of[completion.query.index()]);
            wisedb_obs::counter_add("wisedb_runtime_completions_total", 1);
            self.completions.push(completion);
        }
    }

    /// A metrics snapshot at the current virtual instant, with per-class
    /// rows carrying the cluster's dollar attribution.
    fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot(
            self.cluster.now(),
            self.cluster.billed(),
            self.cluster.billed_by_class(),
            self.cluster.vms_in_flight(),
            self.cluster.vms_provisioned(),
        )
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arrivals::{
        generate_class_stream, generate_stream, merge_streams, PoissonProcess, TemplateMix,
    };
    use wisedb_advisor::{ModelConfig, ModelGenerator};
    use wisedb_core::{GoalKind, Money, PerformanceGoal, VmType};

    pub(crate) fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    pub(crate) fn config() -> RuntimeConfig {
        RuntimeConfig {
            online: OnlineConfig {
                training: ModelConfig {
                    num_samples: 40,
                    sample_size: 5,
                    seed: 3,
                    ..ModelConfig::fast()
                },
                ..OnlineConfig::default()
            },
            ..RuntimeConfig::default()
        }
    }

    fn service(kind: GoalKind) -> WorkloadService {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        WorkloadService::train(spec, goal, config()).unwrap()
    }

    pub(crate) fn three_classes(spec: &WorkloadSpec) -> Vec<SlaClass> {
        vec![
            SlaClass::new(
                "gold",
                PerformanceGoal::paper_default(GoalKind::PerQuery, spec).unwrap(),
            )
            .with_priority(2),
            SlaClass::new(
                "silver",
                PerformanceGoal::paper_default(GoalKind::MaxLatency, spec).unwrap(),
            )
            .with_priority(1),
            SlaClass::new(
                "bronze",
                PerformanceGoal::paper_default(GoalKind::AverageLatency, spec).unwrap(),
            ),
        ]
    }

    pub(crate) fn tagged_stream(n_per_class: usize) -> Vec<ArrivingQuery> {
        let streams = (0..3)
            .map(|c| {
                let mut process =
                    PoissonProcess::per_second(0.02 + 0.01 * c as f64, TemplateMix::uniform(2));
                generate_class_stream(&mut process, n_per_class, 100 + c as u64, TenantId(c))
            })
            .collect();
        merge_streams(streams)
    }

    /// Decision latency is wall-clock (reported, never steering), so it is
    /// the one legitimately nondeterministic snapshot field.
    pub(crate) fn scrub(mut s: MetricsSnapshot) -> MetricsSnapshot {
        s.mean_decision_secs = 0.0;
        s.p95_decision_secs = 0.0;
        s
    }

    #[test]
    fn stream_runs_end_to_end_and_completes_everything() {
        let mut svc = service(GoalKind::MaxLatency);
        let mut process = PoissonProcess::per_second(1.0 / 20.0, TemplateMix::uniform(2));
        let report = svc.run_process(&mut process, 30).unwrap();
        assert_eq!(report.last.admitted, 30);
        assert_eq!(report.last.completed, 30);
        assert_eq!(report.last.in_flight, 0);
        assert_eq!(report.completions.len(), 30);
        assert!(report.last.billed > Money::ZERO);
        assert!(report.last.dollars_per_hour > 0.0);
        assert!(report.last.vms_provisioned >= 1);
        assert_eq!(report.last.vms_in_flight, 0, "drained cluster is idle");
        // Latency covers execution at least: T2 is one minute.
        assert!(report.last.latency.p50 >= Millis::from_secs(60));
        // The single class's row mirrors the fleet.
        assert_eq!(report.last.classes.len(), 1);
        assert_eq!(report.last.classes[0].completed, 30);
        assert!(report.last.classes[0]
            .billed
            .approx_eq(report.last.billed, 1e-9));
    }

    #[test]
    fn runs_are_deterministic_under_a_seed() {
        let run = || {
            let mut svc = service(GoalKind::PerQuery);
            let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(2));
            svc.run_process(&mut process, 25).unwrap()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.last.latency, b.last.latency);
        assert_eq!(a.last.billed, b.last.billed);
        assert_eq!(a.last.penalty, b.last.penalty);
    }

    #[test]
    fn service_matches_the_batch_online_replayer() {
        // The incremental loop must reproduce the reference replay of
        // §6.3 exactly: same stream, same per-query placements and times.
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(2));
        let stream = generate_stream(&mut process, 25, 99);

        let mut svc = WorkloadService::train(spec.clone(), goal.clone(), config()).unwrap();
        let report = svc.run_stream(&stream).unwrap();

        let mut replayer =
            OnlineScheduler::train(spec.clone(), goal.clone(), config().online).unwrap();
        let batch_report = crate::replayer::replay(&mut replayer, &stream).unwrap();

        let mut by_query = report.completions.clone();
        by_query.sort_by_key(|c| c.query);
        assert_eq!(by_query.len(), batch_report.outcomes.len());
        for (c, o) in by_query.iter().zip(&batch_report.outcomes) {
            assert_eq!(c.query, o.query);
            assert_eq!(c.vm_index, o.vm_index);
            assert_eq!(c.start, o.start);
            assert_eq!(c.finish, o.finish);
        }
        // And the money agrees with the replayer's Eq. 1 analogue.
        let total = report.last.total_cost();
        let batch_total = batch_report.total_cost(&spec, &goal);
        assert!(
            total.approx_eq(batch_total, 1e-9),
            "service {total} vs replayer {batch_total}"
        );
    }

    #[test]
    fn admission_sheds_load_under_pressure() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut cfg = config();
        cfg.admission = AdmissionPolicy::MaxPending(2);
        let mut svc = WorkloadService::train(spec, goal, cfg).unwrap();
        // A hard burst: 40 queries in 4 seconds of a 1–2-minute workload.
        let mut process = PoissonProcess::per_second(10.0, TemplateMix::uniform(2));
        let report = svc.run_process(&mut process, 40).unwrap();
        assert!(report.last.rejected > 0, "burst must trip MaxPending(2)");
        assert_eq!(report.last.admitted + report.last.rejected, 40);
        assert_eq!(report.last.completed, report.last.admitted);
    }

    #[test]
    fn interim_snapshots_fire_on_schedule() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut cfg = config();
        cfg.snapshot_every = 5;
        let mut svc = WorkloadService::train(spec.clone(), goal, cfg.clone()).unwrap();
        let mut process = PoissonProcess::per_second(0.1, TemplateMix::uniform(2));
        let report = svc.run_process(&mut process, 12).unwrap();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].admitted, 5);
        assert_eq!(report.snapshots[1].admitted, 10);
        assert!(report.snapshots[0].at <= report.snapshots[1].at);

        // Ticks of 4 end at 4, 8 and 12 offered arrivals: the boundaries
        // at 8 and 12 are the ones that cross a multiple of 5.
        let classes = three_classes(&spec);
        let mut svc = WorkloadService::train_classes(spec, classes, cfg).unwrap();
        let report = svc.run_ticked(&tagged_stream(4), 4).unwrap();
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].admitted, 8);
        assert_eq!(report.snapshots[1].admitted, 12);
    }

    #[test]
    fn three_classes_share_one_fleet() {
        let spec = spec();
        let classes = three_classes(&spec);
        let mut svc = WorkloadService::train_classes(spec, classes, config()).unwrap();
        let stream = tagged_stream(8);
        let report = svc.run_stream(&stream).unwrap();
        assert_eq!(report.last.admitted, 24);
        assert_eq!(report.last.completed, 24);
        assert_eq!(report.last.classes.len(), 3);
        for (i, row) in report.last.classes.iter().enumerate() {
            assert_eq!(row.class, TenantId(i as u32));
            assert_eq!(row.admitted, 8, "{}", row.name);
            assert_eq!(row.completed, 8, "{}", row.name);
        }
        // Every completion carries its class tag.
        for c in &report.completions {
            assert!(c.class.index() < 3);
        }
        // One shared fleet: dollar attribution sums to the bill.
        let attributed: Money = report.last.classes.iter().map(|c| c.billed).sum();
        assert!(attributed.approx_eq(report.last.billed, 1e-9));
    }

    #[test]
    fn class_subset_and_unknown_class_are_rejected() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let classes = vec![
            SlaClass::new("narrow", goal.clone()).with_templates(vec![TemplateId(1)]),
            SlaClass::new("open", goal),
        ];
        let mut svc = WorkloadService::train_classes(spec, classes, config()).unwrap();
        assert!(matches!(
            svc.offer_as(TemplateId(0), TenantId(0), Millis::ZERO),
            Err(CoreError::TemplateNotInClass { .. })
        ));
        assert!(matches!(
            svc.offer_as(TemplateId(0), TenantId(7), Millis::ZERO),
            Err(CoreError::UnknownTenantClass { .. })
        ));
        // The allowed template of the narrow class is admitted.
        assert!(svc
            .offer_as(TemplateId(1), TenantId(0), Millis::from_secs(1))
            .unwrap());
    }

    #[test]
    fn priority_shed_protects_gold_under_overload() {
        let spec = spec();
        let classes = three_classes(&spec);
        let mut cfg = config();
        cfg.admission = AdmissionPolicy::PriorityShed {
            base: 1,
            per_priority: 3,
        };
        let mut svc = WorkloadService::train_classes(spec, classes, cfg).unwrap();
        // A hard synchronized burst: 10 arrivals per class in 10 s.
        let streams = (0..3)
            .map(|c| {
                let mut p = PoissonProcess::per_second(1.0, TemplateMix::uniform(2));
                generate_class_stream(&mut p, 10, 7 + c as u64, TenantId(c))
            })
            .collect();
        let report = svc.run_stream(&merge_streams(streams)).unwrap();
        let rows = &report.last.classes;
        assert!(
            rows[2].rejected > rows[0].rejected,
            "bronze ({}) must shed more than gold ({})",
            rows[2].rejected,
            rows[0].rejected
        );
        assert_eq!(report.last.admitted + report.last.rejected, 30);
    }

    #[test]
    fn single_element_bursts_are_bit_identical_to_offer_as() {
        // offer_as delegates to offer_batch_as; this pins that a stream
        // pushed through explicit one-element bursts reproduces offer_as
        // exactly — the coalescing path's k=1 case is the per-arrival
        // path.
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut process = PoissonProcess::per_second(0.05, TemplateMix::uniform(2));
        let stream = generate_stream(&mut process, 20, 77);

        let mut a = WorkloadService::train(spec.clone(), goal.clone(), config()).unwrap();
        for q in &stream {
            a.offer_as(q.template, q.class, q.arrival).unwrap();
        }
        a.drain();

        let mut b = WorkloadService::train(spec, goal, config()).unwrap();
        for q in &stream {
            let outcomes = b
                .offer_batch_as(q.class, &[(q.template, q.arrival)])
                .unwrap();
            assert_eq!(outcomes, vec![OfferOutcome::Admitted]);
        }
        b.drain();

        assert_eq!(a.completions(), b.completions());
        assert_eq!(scrub(a.snapshot()), scrub(b.snapshot()));
    }

    #[test]
    fn coalesced_bursts_plan_once_and_complete_everything() {
        let mut svc = service(GoalKind::MaxLatency);
        // Three arrivals in one burst: one plan call covers all three.
        let burst = [
            (TemplateId(0), Millis::from_secs(10)),
            (TemplateId(1), Millis::from_secs(11)),
            (TemplateId(1), Millis::from_secs(12)),
        ];
        let outcomes = svc.offer_batch_as(TenantId::DEFAULT, &burst).unwrap();
        assert_eq!(outcomes, vec![OfferOutcome::Admitted; 3]);
        svc.drain();
        let last = svc.snapshot();
        assert_eq!(last.admitted, 3);
        assert_eq!(last.completed, 3);
        // Admission still gates inside a burst: with MaxPending(1), the
        // burst's own earlier newcomers trip the limit for later ones.
        let mut cfg = config();
        cfg.admission = AdmissionPolicy::MaxPending(1);
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut tight = WorkloadService::train(spec, goal, cfg).unwrap();
        let outcomes = tight.offer_batch_as(TenantId::DEFAULT, &burst).unwrap();
        assert_eq!(outcomes[0], OfferOutcome::Admitted);
        assert!(
            outcomes[1..].contains(&OfferOutcome::Shed),
            "burst-local pending must count toward admission: {outcomes:?}"
        );
        tight.drain();
        let last = tight.snapshot();
        assert_eq!(last.admitted + last.rejected, 3);
    }

    #[test]
    fn empty_burst_is_a_no_op() {
        let mut svc = service(GoalKind::MaxLatency);
        assert_eq!(svc.offer_batch_as(TenantId::DEFAULT, &[]).unwrap(), vec![]);
        assert_eq!(svc.snapshot().admitted, 0);
    }

    #[test]
    fn inconsistent_plans_fail_the_request_not_the_process() {
        // Drive validate_plan directly with malformed plans: an assignment
        // with no VM to target, a provision outside the spec, and an
        // unsupported placement must all come back as typed errors.
        let svc = service(GoalKind::MaxLatency);
        let bad_target = [PlannedStep::Assign {
            query: QueryId(0),
            template: TemplateId(0),
        }];
        assert!(matches!(
            svc.core.validate_plan(&bad_target, None),
            Err(CoreError::InconsistentPlan { .. })
        ));
        let bad_type = [PlannedStep::Provision(wisedb_core::VmTypeId(99))];
        assert!(matches!(
            svc.core.validate_plan(&bad_type, None),
            Err(CoreError::InconsistentPlan { .. })
        ));
        // A well-formed plan passes.
        let good = [
            PlannedStep::Provision(wisedb_core::VmTypeId(0)),
            PlannedStep::Assign {
                query: QueryId(0),
                template: TemplateId(1),
            },
        ];
        assert!(svc.core.validate_plan(&good, None).is_ok());
    }

    #[test]
    fn swap_model_takes_effect_without_disturbing_in_flight_work() {
        let spec = spec();
        let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
        let mut svc = WorkloadService::train(spec.clone(), goal.clone(), config()).unwrap();

        // Feed a burst so work is committed and queued mid-stream.
        let stream = generate_stream(
            &mut PoissonProcess::per_second(0.05, TemplateMix::uniform(2)),
            10,
            5,
        );
        for a in &stream[..5] {
            svc.offer_as(a.template, a.class, a.arrival).unwrap();
        }
        let before = svc.completions().to_vec();

        // Background-retrained replacement (different sampling seed).
        let (model, artifacts) = ModelGenerator::new(
            svc.scheduler(TenantId::DEFAULT)
                .unwrap()
                .base_model()
                .spec_handle()
                .clone(),
            svc.classes()[0].goal.clone(),
            config().online.training.with_seed(4242),
        )
        .train_with_artifacts()
        .unwrap();
        svc.swap_model(TenantId::DEFAULT, model.clone(), artifacts.clone())
            .unwrap();

        // Already-harvested completions are untouched by the swap.
        assert_eq!(&svc.completions()[..before.len()], &before[..]);
        // The swapped model is what plans the next arrival.
        assert_eq!(
            svc.scheduler(TenantId::DEFAULT)
                .unwrap()
                .base_model()
                .render_tree(),
            model.render_tree()
        );
        for a in &stream[5..] {
            svc.offer_as(a.template, a.class, a.arrival).unwrap();
        }
        svc.drain();
        let last = svc.snapshot();
        assert_eq!(last.completed, 10, "service keeps running after a swap");

        // A model for the wrong goal is rejected.
        let other_goal = PerformanceGoal::paper_default(GoalKind::AverageLatency, &spec).unwrap();
        let (bad, bad_artifacts) = ModelGenerator::new(
            svc.scheduler(TenantId::DEFAULT)
                .unwrap()
                .base_model()
                .spec_handle()
                .clone(),
            other_goal,
            config().online.training,
        )
        .train_with_artifacts()
        .unwrap();
        assert!(matches!(
            svc.swap_model(TenantId::DEFAULT, bad, bad_artifacts),
            Err(CoreError::ModelMismatch { .. })
        ));
    }
}
