//! The shard layout: which planner lane owns which tenant class, the
//! persistent worker threads behind the lanes, and the tick counters.
//!
//! [`WorkloadService::offer_tick`] admits a tick's class groups serially,
//! plans every group against one epoch-stamped [`ClusterView`], and
//! merges the plans in tick order. This module is the *where* of the
//! middle phase. With [`ShardConfig::shards`] `== 1` (the default) there
//! is no worker thread and no channel: the groups are planned on the
//! calling thread, in tick order. With `shards > 1` each group travels
//! over an mpsc channel to the persistent worker that owns its class and
//! the shards plan in parallel. The workers are persistent on purpose:
//! pinned to one CPU, a 2-shard fan-out costs 11.8 µs per tick with
//! persistent workers, 27.5 µs with one scoped spawn plus inline
//! planning, and 115.6 µs with two scoped spawns. A one-group tick never
//! gets here — it has nothing to fan out and takes the service's inline
//! [`offer_batch_as`](WorkloadService::offer_batch_as) path.
//!
//! ## Determinism
//!
//! A group's plan depends only on the epoch view, the group's batch, and
//! its class's scheduler state — none of which depend on the shard count
//! or the class→shard assignment — and the merge applies plans in tick
//! order. Hence verdicts, completions, bills, and metrics are
//! **bit-identical** for *any* shard count, and the greedy load-skew
//! **rebalancer** (which moves hot classes between shards on a
//! wall-clock EMA, an inherently nondeterministic signal) can never
//! perturb outputs: it only changes *where* a plan is computed.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use wisedb_advisor::online::{ArrivalPlan, ClusterView, OnlineScheduler, PendingArrival};
use wisedb_core::{CoreError, CoreResult, Millis, TemplateId, TenantId};

use crate::service::WorkloadService;

/// The one engine under its former name. `benchmark/` still says
/// `ShardedService`; the alias and the `into_sharded` name wait for a
/// benchmark PR to be renamed.
pub type ShardedService = WorkloadService;

/// The load signal the rebalancer ranks shards and classes by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSignal {
    /// Wall-clock planning time per tick (microseconds) — the honest
    /// production signal, but machine-dependent.
    PlanTime,
    /// Planned batch size per tick — a deterministic proxy for plan cost,
    /// used where reproducible rebalance counts matter (tests, the
    /// regress harness).
    BatchSize,
}

/// EMA smoothing factor for the per-shard and per-class load averages;
/// higher weighs recent ticks more.
const EMA_ALPHA: f64 = 0.2;

/// The shard layout of a [`WorkloadService`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of scheduler shards. `0` is treated as `1`. One shard plans
    /// every tick on the calling thread; `N > 1` starts `N` planner
    /// worker threads that multi-group ticks fan out to.
    pub shards: usize,
    /// Check for load skew every this many ticks (`0` disables
    /// rebalancing entirely).
    pub rebalance_every: u64,
    /// Rebalance when the hottest shard's load EMA exceeds the coldest's
    /// by this factor (and the hot shard has at least two classes).
    pub skew_threshold: f64,
    /// What "load" means; see [`LoadSignal`].
    pub signal: LoadSignal,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: 1,
            rebalance_every: 64,
            skew_threshold: 2.0,
            signal: LoadSignal::PlanTime,
        }
    }
}

impl ShardConfig {
    /// A config with `shards` shards and everything else default.
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            ..ShardConfig::default()
        }
    }
}

/// One class group of a scheduling tick: the class plus its arrivals
/// (`(template, at)` pairs in non-decreasing `at` order; groups must also
/// be tick-ordered by their first arrival).
pub type TickGroup = (TenantId, Vec<(TemplateId, Millis)>);

/// One group's planning work: the class's scheduler travels with the
/// batch and comes back with the plan.
pub(crate) struct PlanTask {
    /// Position of the group in the tick (the merge order).
    pub(crate) seq: usize,
    pub(crate) class: TenantId,
    pub(crate) scheduler: OnlineScheduler,
    pub(crate) batch: Vec<PendingArrival>,
    pub(crate) planned_at: Millis,
    /// The plan and the wall-clock seconds it took, once planned.
    pub(crate) planned: Option<(CoreResult<ArrivalPlan>, f64)>,
}

/// One epoch's work for one shard worker, and the same tasks coming back
/// planned.
struct ShardJob {
    epoch: u64,
    view: Arc<ClusterView>,
    tasks: Vec<PlanTask>,
}

/// Plans one shard's share of an epoch, in the order given — the body of
/// a worker's loop, and all of the plan phase when there is one shard.
fn plan_tasks(shard: usize, epoch: u64, view: &ClusterView, tasks: &mut [PlanTask]) {
    let mut span = wisedb_obs::span("shard.plan");
    if span.recording() {
        span.attr_u64("shard", shard as u64);
        span.attr_u64("epoch", epoch);
        span.attr_u64("groups", tasks.len() as u64);
    }
    let started = Instant::now();
    for task in tasks {
        let t0 = Instant::now();
        let result = task
            .scheduler
            .plan_arrivals(view, &task.batch, task.planned_at);
        task.planned = Some((result, t0.elapsed().as_secs_f64()));
    }
    drop(span);
    wisedb_obs::observe_us("wisedb_shard_plan_us", started.elapsed().as_micros() as u64);
}

/// A persistent shard worker thread. Dropping it closes its job channel,
/// which ends the worker's loop; the join on drop is what makes the
/// layout safe to replace at any point between ticks.
struct ShardWorker {
    tx: Option<Sender<ShardJob>>,
    handle: Option<JoinHandle<()>>,
}

impl Drop for ShardWorker {
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn spawn_worker(shard: usize, done_tx: Sender<ShardJob>) -> ShardWorker {
    let (tx, rx): (Sender<ShardJob>, Receiver<ShardJob>) = channel();
    let handle = std::thread::Builder::new()
        .name(format!("wisedb-shard-{shard}"))
        .spawn(move || {
            while let Ok(mut job) = rx.recv() {
                plan_tasks(shard, job.epoch, &job.view, &mut job.tasks);
                if done_tx.send(job).is_err() {
                    // The service is gone; schedulers die with the batch.
                    break;
                }
            }
        })
        .expect("spawning a shard worker thread succeeds");
    ShardWorker {
        tx: Some(tx),
        handle: Some(handle),
    }
}

/// Aggregate counters of a service's scheduling ticks; see
/// [`stats`](WorkloadService::stats).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardStats {
    /// Configured shard count.
    pub shards: usize,
    /// Scheduling ticks processed (inline one-group calls count as
    /// one-group ticks).
    pub ticks: u64,
    /// Epochs snapshotted — multi-group ticks that reached the plan
    /// phase. Independent of the shard count.
    pub epochs: u64,
    /// Plan calls issued across all shards (deterministic for a fixed
    /// trace and tick structure).
    pub decisions: u64,
    /// Plans validated and applied by the merge step (deterministic).
    pub merged_plans: u64,
    /// Greedy class moves the rebalancer performed.
    pub rebalances: u64,
    /// Per-shard lanes, indexed by shard id.
    pub per_shard: Vec<ShardLaneStats>,
}

/// One shard's slice of [`ShardStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardLaneStats {
    /// Classes currently assigned to this shard.
    pub classes: Vec<TenantId>,
    /// Plan calls this shard has executed.
    pub decisions: u64,
    /// The shard's current load EMA (microseconds or batch size,
    /// depending on [`ShardConfig::signal`]). Stays `0` with one shard,
    /// where there is nothing to balance.
    pub load_ema: f64,
}

/// Where a [`WorkloadService`]'s plans are computed: the class → shard
/// assignment, the worker pool behind it (none with one shard), the load
/// EMAs the rebalancer moves classes by, and the tick counters.
pub(crate) struct ShardLayout {
    config: ShardConfig,
    /// Class → shard, rewritten by the rebalancer.
    assignment: Vec<usize>,
    /// The workers, indexed by shard, and the channel their finished jobs
    /// come back on. `None` with one shard: no thread, no channel.
    pool: Option<(Vec<ShardWorker>, Receiver<ShardJob>)>,
    /// The counters as reported; the lanes' `classes` are filled in from
    /// `assignment` on the way out.
    stats: ShardStats,
    /// Per-class load EMA (what the rebalancer moves by).
    class_ema: Vec<f64>,
}

impl ShardLayout {
    /// Lays `classes` classes out over `config.shards` shards round-robin
    /// (the rebalancer refines it under load) and starts the workers.
    pub(crate) fn new(mut config: ShardConfig, classes: usize) -> Self {
        config.shards = config.shards.max(1);
        let shards = config.shards;
        let pool = (shards > 1).then(|| {
            let (done_tx, done_rx) = channel();
            let workers = (0..shards).map(|s| spawn_worker(s, done_tx.clone()));
            (workers.collect(), done_rx)
        });
        let lane = ShardLaneStats {
            classes: Vec::new(),
            decisions: 0,
            load_ema: 0.0,
        };
        ShardLayout {
            config,
            assignment: (0..classes).map(|c| c % shards).collect(),
            pool,
            stats: ShardStats {
                shards,
                ticks: 0,
                epochs: 0,
                decisions: 0,
                merged_plans: 0,
                rebalances: 0,
                per_shard: vec![lane; shards],
            },
            class_ema: vec![0.0; classes],
        }
    }

    /// Worker threads alive (`0` with one shard).
    #[cfg(test)]
    pub(crate) fn worker_threads(&self) -> usize {
        self.pool.as_ref().map_or(0, |(workers, _)| workers.len())
    }

    pub(crate) fn stats(&self) -> ShardStats {
        let mut stats = self.stats.clone();
        for (class, &shard) in self.assignment.iter().enumerate() {
            stats.per_shard[shard].classes.push(TenantId(class as u32));
        }
        stats
    }

    /// Opens a tick.
    pub(crate) fn begin_tick(&mut self) {
        self.stats.ticks += 1;
    }

    /// Counts one plan the merge validated and applied.
    pub(crate) fn merged(&mut self) {
        self.stats.merged_plans += 1;
        wisedb_obs::counter_add("wisedb_shard_merged_plans_total", 1);
    }

    /// Phase 2 of a multi-group tick: stamps the epoch and plans every
    /// task against `view` — here, in order, with one shard; on the
    /// workers that own the tasks' classes otherwise. Returns the tasks,
    /// planned, in tick (`seq`) order. The error fires only on
    /// infrastructure failure (a dead worker), which poisons the tick.
    pub(crate) fn plan(
        &mut self,
        view: ClusterView,
        mut tasks: Vec<PlanTask>,
    ) -> CoreResult<Vec<PlanTask>> {
        self.stats.epochs += 1;
        let epoch = self.stats.epochs;
        if let Some((workers, done_rx)) = &self.pool {
            let view = Arc::new(view);
            let mut by_shard: Vec<Vec<PlanTask>> = workers.iter().map(|_| Vec::new()).collect();
            for task in tasks.drain(..) {
                by_shard[self.assignment[task.class.index()]].push(task);
            }
            let mut jobs_sent = 0usize;
            for (shard, tasks) in by_shard.into_iter().enumerate() {
                if tasks.is_empty() {
                    continue;
                }
                let job = ShardJob {
                    epoch,
                    view: Arc::clone(&view),
                    tasks,
                };
                workers[shard]
                    .tx
                    .as_ref()
                    .expect("workers hold their sender until drop")
                    .send(job)
                    .map_err(|_| CoreError::InconsistentPlan {
                        detail: format!("shard {shard} worker is gone"),
                    })?;
                jobs_sent += 1;
            }
            for _ in 0..jobs_sent {
                let done = done_rx.recv().map_err(|_| CoreError::InconsistentPlan {
                    detail: "a shard worker died mid-epoch".to_string(),
                })?;
                tasks.extend(done.tasks);
            }
            tasks.sort_by_key(|t| t.seq);
        } else {
            plan_tasks(0, epoch, &view, &mut tasks);
        }
        let planned: Vec<_> = tasks
            .iter()
            .map(|t| {
                let secs = t.planned.as_ref().map_or(0.0, |(_, secs)| *secs);
                (t.class, secs, t.batch.len())
            })
            .collect();
        self.record(&planned);
        Ok(tasks)
    }

    /// The epoch [`plan`](Self::plan) last stamped.
    pub(crate) fn epoch(&self) -> u64 {
        self.stats.epochs
    }

    /// Counts one tick's plan calls — `(class, wall-clock seconds, batch
    /// size)` each; [`plan`](Self::plan) reports its own, the service
    /// reports the one it makes inline for a one-group tick — against
    /// their shards and, with more than one shard, folds their load into
    /// the EMAs the rebalancer reads. Every shard decays each tick — idle
    /// shards drift toward zero, so a shard whose classes went quiet
    /// eventually reads cold.
    pub(crate) fn record(&mut self, planned: &[(TenantId, f64, usize)]) {
        self.stats.decisions += planned.len() as u64;
        wisedb_obs::counter_add("wisedb_shard_decisions_total", planned.len() as u64);
        for &(class, ..) in planned {
            self.stats.per_shard[self.assignment[class.index()]].decisions += 1;
        }
        if self.config.shards < 2 {
            return;
        }
        let mut shard_load = vec![0.0f64; self.config.shards];
        let mut class_load = vec![0.0f64; self.class_ema.len()];
        for &(class, secs, batch) in planned {
            let load = match self.config.signal {
                LoadSignal::PlanTime => secs * 1e6,
                LoadSignal::BatchSize => batch as f64,
            };
            shard_load[self.assignment[class.index()]] += load;
            class_load[class.index()] += load;
        }
        for (lane, load) in self.stats.per_shard.iter_mut().zip(&shard_load) {
            lane.load_ema = EMA_ALPHA * load + (1.0 - EMA_ALPHA) * lane.load_ema;
        }
        for (ema, load) in self.class_ema.iter_mut().zip(&class_load) {
            *ema = EMA_ALPHA * load + (1.0 - EMA_ALPHA) * *ema;
        }
    }

    /// Greedy load-skew rebalancing: every `rebalance_every` ticks, if
    /// the hottest shard's EMA exceeds the coldest's by the skew
    /// threshold and the hot shard has at least two classes, move its
    /// hottest class to the coldest shard. Because plans are a function
    /// of (snapshot, batch, class scheduler) and merges run in tick
    /// order, moving a class never changes any output — only where its
    /// plans are computed. Called once at the end of every tick.
    pub(crate) fn maybe_rebalance(&mut self, now: Millis) {
        let every = self.config.rebalance_every;
        if self.config.shards < 2 || every == 0 || self.stats.ticks % every != 0 {
            return;
        }
        let ema = |s: usize| self.stats.per_shard[s].load_ema;
        let (mut hot, mut cold) = (0usize, 0usize);
        for s in 1..self.config.shards {
            if ema(s) > ema(hot) {
                hot = s;
            }
            if ema(s) < ema(cold) {
                cold = s;
            }
        }
        if hot == cold || ema(hot) <= self.config.skew_threshold * ema(cold) {
            return;
        }
        let mover = (0..self.assignment.len())
            .filter(|&c| self.assignment[c] == hot)
            .max_by(|&a, &b| {
                self.class_ema[a]
                    .partial_cmp(&self.class_ema[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        let hot_classes = self.assignment.iter().filter(|&&s| s == hot).count();
        let Some(mover) = mover else { return };
        if hot_classes < 2 {
            return;
        }
        self.assignment[mover] = cold;
        self.stats.rebalances += 1;
        wisedb_obs::counter_add("wisedb_shard_rebalances_total", 1);
        wisedb_obs::instant("shard.rebalance")
            .virt(now)
            .attr_u64("class", mover as u64)
            .attr_u64("from", hot as u64)
            .attr_u64("to", cold as u64)
            .emit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{config, scrub, spec, tagged_stream, three_classes};
    use crate::service::OfferOutcome;
    use wisedb_advisor::ModelConfig;

    /// A three-class service over `shards` shards.
    fn service(shard_config: ShardConfig) -> WorkloadService {
        let spec = spec();
        let classes = three_classes(&spec);
        WorkloadService::train_classes(spec, classes, config())
            .unwrap()
            .into_sharded(shard_config)
    }

    #[test]
    fn multi_group_ticks_are_deterministic_across_shard_counts() {
        let stream = tagged_stream(8);

        let mut reports = Vec::new();
        let mut stats = Vec::new();
        for shards in [1usize, 2, 3] {
            let mut svc = service(ShardConfig::with_shards(shards));
            reports.push(svc.run_ticked(&stream, 4).unwrap());
            // One shard ran those multi-group ticks on this thread: it has
            // no worker to send them to. More shards, that many workers.
            let workers = if shards == 1 { 0 } else { shards };
            assert_eq!(svc.shards.worker_threads(), workers);
            stats.push(svc.stats());
            assert_eq!(stats[shards - 1].per_shard.len(), shards);
        }
        let last = scrub(reports[0].last.clone());
        for report in &reports[1..] {
            assert_eq!(reports[0].completions, report.completions);
            assert_eq!(last, scrub(report.last.clone()));
        }
        // The tick structure (and hence the epoch and plan-call counts)
        // is also independent of the shard count.
        for other in &stats[1..] {
            assert_eq!(stats[0].epochs, other.epochs);
            assert_eq!(stats[0].decisions, other.decisions);
            assert_eq!(stats[0].merged_plans, other.merged_plans);
        }
        assert!(stats[0].epochs > 0, "ticks of 4 span several classes");
        assert_eq!(last.completed, 24);
    }

    #[test]
    fn ticked_replay_matches_per_arrival_replay_for_singleton_ticks() {
        let stream = tagged_stream(5);

        let mut by_hand = service(ShardConfig::default());
        for q in &stream {
            assert!(by_hand.offer_as(q.template, q.class, q.arrival).unwrap());
        }
        by_hand.drain();

        let mut ticked = service(ShardConfig::with_shards(2));
        let report = ticked.run_ticked(&stream, 1).unwrap();

        assert_eq!(by_hand.completions(), &report.completions[..]);
        assert_eq!(scrub(by_hand.snapshot()), scrub(report.last));
        // One-group ticks are planned inline at any shard count: counted,
        // but never snapshotted or fanned out.
        for stats in [by_hand.stats(), ticked.stats()] {
            assert_eq!((stats.ticks, stats.epochs), (15, 0));
            assert_eq!((stats.decisions, stats.merged_plans), (15, 15));
        }
    }

    #[test]
    fn rebalancer_moves_classes_without_perturbing_outputs() {
        let stream = tagged_stream(10);
        let run = |shard_config: ShardConfig| {
            let mut svc = service(shard_config);
            let report = svc.run_ticked(&stream, 3).unwrap();
            (report, svc.stats())
        };

        // BatchSize is the deterministic signal; an aggressive cadence and
        // threshold force moves on the skewed per-class tick sizes.
        let eager = ShardConfig {
            shards: 2,
            rebalance_every: 2,
            skew_threshold: 1.01,
            signal: LoadSignal::BatchSize,
        };
        let frozen = ShardConfig {
            rebalance_every: 0,
            ..eager.clone()
        };
        let (moved, moved_stats) = run(eager);
        let (still, still_stats) = run(frozen);

        assert!(moved_stats.rebalances > 0, "the skewed trace forces a move");
        assert_eq!(still_stats.rebalances, 0);
        assert_eq!(moved.completions, still.completions);
        assert_eq!(scrub(moved.last), scrub(still.last));
        assert_eq!(moved_stats.decisions, still_stats.decisions);
    }

    #[test]
    fn tick_groups_fail_independently() {
        let mut svc = service(ShardConfig::with_shards(2));
        let at = Millis::from_secs(5);
        let results = svc
            .offer_tick(&[
                (TenantId(0), vec![(TemplateId(0), at)]),
                (TenantId(9), vec![(TemplateId(0), at)]),
                (TenantId(1), vec![(TemplateId(1), at)]),
                // Class 0's scheduler is already out planning the first
                // group: a second group is refused, not planned.
                (TenantId(0), vec![(TemplateId(1), at)]),
            ])
            .unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        assert!(matches!(
            results[1],
            Err(CoreError::UnknownTenantClass { class: TenantId(9) })
        ));
        assert_eq!(results[2].as_ref().unwrap(), &vec![OfferOutcome::Admitted]);
        assert!(matches!(
            results[3],
            Err(CoreError::InconsistentPlan { .. })
        ));
        svc.drain();
        assert_eq!(svc.snapshot().completed, 2);
    }

    #[test]
    fn into_sharded_mid_session_continues_the_same_session() {
        let stream = tagged_stream(4);
        let (head, tail) = stream.split_at(6);

        let mut svc = service(ShardConfig::default());
        for q in head {
            svc.offer_as(q.template, q.class, q.arrival).unwrap();
        }
        let mut svc = svc.into_sharded(ShardConfig::with_shards(3));
        assert_eq!(svc.snapshot().admitted, 6, "the books moved over");
        let report = svc.run_ticked(tail, 3).unwrap();

        let mut reference = service(ShardConfig::default());
        for q in head {
            reference.offer_as(q.template, q.class, q.arrival).unwrap();
        }
        let reference_report = reference.run_ticked(tail, 3).unwrap();
        assert_eq!(report.completions, reference_report.completions);
        assert_eq!(scrub(report.last), scrub(reference_report.last));
    }

    #[test]
    fn swap_model_rejects_mismatches_and_applies_matches() {
        let mut svc = service(ShardConfig::with_shards(2));

        // A model trained for class 1's goal fits class 1, not class 0.
        let goal = svc.classes()[1].goal.clone();
        let generator = wisedb_advisor::ModelGenerator::new(
            svc.scheduler(TenantId(1))
                .unwrap()
                .base_model()
                .spec_handle()
                .clone(),
            goal,
            ModelConfig {
                num_samples: 40,
                sample_size: 5,
                seed: 9,
                ..ModelConfig::fast()
            },
        );
        let (model, artifacts) = generator.train_with_artifacts().unwrap();
        assert!(matches!(
            svc.swap_model(TenantId(0), model.clone(), artifacts.clone()),
            Err(CoreError::ModelMismatch { .. })
        ));
        assert!(matches!(
            svc.swap_model(TenantId(9), model.clone(), artifacts.clone()),
            Err(CoreError::UnknownTenantClass { .. })
        ));
        svc.swap_model(TenantId(1), model, artifacts).unwrap();
        assert!(svc
            .offer_as(TemplateId(0), TenantId(1), Millis::from_secs(1))
            .unwrap());
    }
}
