//! The four workloads, each as one repetition from fresh state.
//!
//! Every workload walks the same life cycle on the ten-template catalog —
//! generate inputs, train one model per SLA class cold, push queries
//! through its own front door, then retrain warm, adapt to a tightened
//! goal and batch-schedule with the models it trained — so every
//! end-to-end metric exists on every workload. What differs is the front
//! door and therefore which layer does the work:
//!
//! | workload        | front door ("offer")              | busy layer            |
//! |-----------------|-----------------------------------|-----------------------|
//! | serve-steady    | `Client::offer`, tree descent only | `serve`               |
//! | serve-aged      | `Client::offer`, default quantum   | `advisor`/`search`/`learn` on the request path |
//! | tenants-ticked  | `ShardedService::offer_tick` of 32 | `runtime`/`sim::live` |
//! | advisor-offline | `DecisionModel::schedule_batch`    | `search`/`learn`/`advisor`/`core` |
//!
//! A repetition builds new models, a new service and a new server; the
//! caller repeats it and takes medians. Inputs depend only on the seed, so
//! every repetition of a run sees the same arrivals and its virtual-clock
//! outputs (cost, violations, fingerprint) must repeat exactly.

use std::hash::{Hash, Hasher};
use std::time::Instant;

use wisedb_advisor::{
    DecisionModel, ModelConfig, ModelGenerator, MultiScheduler, OnlineConfig, OnlineScheduler,
    TrainingArtifacts,
};
use wisedb_core::{
    total_cost, ArrivingQuery, GoalKind, MetricsSnapshot, Millis, PerformanceGoal, SlaClass,
    TenantId, Workload, WorkloadSpec,
};
use wisedb_runtime::{
    LoadSignal, OfferOutcome, RuntimeConfig, ShardConfig, ShardStats, ShardedService, TickGroup,
    WorkloadService,
};
use wisedb_serve::{Client, ServeConfig, Server};
use wisedb_sim::{Completion, SimOptions};

use crate::{arrivals, stats};

/// Templates in the catalog every workload runs on.
pub const TEMPLATES: u32 = 10;
/// Arrivals coalesced into one `offer_tick` on tenants-ticked.
pub const TICK: usize = 32;
/// Queries in one front-door batch on advisor-offline (the small end of
/// the paper's Fig. 13; the 30 000-query end is `batch_kq_per_s`).
pub const ADVISOR_OFFER_QUERIES: usize = 1_000;
/// Distinct front-door batches advisor-offline cycles through.
const ADVISOR_OFFER_BATCHES: usize = 30;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeSteady,
    ServeAged,
    TenantsTicked,
    AdvisorOffline,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeSteady,
        Kind::ServeAged,
        Kind::TenantsTicked,
        Kind::AdvisorOffline,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeSteady => "serve-steady",
            Kind::ServeAged => "serve-aged",
            Kind::TenantsTicked => "tenants-ticked",
            Kind::AdvisorOffline => "advisor-offline",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One SLA class of a workload.
#[derive(Debug, Clone, Copy)]
pub struct ClassDef {
    pub name: &'static str,
    pub goal: GoalKind,
    pub priority: u8,
    /// Poisson arrival rate, per virtual second.
    pub rate_per_s: f64,
}

/// How big one repetition is. `quick` divides every count by ten (a smoke
/// size, never recorded).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Queries pushed through the front door in the timed section.
    pub queries: usize,
    /// Untimed offers sent first, to let connection and caches settle.
    pub warmup: usize,
    /// Training samples per model.
    pub samples: usize,
    /// Queries in the batch workload.
    pub batch_queries: usize,
    /// `schedule_batch` calls per model.
    pub batch_calls: usize,
}

impl Sizes {
    pub fn of(kind: Kind, quick: bool) -> Sizes {
        let base = Sizes {
            queries: 0,
            warmup: 0,
            samples: 0,
            batch_queries: 30_000,
            batch_calls: 3,
        };
        let full = match kind {
            Kind::ServeSteady => Sizes {
                queries: 5_000,
                warmup: 200,
                samples: 120,
                ..base
            },
            Kind::ServeAged => Sizes {
                queries: 6_000,
                samples: 50,
                ..base
            },
            Kind::TenantsTicked => Sizes {
                queries: 32_000, // 1 000 ticks: ten lie beyond a repetition's p99
                samples: 150,
                ..base
            },
            Kind::AdvisorOffline => Sizes {
                queries: 1_200_000, // 4 goals × 300 batches of 1 000
                samples: 60,
                ..base
            },
        };
        if quick {
            full.shrunk(10)
        } else {
            full
        }
    }

    /// Every count divided by `by` (at least 1 where the count was not 0).
    pub fn shrunk(self, by: usize) -> Sizes {
        let div = |n: usize| if n == 0 { 0 } else { (n / by).max(1) };
        Sizes {
            queries: div(self.queries),
            warmup: div(self.warmup),
            samples: div(self.samples).max(10),
            batch_queries: div(self.batch_queries),
            batch_calls: self.batch_calls,
        }
    }
}

pub fn class_defs(kind: Kind) -> Vec<ClassDef> {
    let class = |name, goal, priority, rate_per_s| ClassDef {
        name,
        goal,
        priority,
        rate_per_s,
    };
    match kind {
        Kind::ServeSteady => vec![class("steady", GoalKind::MaxLatency, 0, 0.5)],
        Kind::ServeAged => vec![
            class("gold", GoalKind::PerQuery, 2, 1.0 / 800.0),
            class("silver", GoalKind::MaxLatency, 1, 1.0 / 700.0),
            class("bronze", GoalKind::AverageLatency, 0, 1.0 / 600.0),
        ],
        // Dense on purpose: the stock `scaling` trace (1/250 s per class)
        // makes a 32-arrival tick span ~35 virtual minutes, a fifth of the
        // queries violate and penalties swamp the bill. No MaxLatency
        // class: its penalty is the single worst query's lateness, and
        // two of them swung the cost per query ±15 % between seeds.
        Kind::TenantsTicked => vec![
            class("tenant-0", GoalKind::PerQuery, 3, 0.5),
            class("tenant-1", GoalKind::AverageLatency, 2, 0.5),
            class("tenant-2", GoalKind::PerQuery, 1, 0.5),
            class("tenant-3", GoalKind::AverageLatency, 0, 0.5),
        ],
        Kind::AdvisorOffline => GoalKind::ALL
            .into_iter()
            .map(|goal| class(goal.name(), goal, 0, 0.0))
            .collect(),
    }
}

/// Queries per training sample. The service workloads train the small
/// models an online scheduler retrains with; advisor-offline trains
/// toward the paper's m = 18, smaller for Percentile goals, whose anytime
/// searches cost orders of magnitude more per sample. A* cost grows
/// exponentially in this number, so it is what sizes a repetition.
fn sample_size(kind: Kind, goal: GoalKind) -> usize {
    match (kind, goal) {
        (Kind::AdvisorOffline, GoalKind::Percentile) => 10,
        (Kind::AdvisorOffline, _) => 14,
        (Kind::ServeAged, _) => 8,
        _ => 9,
    }
}

/// The model configuration of every class of `kind`. The sampling seed
/// stays `ModelConfig::fast()`'s: the training samples are the program's
/// own draw, not an input, and a handful of heavy-tailed A* solves would
/// otherwise decide a run's training time by the luck of the seed.
pub fn model_config(kind: Kind, sizes: &Sizes, goal: GoalKind) -> ModelConfig {
    ModelConfig {
        num_samples: sizes.samples,
        sample_size: sample_size(kind, goal),
        ..ModelConfig::fast()
    }
}

/// serve-aged runs the **default** online configuration (250 ms quantum,
/// Reuse and Shift on): waits age past a quantum and pull cache lookups
/// and synchronous retrains into the round trip. The others pin the
/// quantum at an hour so every plan is a tree descent.
pub fn online_config(kind: Kind, training: ModelConfig) -> OnlineConfig {
    let age_quantum = match kind {
        Kind::ServeAged => OnlineConfig::default().age_quantum,
        _ => Millis::HOUR,
    };
    OnlineConfig {
        training,
        age_quantum,
        ..OnlineConfig::default()
    }
}

pub fn catalog() -> WorkloadSpec {
    wisedb_sim::catalog::tpch_like(TEMPLATES as usize)
}

/// The merged arrival trace of a service workload.
pub fn trace(kind: Kind, seed: u64, n: usize) -> Vec<ArrivingQuery> {
    let defs = class_defs(kind);
    let per_class = n.div_ceil(defs.len());
    let streams = defs
        .iter()
        .enumerate()
        .map(|(c, def)| {
            arrivals::poisson(
                seed,
                TenantId(c as u32),
                def.rate_per_s,
                TEMPLATES,
                per_class,
            )
        })
        .collect();
    let mut merged = arrivals::merge(streams);
    merged.truncate(n);
    merged
}

/// Runs `op` inside a benchmark span `name`; returns its result and how
/// many seconds it took.
fn timed<T>(name: &'static str, op: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let span = wisedb_obs::span(name);
    let result = op();
    drop(span);
    (result, started.elapsed().as_secs_f64())
}

/// One class, trained cold.
pub struct TrainedClass {
    pub sla: SlaClass,
    pub generator: ModelGenerator,
    pub model: DecisionModel,
    pub artifacts: TrainingArtifacts,
    pub cold_s: f64,
}

/// Trains every class of `kind` cold, one after the other.
pub fn train_cold(
    kind: Kind,
    sizes: &Sizes,
    spec: &WorkloadSpec,
) -> Result<Vec<TrainedClass>, String> {
    class_defs(kind)
        .iter()
        .map(|def| {
            let goal = PerformanceGoal::paper_default(def.goal, spec).map_err(err)?;
            let config = model_config(kind, sizes, def.goal);
            let generator = ModelGenerator::new(spec.clone(), goal.clone(), config);
            let (cold, cold_s) = timed("bench.train", || generator.train_with_artifacts());
            let (model, artifacts) = cold.map_err(err)?;
            Ok(TrainedClass {
                sla: SlaClass::new(def.name, goal).with_priority(def.priority),
                generator,
                model,
                artifacts,
                cold_s,
            })
        })
        .collect()
}

/// A service over clones of the trained models, so the same models can
/// also back an in-process twin of a wire run.
pub fn build_service(kind: Kind, trained: &[TrainedClass]) -> Result<WorkloadService, String> {
    let online = online_config(kind, trained[0].generator.config().clone());
    let schedulers = trained
        .iter()
        .map(|t| {
            let online = online_config(kind, t.generator.config().clone());
            OnlineScheduler::with_model(t.model.clone(), t.artifacts.clone(), online)
        })
        .collect();
    let classes = trained.iter().map(|t| t.sla.clone()).collect();
    let multi =
        MultiScheduler::with_schedulers(classes, schedulers, online.clone()).map_err(err)?;
    Ok(WorkloadService::with_multi(
        multi,
        RuntimeConfig {
            online,
            ..RuntimeConfig::default()
        },
    ))
}

/// What the life-cycle operations after the front door measured.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    pub warm_s: f64,
    pub adapt_s: f64,
    pub batch_wall_s: f64,
    pub batch_queries: u64,
    /// Σ Eq. 1 cost of one schedule per class, in dollars.
    pub batch_cost: f64,
    pub per_class: Vec<ClassLifecycle>,
}

/// The same, split by class (the layer ledger reports these per goal).
#[derive(Debug, Clone, Default)]
pub struct ClassLifecycle {
    pub goal: &'static str,
    pub cold_s: f64,
    pub warm_s: f64,
    pub reseed_s: f64,
    pub adapt_s: f64,
    pub batch_s_per_call: f64,
    pub total_cost_s: f64,
    pub solves: u64,
    pub warm_solves: u64,
    pub reseed_solves: u64,
    pub cache_hits: u64,
    pub dataset_rows: u64,
    pub guard_steps: u64,
    pub steps: u64,
}

/// Warm retrain, reseeded retrain, tightening retrain and batch
/// scheduling with every trained class, checking each output:
/// the warm tree equals the cold one with zero solves, every schedule
/// places each query exactly once, and Eq. 1 `total_cost` equals the
/// simulated cluster's bill.
pub fn lifecycle(
    spec: &WorkloadSpec,
    trained: &mut [TrainedClass],
    batch: &Workload,
    calls: usize,
) -> Result<Lifecycle, String> {
    let mut out = Lifecycle::default();
    for t in trained.iter_mut() {
        let goal = t.sla.goal.clone();
        let name = goal.kind().name();
        let mut row = ClassLifecycle {
            goal: name,
            cold_s: t.cold_s,
            solves: t.model.stats().solves,
            cache_hits: t.model.stats().cache_hits,
            dataset_rows: t.model.stats().num_rows as u64,
            ..ClassLifecycle::default()
        };
        let warm_start = t.artifacts.warm_start();

        // Same seed against the populated cache: every signature hits.
        let (warm, warm_s) = timed("bench.train", || t.generator.retrain_from(&warm_start));
        let (warm, _) = warm.map_err(err)?;
        row.warm_s = warm_s;
        row.warm_solves = warm.stats().solves;
        if warm.stats().solves != 0 {
            return Err(format!(
                "{name}: warm retrain ran {} solves",
                warm.stats().solves
            ));
        }
        if warm.tree() != t.model.tree() {
            return Err(format!("{name}: warm tree differs from the cold tree"));
        }

        // A fresh draw against the populated cache: misses only where the
        // new samples' template multisets are new.
        let config = t.generator.config().clone();
        let reseeded = ModelGenerator::new(
            spec.clone(),
            goal.clone(),
            config.clone().with_seed(config.seed ^ 0xD1F7),
        );
        let (shifted, reseed_s) = timed("bench.train", || reseeded.retrain_from(&warm_start));
        row.reseed_s = reseed_s;
        row.reseed_solves = shifted.map_err(err)?.0.stats().solves;

        // §5 adaptive retraining for a goal 20 % tighter.
        let tightened = goal.tighten_pct(spec, 0.2);
        let (adapted, adapt_s) = timed("bench.train", || {
            t.generator.retrain_tightened(&tightened, &mut t.artifacts)
        });
        adapted.map_err(err)?;
        row.adapt_s = adapt_s;

        // Batch scheduling: the plan once (for the guard share and the
        // checks), then the timed calls.
        let (schedule, plan) = t.model.schedule_batch_with_plan(batch).map_err(err)?;
        schedule.validate_complete(batch).map_err(err)?;
        row.steps = plan.decisions.len() as u64;
        row.guard_steps = plan
            .decisions
            .iter()
            .filter(|(_, source)| *source == wisedb_advisor::StepSource::Fallback)
            .count() as u64;
        let started = Instant::now();
        let cost = total_cost(spec, &goal, &schedule).map_err(err)?;
        row.total_cost_s = started.elapsed().as_secs_f64();
        let billed = wisedb_sim::execute(spec, &schedule, &SimOptions::default())
            .map_err(err)?
            .total_cost(&goal);
        if !cost.approx_eq(billed, 1e-9 * cost.as_dollars().abs().max(1.0)) {
            return Err(format!(
                "{name}: total_cost {} differs from the simulated bill {}",
                cost.as_dollars(),
                billed.as_dollars()
            ));
        }
        out.batch_cost += cost.as_dollars();

        let mut class_wall = 0.0;
        for _ in 0..calls {
            let (again, took) = timed("bench.batch", || {
                t.model.schedule_batch(std::hint::black_box(batch))
            });
            class_wall += took;
            if again.map_err(err)? != schedule {
                return Err(format!("{name}: schedule_batch is not repeatable"));
            }
        }
        row.batch_s_per_call = class_wall / calls.max(1) as f64;

        out.warm_s += row.warm_s;
        out.adapt_s += row.adapt_s;
        out.batch_wall_s += class_wall;
        out.batch_queries += (calls * batch.len()) as u64;
        out.per_class.push(row);
    }
    Ok(out)
}

/// What one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Everything before the first timed front-door call: input
    /// generation, cold training, service construction, server spawn,
    /// connect and warm-up offers.
    pub setup_s: f64,
    pub train_cold_s: f64,
    /// Per-offer front-door latencies, in offer order.
    pub offer_us: Vec<f64>,
    /// Wall of the timed front-door section (with `drain()` on
    /// tenants-ticked).
    pub front_wall_s: f64,
    /// Queries the front door placed in the timed section.
    pub queries: u64,
    pub attempted: u64,
    pub failed: u64,
    pub life: Lifecycle,
    /// (billed + penalty) / completed after drain, in milli-cents; for
    /// advisor-offline Σ `total_cost` / queries over the 30 000-query
    /// schedules. Virtual clock: exact.
    pub cost_mc_per_query: f64,
    pub violation_share: f64,
    /// Order-sensitive digest of the outputs; must repeat exactly.
    pub fingerprint: u64,
    /// Digest of the scrubbed metrics snapshot taken after the last offer
    /// (serve workloads; over the wire, or in process for the twin).
    pub snapshot_digest: u64,
    pub drain_ms: f64,
    pub snapshot_us: f64,
    /// p50 of the control round trips asked for (serve workloads).
    pub telemetry_rtt_us: f64,
    pub metrics_rtt_us: f64,
    /// (Reuse, Shift, augmented-view) cache entries, summed over classes.
    pub cache_entries: (usize, usize, usize),
    pub shard_stats: Option<ShardStats>,
}

const MILLICENTS_PER_DOLLAR: f64 = 100_000.0;

/// How the front-door part of a repetition is run.
#[derive(Debug, Clone, Copy)]
pub struct FrontOpts {
    /// Shards of the tenants-ticked service.
    pub shards: usize,
    /// `Client::telemetry()` round trips timed after a serve segment (a
    /// twentieth as many `Client::metrics()` calls); 0 skips them.
    pub control_rtts: usize,
}

impl Default for FrontOpts {
    fn default() -> Self {
        FrontOpts {
            shards: 2,
            control_rtts: 0,
        }
    }
}

/// The front-door part of one repetition of `kind`: set-up, the timed
/// offers, and the output checks. The trained classes come back for the
/// life-cycle operations.
pub fn front(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    opts: FrontOpts,
) -> Result<(Rep, Vec<TrainedClass>), String> {
    match kind {
        Kind::ServeSteady | Kind::ServeAged => serve_front(kind, sizes, seed, opts.control_rtts),
        Kind::TenantsTicked => tenants_front(sizes, seed, opts.shards),
        Kind::AdvisorOffline => advisor_front(sizes, seed),
    }
}

/// One whole repetition of `kind`: [`front`], then [`lifecycle`].
pub fn run_rep(kind: Kind, sizes: &Sizes, seed: u64) -> Result<Rep, String> {
    let (mut rep, mut trained) = front(kind, sizes, seed, FrontOpts::default())?;
    let batch = batch_workload(sizes, seed);
    rep.life = lifecycle(&catalog(), &mut trained, &batch, sizes.batch_calls)?;
    if kind == Kind::AdvisorOffline {
        // No cluster ever runs: the outputs are the schedules themselves.
        rep.cost_mc_per_query =
            rep.life.batch_cost * MILLICENTS_PER_DOLLAR / (trained.len() * batch.len()) as f64;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        rep.life.batch_cost.to_bits().hash(&mut hasher);
        for row in &rep.life.per_class {
            (
                row.solves,
                row.reseed_solves,
                row.dataset_rows,
                row.guard_steps,
            )
                .hash(&mut hasher);
        }
        rep.fingerprint = hasher.finish();
    }
    Ok(rep)
}

pub fn batch_workload(sizes: &Sizes, seed: u64) -> Workload {
    arrivals::uniform_batch(seed, TEMPLATES, sizes.batch_queries)
}

pub fn elapsed_us(started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / 1e3
}

/// serve-steady and serve-aged: a closed loop of one client on one
/// connection against a one-worker, one-shard server.
fn serve_front(
    kind: Kind,
    sizes: &Sizes,
    seed: u64,
    control_rtts: usize,
) -> Result<(Rep, Vec<TrainedClass>), String> {
    let setup = Instant::now();
    let spec = catalog();
    let stream = trace(kind, seed, sizes.warmup + sizes.queries);
    let trained = train_cold(kind, sizes, &spec)?;
    let service = build_service(kind, &trained)?;
    let config = ServeConfig {
        workers: 1,
        shards: 1,
        ..ServeConfig::default()
    };
    let handle = Server::spawn(service, config).map_err(err)?;
    let mut client = Client::connect(handle.addr()).map_err(err)?;
    let mut rep = Rep {
        train_cold_s: trained.iter().map(|t| t.cold_s).sum(),
        ..Rep::default()
    };
    let (warmup, timed) = stream.split_at(sizes.warmup);
    for q in warmup {
        rep.attempted += 1;
        match client.offer(q.class, q.template, q.arrival) {
            Ok(OfferOutcome::Admitted) => {}
            Ok(OfferOutcome::Shed) | Err(_) => rep.failed += 1,
        }
    }
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.offer_us.reserve(timed.len());
    let front = Instant::now();
    for q in timed {
        let started = Instant::now();
        let span = wisedb_obs::span("bench.offer");
        let outcome = client.offer(q.class, q.template, q.arrival);
        drop(span);
        rep.offer_us.push(elapsed_us(started));
        rep.attempted += 1;
        match outcome {
            Ok(OfferOutcome::Admitted) => rep.queries += 1,
            // AcceptAll never sheds: a Shed here is a failure too.
            Ok(OfferOutcome::Shed) | Err(_) => rep.failed += 1,
        }
    }
    rep.front_wall_s = front.elapsed().as_secs_f64();

    // Control round trips at the end of the segment's history: telemetry
    // carries no plan (frame + JSON + two thread hops), metrics is the
    // operator path.
    let mut rtts = |n: usize, call: &mut dyn FnMut(&mut Client) -> bool| -> Result<f64, String> {
        let mut sample = Vec::with_capacity(n);
        for _ in 0..n {
            let started = Instant::now();
            if !call(&mut client) {
                return Err("a control round trip failed".into());
            }
            sample.push(elapsed_us(started));
        }
        Ok(if sample.is_empty() {
            0.0
        } else {
            stats::median(&sample)
        })
    };
    rep.telemetry_rtt_us = rtts(control_rtts, &mut |c| c.telemetry().is_ok())?;
    rep.metrics_rtt_us = rtts(control_rtts / 20, &mut |c| c.metrics().is_ok())?;

    let wire_snapshot = client.metrics().map_err(err)?;
    rep.snapshot_digest = digest_snapshot(&wire_snapshot);
    client.shutdown().map_err(err)?;
    drop(client);
    let mut service = handle
        .join()
        .ok_or("the scheduler thread did not hand the service back")?;
    settle(&mut rep, &mut service, stream.len() as u64)?;
    Ok((rep, trained))
}

/// The in-process twin of a serve repetition: the same trace through
/// `offer_as` on a service over identically trained models, no sockets.
/// Its per-offer latencies are the `runtime` share of a round trip, and
/// the wire run must reproduce its snapshot digest and fingerprint.
pub fn serve_twin(kind: Kind, sizes: &Sizes, seed: u64) -> Result<Rep, String> {
    let spec = catalog();
    let stream = trace(kind, seed, sizes.warmup + sizes.queries);
    let trained = train_cold(kind, sizes, &spec)?;
    let mut service = build_service(kind, &trained)?;
    let mut rep = Rep::default();
    let front = Instant::now();
    for (i, q) in stream.iter().enumerate() {
        let started = Instant::now();
        let admitted = service
            .offer_as(q.template, q.class, q.arrival)
            .map_err(err)?;
        if i >= sizes.warmup {
            rep.offer_us.push(elapsed_us(started));
        }
        rep.attempted += 1;
        rep.failed += u64::from(!admitted);
    }
    rep.front_wall_s = front.elapsed().as_secs_f64();
    rep.snapshot_digest = digest_snapshot(&service.snapshot());
    settle(&mut rep, &mut service, stream.len() as u64)?;
    Ok(rep)
}

/// Drains the service and fills in the virtual-clock outputs.
fn settle(rep: &mut Rep, service: &mut WorkloadService, offered: u64) -> Result<(), String> {
    let started = Instant::now();
    service.drain();
    rep.drain_ms = started.elapsed().as_secs_f64() * 1e3;
    for c in 0..service.classes().len() {
        let (reuse, shift, augment) = service
            .scheduler(TenantId(c as u32))
            .map_err(err)?
            .cache_sizes();
        rep.cache_entries.0 += reuse;
        rep.cache_entries.1 += shift;
        rep.cache_entries.2 += augment;
    }
    let last = service.snapshot();
    outputs(rep, &last, service.completions(), offered)
}

fn outputs(
    rep: &mut Rep,
    last: &MetricsSnapshot,
    completions: &[Completion],
    offered: u64,
) -> Result<(), String> {
    if last.admitted != offered {
        return Err(format!("admitted {} of {offered} offered", last.admitted));
    }
    if last.completed != last.admitted {
        return Err(format!(
            "completed {} of {} admitted after drain",
            last.completed, last.admitted
        ));
    }
    rep.cost_mc_per_query =
        last.total_cost().as_dollars() * MILLICENTS_PER_DOLLAR / last.completed as f64;
    rep.violation_share = last.violation_rate;
    rep.fingerprint = fingerprint(completions);
    Ok(())
}

/// The ticks of a trace, grouped by class in first-appearance order, as
/// `ShardedService::run_ticked` forms them.
pub fn ticks(stream: &[ArrivingQuery]) -> Vec<Vec<TickGroup>> {
    stream
        .chunks(TICK)
        .map(|chunk| {
            let mut groups: Vec<TickGroup> = Vec::new();
            for q in chunk {
                match groups.iter_mut().find(|(c, _)| *c == q.class) {
                    Some((_, arrivals)) => arrivals.push((q.template, q.arrival)),
                    None => groups.push((q.class, vec![(q.template, q.arrival)])),
                }
            }
            groups
        })
        .collect()
}

/// tenants-ticked: four classes on a sharded service, in process, no
/// sockets. The benchmark forms the ticks and calls `offer_tick` itself.
fn tenants_front(
    sizes: &Sizes,
    seed: u64,
    shards: usize,
) -> Result<(Rep, Vec<TrainedClass>), String> {
    let kind = Kind::TenantsTicked;
    let setup = Instant::now();
    let spec = catalog();
    let stream = trace(kind, seed, sizes.queries);
    let tick_groups = ticks(&stream);
    let trained = train_cold(kind, sizes, &spec)?;
    let mut service: ShardedService = build_service(kind, &trained)?.into_sharded(ShardConfig {
        shards,
        signal: LoadSignal::BatchSize,
        ..ShardConfig::default()
    });
    let mut rep = Rep {
        train_cold_s: trained.iter().map(|t| t.cold_s).sum(),
        ..Rep::default()
    };
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.offer_us.reserve(tick_groups.len());
    let front = Instant::now();
    for groups in &tick_groups {
        let started = Instant::now();
        let span = wisedb_obs::span("bench.tick");
        // One class in the tick: nothing to fan out, so take the inline
        // path exactly as `run_ticked` does.
        let verdicts = if let [(class, arrivals)] = &groups[..] {
            vec![service.offer_batch_as(*class, arrivals)]
        } else {
            service.offer_tick(groups).map_err(err)?
        };
        drop(span);
        rep.offer_us.push(elapsed_us(started));
        for (verdict, (_, arrivals)) in verdicts.iter().zip(groups) {
            let admitted = verdict.as_ref().map_or(0, |outcomes| {
                outcomes
                    .iter()
                    .filter(|o| **o == OfferOutcome::Admitted)
                    .count()
            }) as u64;
            rep.attempted += arrivals.len() as u64;
            rep.queries += admitted;
            rep.failed += arrivals.len() as u64 - admitted;
        }
    }
    let started = Instant::now();
    service.drain();
    rep.drain_ms = started.elapsed().as_secs_f64() * 1e3;
    rep.front_wall_s = front.elapsed().as_secs_f64();

    let started = Instant::now();
    for _ in 0..100 {
        std::hint::black_box(service.snapshot());
    }
    rep.snapshot_us = elapsed_us(started) / 100.0;
    let last = service.snapshot();
    outputs(&mut rep, &last, service.completions(), stream.len() as u64)?;
    rep.shard_stats = Some(service.stats());
    Ok((rep, trained))
}

/// advisor-offline: no service at all. The four goal kinds train cold
/// (set-up) and `schedule_batch` over 1 000-query batches is the front
/// door.
fn advisor_front(sizes: &Sizes, seed: u64) -> Result<(Rep, Vec<TrainedClass>), String> {
    let kind = Kind::AdvisorOffline;
    let setup = Instant::now();
    let spec = catalog();
    let calls_per_class = sizes.queries / GoalKind::ALL.len() / ADVISOR_OFFER_QUERIES;
    let offers: Vec<Workload> = (0..ADVISOR_OFFER_BATCHES.min(calls_per_class))
        .map(|i| {
            let stream = arrivals::stream_seed(seed, 0x0FFE_0000 + i as u64);
            arrivals::uniform_batch(stream, TEMPLATES, ADVISOR_OFFER_QUERIES)
        })
        .collect();
    let trained = train_cold(kind, sizes, &spec)?;
    let mut rep = Rep {
        train_cold_s: trained.iter().map(|t| t.cold_s).sum(),
        ..Rep::default()
    };
    rep.setup_s = setup.elapsed().as_secs_f64();

    rep.offer_us.reserve(calls_per_class * trained.len());
    let front = Instant::now();
    for t in &trained {
        for call in 0..calls_per_class {
            let offered = &offers[call % offers.len()];
            let started = Instant::now();
            let span = wisedb_obs::span("bench.batch");
            let schedule = t.model.schedule_batch(std::hint::black_box(offered));
            drop(span);
            rep.offer_us.push(elapsed_us(started));
            rep.attempted += 1;
            match schedule {
                // Each distinct (model, batch) pair is checked in full once.
                Ok(s) if call >= offers.len() || s.validate_complete(offered).is_ok() => {
                    rep.queries += s.num_queries() as u64;
                }
                _ => rep.failed += 1,
            }
        }
    }
    rep.front_wall_s = front.elapsed().as_secs_f64();
    Ok((rep, trained))
}

/// A digest of a snapshot (its JSON text, hashed) with the wall-clock
/// decision-latency fields zeroed: the only snapshot fields that
/// legitimately differ between identical runs.
fn digest_snapshot(snapshot: &MetricsSnapshot) -> u64 {
    let mut scrubbed = snapshot.clone();
    scrubbed.mean_decision_secs = 0.0;
    scrubbed.p95_decision_secs = 0.0;
    let text = serde_json::to_string(&scrubbed).expect("snapshots serialize");
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// Order-sensitive fingerprint of a completion sequence.
pub fn fingerprint(completions: &[Completion]) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for c in completions {
        c.query.index().hash(&mut hasher);
        c.template.index().hash(&mut hasher);
        c.class.index().hash(&mut hasher);
        c.vm_index.hash(&mut hasher);
        c.start.as_millis().hash(&mut hasher);
        c.finish.as_millis().hash(&mut hasher);
    }
    hasher.finish()
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
