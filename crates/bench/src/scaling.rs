//! The scheduler-sharding scaling scenario: decisions per second vs
//! shard count over one large generated multi-class trace.
//!
//! K tenant SLA classes (goal kinds cycled, priorities staggered) drive
//! one [`WorkloadService`] through `run_ticked` — each tick coalesces up
//! to `tick_size` arrivals into per-class groups that plan on the shard
//! workers (on the calling thread at one shard). The measured number is **decisions per wall-clock
//! second** (plan calls; the admissions-per-second figure rides along),
//! swept over shard counts on *identically trained* services: the base
//! models are trained once and cloned into every run, so the sweep
//! isolates the sharded planning fan-out, not model variance.
//!
//! Two properties are checked while the curve is produced:
//!
//! * **Bit-identity** — every shard count must produce the same scrubbed
//!   final snapshot and the same completion fingerprint as the 1-shard
//!   run (wall-clock decision-latency fields are the only scrub). This is
//!   the sharding determinism guarantee measured end to end at scale.
//! * **Memory flatness** — peak resident set is sampled during each run;
//!   sharding must not grow memory materially (the epoch snapshot is one
//!   small struct per tick, the fleet and books stay singular).
//!
//! Used by `--bin scaling` (the curve + CI smoke) and `--bin regress`
//! (the `shard/*` counters).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use wisedb::prelude::*;
use wisedb_advisor::{MultiScheduler, TrainingArtifacts};
use wisedb_core::ArrivingQuery;
use wisedb_runtime::{LoadSignal, ShardConfig, ShardStats};

use crate::Scale;

/// The scenario's shape at one scale.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// Tenant SLA classes sharing the fleet.
    pub classes: usize,
    /// Total queries in the generated trace.
    pub queries: usize,
    /// Arrivals coalesced per scheduling tick.
    pub tick_size: usize,
    /// Shard counts swept, ascending, starting at 1.
    pub shard_counts: Vec<usize>,
}

/// The sweep configuration at each scale. Paper scale is the issue's
/// 10⁶-query trace; quick is CI-smoke sized.
pub fn config(scale: Scale) -> ScalingConfig {
    match scale {
        Scale::Quick => ScalingConfig {
            classes: 4,
            queries: 2_000,
            tick_size: 32,
            shard_counts: vec![1, 2],
        },
        Scale::Std => ScalingConfig {
            classes: 4,
            queries: 20_000,
            tick_size: 64,
            shard_counts: vec![1, 2, 4],
        },
        Scale::Paper => ScalingConfig {
            classes: 8,
            queries: 1_000_000,
            tick_size: 256,
            shard_counts: vec![1, 2, 4, 8],
        },
    }
}

/// `classes` SLA classes over `spec`, cycling the cheap-to-train goal
/// kinds (percentile models train orders of magnitude slower and add
/// nothing to a *throughput* sweep) with staggered priorities.
pub fn classes(spec: &WorkloadSpec, classes: usize) -> Vec<SlaClass> {
    let kinds = [
        GoalKind::MaxLatency,
        GoalKind::PerQuery,
        GoalKind::AverageLatency,
    ];
    (0..classes)
        .map(|i| {
            let kind = kinds[i % kinds.len()];
            SlaClass::new(
                format!("tenant-{i}"),
                PerformanceGoal::paper_default(kind, spec).expect("defaults exist"),
            )
            .with_priority((classes - 1 - i) as u8)
        })
        .collect()
}

/// Online configuration for every class. The age quantum is deliberately
/// *coarse* (one hour, against ≤ 6-minute queries): a tick coalesces
/// arrivals spanning many virtual minutes, and a fine quantum would give
/// nearly every tick a fresh ageing pattern — a synchronous aged-model
/// retrain per tick per class, which turns the sweep into a training
/// bench. Coarse buckets collapse the patterns into reuse-cache hits, so
/// the measured loop is what sharding parallelizes: model inference and
/// placement.
pub fn online_config() -> OnlineConfig {
    OnlineConfig {
        training: ModelConfig {
            num_samples: 150,
            sample_size: 9,
            seed: 0xBE7C4,
            ..ModelConfig::fast()
        },
        age_quantum: Millis::from_secs(3600),
        ..OnlineConfig::default()
    }
}

/// Trains one base model per class — once; every swept shard count gets
/// clones, so the services are identical by construction.
pub fn train_models(
    spec: &WorkloadSpec,
    class_set: &[SlaClass],
    scale: Scale,
) -> Vec<(DecisionModel, TrainingArtifacts)> {
    class_set
        .iter()
        .map(|class| {
            let generator = wisedb_advisor::ModelGenerator::new(
                spec.clone(),
                class.goal.clone(),
                scale.training().with_seed(0x5CA1E),
            );
            let (model, artifacts) = generator
                .train_with_artifacts()
                .expect("training on catalog specs succeeds");
            eprintln!("  {}: {:.2}s", class.name, model.stats().training_secs);
            (model, artifacts)
        })
        .collect()
}

/// One `shards`-way service over clones of the trained models. Rebalancing
/// runs on the deterministic batch-size signal so the whole sweep —
/// including the `shard/rebalances` counter — is exactly reproducible.
pub fn build_service(
    class_set: &[SlaClass],
    trained: &[(DecisionModel, TrainingArtifacts)],
    shards: usize,
) -> WorkloadService {
    build_service_with(
        class_set,
        trained,
        ShardConfig {
            shards,
            signal: LoadSignal::BatchSize,
            ..ShardConfig::default()
        },
    )
}

/// [`build_service`] with full control over the shard configuration —
/// the regress harness uses an eager-rebalance variant so the
/// `shard/rebalances` counter exercises (and exactly pins) the
/// rebalancer's deterministic batch-size path.
pub fn build_service_with(
    class_set: &[SlaClass],
    trained: &[(DecisionModel, TrainingArtifacts)],
    config: ShardConfig,
) -> WorkloadService {
    let online = online_config();
    let schedulers: Vec<OnlineScheduler> = trained
        .iter()
        .map(|(m, a)| OnlineScheduler::with_model(m.clone(), a.clone(), online.clone()))
        .collect();
    let multi = MultiScheduler::with_schedulers(class_set.to_vec(), schedulers, online.clone())
        .expect("class schedulers share the spec");
    WorkloadService::with_multi(
        multi,
        RuntimeConfig {
            online,
            ..RuntimeConfig::default()
        },
    )
    .into_sharded(config)
}

/// The merged multi-class trace: one sparse Poisson sub-stream per class
/// (multitenant-style rates — queries run minutes, gaps keep recall
/// batches bounded), merged by arrival time.
pub fn trace(config: &ScalingConfig) -> Vec<ArrivingQuery> {
    let per_class = config.queries / config.classes;
    let streams = (0..config.classes)
        .map(|c| {
            let mut process = PoissonProcess::per_second(
                1.0 / (250.0 + 25.0 * c as f64),
                TemplateMix::uniform(10),
            );
            wisedb_runtime::generate_class_stream(
                &mut process,
                per_class,
                0x5EED + c as u64,
                TenantId(c as u32),
            )
        })
        .collect();
    wisedb_runtime::merge_streams(streams)
}

/// What one swept shard count produces.
pub struct ShardRun {
    /// Shard count of this run.
    pub shards: usize,
    /// Wall-clock seconds spent in `run_ticked` (training excluded).
    pub elapsed_secs: f64,
    /// Plan calls per wall-clock second — the scaling curve's y axis.
    pub decisions_per_sec: f64,
    /// Queries admitted+planned per wall-clock second.
    pub queries_per_sec: f64,
    /// Peak resident set sampled during the run, in kilobytes (0 when
    /// `/proc/self/status` is unavailable).
    pub peak_rss_kb: u64,
    /// The run's shard counters (decisions, merges, rebalances — exact).
    pub stats: ShardStats,
    /// Scrubbed final snapshot (decision-latency fields zeroed).
    pub snapshot: MetricsSnapshot,
    /// Order-sensitive hash of every completion — the bit-identity
    /// witness that avoids holding 10⁶ completions per run.
    pub fingerprint: u64,
}

/// Replays `stream` through a fresh `shards`-way service and measures.
pub fn run_one(
    class_set: &[SlaClass],
    trained: &[(DecisionModel, TrainingArtifacts)],
    stream: &[ArrivingQuery],
    tick_size: usize,
    shards: usize,
) -> ShardRun {
    let mut service = build_service(class_set, trained, shards);
    let sampler = RssSampler::start();
    let started = Instant::now();
    let report = service
        .run_ticked(stream, tick_size)
        .expect("the generated trace replays cleanly");
    let elapsed = started.elapsed().as_secs_f64();
    let peak_rss_kb = sampler.finish();
    let stats = service.stats();
    ShardRun {
        shards,
        elapsed_secs: elapsed,
        decisions_per_sec: stats.decisions as f64 / elapsed.max(1e-9),
        queries_per_sec: stream.len() as f64 / elapsed.max(1e-9),
        peak_rss_kb,
        stats,
        snapshot: scrub(report.last),
        fingerprint: fingerprint(&report.completions),
    }
}

/// Zeroes the wall-clock decision-latency fields — the only snapshot
/// fields that legitimately differ between identical runs.
pub fn scrub(mut snapshot: MetricsSnapshot) -> MetricsSnapshot {
    snapshot.mean_decision_secs = 0.0;
    snapshot.p95_decision_secs = 0.0;
    snapshot
}

/// Order-sensitive fingerprint of a completion sequence.
pub fn fingerprint(completions: &[wisedb::sim::Completion]) -> u64 {
    use std::hash::{Hash, Hasher};
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

/// Samples this process's `VmRSS` on a background thread (10 ms cadence)
/// and keeps the peak. Linux-only by nature; elsewhere the peak reads 0
/// and callers skip the flatness check.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RssSampler {
    /// Starts sampling (one immediate sample, then every 10 ms).
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let handle = {
            let stop = Arc::clone(&stop);
            let peak = Arc::clone(&peak);
            std::thread::Builder::new()
                .name("wisedb-rss-sampler".to_string())
                .spawn(move || loop {
                    if let Some(kb) = rss_kb() {
                        peak.fetch_max(kb, Ordering::Relaxed);
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                })
                .ok()
        };
        RssSampler { stop, peak, handle }
    }

    /// Stops the sampler (after one final sample) and returns the peak
    /// observed `VmRSS`, in kilobytes.
    pub fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle {
            let _ = handle.join();
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// Current `VmRSS` in kilobytes, from `/proc/self/status`.
pub fn rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_scale_up_and_start_at_one_shard() {
        for scale in [Scale::Quick, Scale::Std, Scale::Paper] {
            let c = config(scale);
            assert_eq!(c.shard_counts[0], 1, "the sweep baseline is unsharded");
            assert!(c.queries / c.classes > 0);
            assert!(c.shard_counts.windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(config(Scale::Paper).queries, 1_000_000);
    }

    #[test]
    fn traces_are_seeded_and_class_tagged() {
        let cfg = ScalingConfig {
            classes: 3,
            queries: 90,
            tick_size: 8,
            shard_counts: vec![1],
        };
        let (a, b) = (trace(&cfg), trace(&cfg));
        assert_eq!(a, b, "the trace is deterministic under its seeds");
        assert_eq!(a.len(), 90);
        for c in 0..3u32 {
            assert!(a.iter().any(|q| q.class == TenantId(c)));
        }
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn fingerprint_distinguishes_order_and_content() {
        use wisedb::sim::Completion;
        use wisedb_core::QueryId;
        let c = |q: u32, vm: usize| Completion {
            query: QueryId(q),
            template: TemplateId(0),
            class: TenantId(0),
            vm_index: vm,
            start: Millis::from_secs(1),
            finish: Millis::from_secs(2),
        };
        assert_eq!(
            fingerprint(&[c(0, 0), c(1, 1)]),
            fingerprint(&[c(0, 0), c(1, 1)])
        );
        assert_ne!(
            fingerprint(&[c(0, 0), c(1, 1)]),
            fingerprint(&[c(1, 1), c(0, 0)])
        );
        assert_ne!(fingerprint(&[c(0, 0)]), fingerprint(&[c(0, 1)]));
    }

    #[test]
    fn rss_sampler_reads_something_on_linux() {
        let sampler = RssSampler::start();
        let ballast = vec![0u8; 1 << 20];
        std::hint::black_box(&ballast);
        let peak = sampler.finish();
        if rss_kb().is_some() {
            assert!(peak > 0, "the sampler saw at least one VmRSS reading");
        }
    }
}
