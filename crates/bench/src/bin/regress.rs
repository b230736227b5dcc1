//! Hot-path regression harness: exact work counters, no clocks.
//!
//! Runs each hot path once — the A* kernel (one optimal solve per goal
//! kind), the PEA* kernel (same instances, partial-expansion counters),
//! the percentile bound-tightness guard (budgeted exact solve, certified
//! bound), the percentile-pathology strategy guard (beam + anytime under a
//! tight budget), batch scheduling, the streaming event loop, the
//! multi-tenant consolidation loop (3 SLA classes, shared vs isolated
//! fleets), the multi-class tick loop (a 3-class `run_ticked` replay),
//! the serve layer's wire loop
//! (loopback TCP, admit/shed verdicts), the warm-training guard (cold
//! train vs warm retrain through the solve cache, zero-solve warm retrain
//! asserted), the paper-figure costs that need no oracle (Fig 12's and
//! Fig 13's typed cells, in milli-cents), the shape and hash of each goal
//! kind's default tree, and the observability guard (the
//! same stream at every tracing level: identical outcomes asserted, trace
//! shape recorded) —
//! writes `BENCH_current.json`, and diffs it against the committed
//! `crates/bench/BENCH_baseline.json`. Every row is a deterministic
//! counter compared exactly in both directions (see
//! [`wisedb_bench::regress`]); timing lives in `benchmark/`.
//!
//! ```text
//! WISEDB_SCALE=quick cargo run --release -p wisedb-bench --bin regress
//! # refresh the committed baseline for the current scale:
//! cargo run --release -p wisedb-bench --bin regress -- --write-baseline
//! ```
//!
//! `WISEDB_SCALE` selects `quick` / `std` (default) / `paper`;
//! `--baseline <path>` reads (and with `--write-baseline` writes) another
//! baseline file, `--out <path>` moves `BENCH_current.json`.

use std::path::PathBuf;

use wisedb::advisor::{OnlineConfig, OnlineScheduler, StepSource};
use wisedb::prelude::*;
use wisedb::runtime::generate_stream;
use wisedb_bench::figures::{self, Context};
use wisedb_bench::regress::{self, diff, render_diff, BaselineFile, BenchReport, Measurement};
use wisedb_bench::{Cell, Scale};

/// Appends one bench's `(metric, value)` counters to `out`.
fn record(out: &mut Vec<Measurement>, bench: &str, rows: &[(&str, f64)]) {
    out.extend(
        rows.iter()
            .map(|&(metric, value)| Measurement::new(bench, metric, value)),
    );
}

/// Per-goal workload sizes for the A* kernel. Percentile goals carry the
/// whole latency distribution in the penalty digest, so their graph is far
/// denser and the size stays smaller.
fn astar_size(scale: Scale, kind: GoalKind) -> usize {
    match (scale, kind) {
        (Scale::Quick, GoalKind::Percentile) => 6,
        (Scale::Quick, _) => 10,
        (_, GoalKind::Percentile) => 9,
        (_, _) => 16,
    }
}

fn astar_kernel(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let workload = wisedb::sim::generator::uniform_workload(&spec, astar_size(scale, kind), 7);
        let bench = format!("astar_kernel/{}", kind.name());
        let stats = Solver::new(&spec, &goal).solve(&workload).unwrap().stats;
        record(
            out,
            &bench,
            &[
                ("expanded", stats.expanded as f64),
                ("generated", stats.generated as f64),
                ("interned", stats.interned as f64),
            ],
        );
        eprintln!("  {bench}: {} expanded", stats.expanded);
    }
}

/// Partial-expansion A* on the same instances as [`astar_kernel`]: one
/// optimal solve per goal kind, with the PEA*-specific counters
/// (`reexpansions`, `deferred`) compared exactly. Guards both the
/// strategy's exactness (`bound_pct` must stay 0 wherever the solve
/// completes) and its successor appetite.
fn pea_kernel(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let workload = wisedb::sim::generator::uniform_workload(&spec, astar_size(scale, kind), 7);
        let bench = format!("pea/{}", kind.name());
        let stats = Solver::new(&spec, &goal)
            .with_strategy(SearchStrategy::Pea)
            .solve(&workload)
            .unwrap()
            .stats;
        record(
            out,
            &bench,
            &[
                ("expanded", stats.expanded as f64),
                ("generated", stats.generated as f64),
                ("reexpansions", stats.reexpansions as f64),
                ("deferred", stats.deferred as f64),
                ("bound_pct", (stats.bound - 1.0) * 100.0),
            ],
        );
        eprintln!(
            "  {bench}: {} expanded, {} reexpansions, {} deferred",
            stats.expanded, stats.reexpansions, stats.deferred
        );
    }
}

/// The queue-wait-aware percentile bound guard: a budgeted exact solve of
/// a percentile instance one notch past the kernel size. If the bound
/// loosens, the search either expands more vertices before finishing or
/// stops certifying `bound_pct = 0` under the budget — either way an
/// exact counter trips.
fn bound_tight(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::Percentile, &spec).unwrap();
    let queries = astar_size(scale, GoalKind::Percentile) + 2;
    let budget = 30_000usize;
    let workload = wisedb::sim::generator::uniform_workload(&spec, queries, 7);
    let bench = format!("bound_tight/{queries}q");
    let stats = Solver::new(&spec, &goal)
        .with_config(SearchConfig {
            node_limit: budget,
            ..SearchConfig::default()
        })
        .solve(&workload)
        .unwrap()
        .stats;
    record(
        out,
        &bench,
        &[
            ("expanded", stats.expanded as f64),
            ("generated", stats.generated as f64),
            ("reexpansions", stats.reexpansions as f64),
            ("bound_pct", (stats.bound - 1.0) * 100.0),
        ],
    );
    eprintln!(
        "  {bench}: {} expanded, bound {:.4}",
        stats.expanded, stats.bound
    );
}

/// Tree-driven batch scheduling, one model per goal kind over the same
/// batch: the VM count, the number of guard (`StepSource::Fallback`)
/// steps, and `fp32`, a 32-bit FNV-1a hash of the decision labels in
/// order. A change to the descent or the guard that alters any decision
/// fails the diff. `batch_schedule/<size>` keeps the Max-latency VM count
/// under its original key.
fn batch_throughput(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let size = if scale == Scale::Quick { 2_000 } else { 10_000 };
    let workload = wisedb::sim::generator::uniform_workload(&spec, size, 99);
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let model = ModelGenerator::new(
            spec.clone(),
            goal,
            ModelConfig {
                num_samples: if scale == Scale::Quick { 60 } else { 120 },
                sample_size: 9,
                seed: 0xFACADE,
                ..ModelConfig::fast()
            },
        )
        .train()
        .unwrap();
        let (schedule, plan) = model.schedule_batch_with_plan(&workload).unwrap();
        let vms = schedule.num_vms();
        if kind == GoalKind::MaxLatency {
            record(
                out,
                &format!("batch_schedule/{size}"),
                &[("vms", vms as f64)],
            );
        }
        let fallback = plan
            .decisions
            .iter()
            .filter(|(_, source)| *source == StepSource::Fallback)
            .count();
        let labels: Vec<u8> = plan
            .decisions
            .iter()
            .flat_map(|(d, _)| (d.label(spec.num_templates()) as u32).to_le_bytes())
            .collect();
        let fp32 = regress::fnv1a32(&labels);
        let bench = format!("batch_schedule/{size}/{}", kind.name());
        record(
            out,
            &bench,
            &[
                ("vms", vms as f64),
                ("fallback", fallback as f64),
                ("fp32", f64::from(fp32)),
            ],
        );
        eprintln!("  {bench}: {vms} VMs, {fallback} guard steps, fp32 {fp32:08x}");
    }
}

fn streaming_loop(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let training = ModelConfig {
        num_samples: 60,
        sample_size: 9,
        seed: 0xC0FFEE,
        ..ModelConfig::fast()
    };
    let (model, artifacts) = ModelGenerator::new(spec.clone(), goal, training.clone())
        .train_with_artifacts()
        .unwrap();
    let n = if scale == Scale::Quick { 80 } else { 200 };
    let mut process = PoissonProcess::per_second(2.0, TemplateMix::uniform(spec.num_templates()));
    let stream = generate_stream(&mut process, n, 42);
    let bench = format!("streaming_loop/{n}");
    let online = OnlineConfig {
        training,
        age_quantum: Millis::from_secs(30),
        ..OnlineConfig::default()
    };
    let scheduler = OnlineScheduler::with_model(model, artifacts, online);
    let snapshot = WorkloadService::with_scheduler(scheduler, RuntimeConfig::default())
        .run_stream(&stream)
        .unwrap()
        .last;
    record(
        out,
        &bench,
        &[
            ("completed", snapshot.completed as f64),
            ("vms_provisioned", snapshot.vms_provisioned as f64),
        ],
    );
    eprintln!(
        "  {bench}: {} completed, {} VMs",
        snapshot.completed, snapshot.vms_provisioned
    );
}

/// The percentile-pathology strategy guard: beam and anytime solves of the
/// scenario that motivated the strategy layer, under a tight expansion
/// budget. Fully deterministic, so the certified suboptimality bound and
/// the new strategy counters (incumbent improvements, beam prunes) are
/// compared exactly — a solver change that silently loosens the bound or
/// does more work fails the diff.
fn strategy_pathology(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::Percentile, &spec).unwrap();
    let (queries, budget) = match scale {
        Scale::Quick => (14usize, 20_000usize),
        _ => (18, 50_000),
    };
    let workload = wisedb::sim::generator::uniform_workload(&spec, queries, 42);
    for strategy in [
        SearchStrategy::Beam { width: 64 },
        SearchStrategy::anytime(),
    ] {
        let bench = format!(
            "strategy_pathology/{}{}q",
            match strategy {
                SearchStrategy::Beam { .. } => "beam",
                _ => "anytime",
            },
            queries
        );
        let config = SearchConfig {
            node_limit: budget,
            strategy,
            ..SearchConfig::default()
        };
        let result = Solver::new(&spec, &goal)
            .with_config(config)
            .solve(&workload)
            .unwrap();
        let stats = result.stats;
        record(
            out,
            &bench,
            &[
                ("expanded", stats.expanded as f64),
                ("interned", stats.interned as f64),
                ("incumbents", stats.incumbents as f64),
                ("pruned", stats.pruned as f64),
                ("bound_pct", (stats.bound - 1.0) * 100.0),
                ("cost_cents", result.cost.as_cents()),
            ],
        );
        eprintln!(
            "  {bench}: cost {}, bound {:.4}, {} expanded",
            result.cost, stats.bound, stats.expanded
        );
    }
}

fn multitenant_loop(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let n = wisedb_bench::multitenant::arrivals_per_class(scale);
    let bench = format!("multitenant_loop/{n}x3");
    let outcome = wisedb_bench::multitenant::run(&spec, scale);
    record(
        out,
        &bench,
        &[
            ("completed", outcome.shared.last.completed as f64),
            ("shared_vms", outcome.shared_vms() as f64),
            ("isolated_vms", outcome.isolated_vms() as f64),
        ],
    );
    eprintln!(
        "  {bench}: {} completed, {} vs {} VMs, {:.1}% saving",
        outcome.shared.last.completed,
        outcome.shared_vms(),
        outcome.isolated_vms(),
        outcome.saving_pct()
    );
}

/// The multi-class tick loop: a 3-class trace replayed through
/// `run_ticked`, so most ticks are multi-group (admit → one epoch view →
/// plan and merge in tick order). Everything is virtual-clocked and
/// merge-ordered, so the decision, merge and epoch counters and the final
/// snapshot are exact on every machine; a change that perturbs tick
/// planning or the merge order fails the diff. (The `shard/` bench name
/// predates the removal of the shard worker pool; it stays so the rows
/// keep their baseline keys.)
fn shard_loop(scale: Scale, out: &mut Vec<Measurement>) {
    let classes = 3;
    let queries = if scale == Scale::Quick { 300 } else { 600 };
    let bench = format!("shard/{queries}x{classes}");
    let spec = wisedb::sim::catalog::tpch_like(10);
    let mut service = regress::tick_service(&spec, classes, scale);
    let report = service
        .run_ticked(&regress::tick_trace(classes, queries), 16)
        .expect("the generated trace replays cleanly");
    let stats = service.stats();
    let last = report.last;

    record(
        out,
        &bench,
        &[
            ("decisions", stats.decisions as f64),
            ("merged_plans", stats.merged_plans as f64),
            ("epochs", stats.epochs as f64),
            ("completed", last.completed as f64),
            ("vms_provisioned", last.vms_provisioned as f64),
        ],
    );
    eprintln!(
        "  {bench}: {} decisions, {} merges, {} epochs, {} completed",
        stats.decisions, stats.merged_plans, stats.epochs, last.completed
    );
}

/// The serve layer over loopback: a seeded hot trace replayed through one
/// wire connection (see [`wisedb_bench::serve_load`]). The sequential
/// replay keeps admission deterministic, so `admitted`/`shed`/`shed_rate`
/// are exact counters; round-trip latency is `benchmark/`'s to measure.
fn serve_loop(scale: Scale, out: &mut Vec<Measurement>) {
    let n = wisedb_bench::serve_load::requests(scale);
    let bench = format!("serve/{n}");
    let service = wisedb_bench::serve_load::build_service(scale);
    let report = wisedb_bench::serve_load::run(service, scale);
    record(
        out,
        &bench,
        &[
            ("admitted", report.admitted as f64),
            ("shed", report.shed as f64),
            ("shed_rate", report.shed_rate()),
            ("completed", report.snapshot.completed as f64),
        ],
    );
    eprintln!(
        "  {bench}: {} admitted, {} shed",
        report.admitted, report.shed
    );
}

/// The warm-training guard: one cold train through the solve cache, then
/// a warm [`ModelGenerator::retrain_from`] of the identical configuration.
/// The work counters are exact — distinct A* solves, dedup/cache hits,
/// dataset rows, and flat-tree nodes are all pure functions of the seed —
/// and the warm retrain must perform **zero** solves and reproduce the
/// cold model bit for bit (asserted here on every regress run).
fn train_warm(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let config = ModelConfig {
        num_samples: if scale == Scale::Quick { 120 } else { 400 },
        sample_size: 9,
        seed: 0x7EA1,
        ..ModelConfig::fast()
    };
    let bench = format!("train/{}x{}", config.num_samples, config.sample_size);
    let generator = ModelGenerator::new(spec, goal, config);

    let (cold, artifacts) = generator.train_with_artifacts().unwrap();
    let (warm, _) = generator.retrain_from(&artifacts.warm_start()).unwrap();

    assert_eq!(
        warm.stats().solves,
        0,
        "warm retrain of an identical config re-ran A* solves"
    );
    assert_eq!(
        warm.tree(),
        cold.tree(),
        "warm retrain diverged from the cold model"
    );
    assert_eq!(warm.stats().num_rows, cold.stats().num_rows);

    record(
        out,
        &bench,
        &[
            ("solves", cold.stats().solves as f64),
            ("cache_hits", cold.stats().cache_hits as f64),
            ("warm_solves", warm.stats().solves as f64),
            ("dataset_rows", cold.stats().num_rows as f64),
            ("tree_nodes", cold.tree().num_nodes() as f64),
        ],
    );
    eprintln!(
        "  {bench}: cold {} solves, {} dedup hits; warm 0 solves",
        cold.stats().solves,
        cold.stats().cache_hits,
    );
}

/// The figure costs that need no oracle, read from the registry's typed
/// rows: every milli-cent cell of Figs 12 and 13 (WiSeDB on one and two VM
/// types; FFD, FFI, Pack9 and WiSeDB on 5000-query batches), one bench per
/// figure and goal kind. Costs are a pure function of the seed, so a
/// decision change fails the diff and has to state its price. The oracle
/// cells are left out: Fig 9 alone spends about a minute in the oracle.
fn figure_costs(ctx: &mut Context, out: &mut Vec<Measurement>) {
    for fig in figures::select(&["12".into(), "13".into()]).expect("registered ids") {
        let table = (fig.run)(ctx);
        for row in table.rows() {
            let Some(Cell::Text(label)) = row.first() else {
                continue;
            };
            let bench = format!("fig/{}/{label}", fig.id);
            for (header, cell) in table.headers().iter().zip(row) {
                if let Cell::MilliCents(mc) = cell {
                    let metric = format!("{}_mc", header.to_lowercase().replace(' ', "_"));
                    out.push(Measurement::new(&bench, &metric, *mc));
                }
            }
        }
        eprintln!("  fig/{}: {} goal kinds", fig.id, table.rows().len());
    }
}

/// The learner's output, pinned: each goal kind's default tree (the models
/// [`figure_costs`] already trained) as node, leaf and depth counts plus
/// `fp32`, a 32-bit FNV-1a hash of its serialized form. The hash covers
/// every threshold bit for bit, so a learner change that alters any split
/// fails the diff even where no downstream cost moves.
fn tree_shapes(ctx: &mut Context, out: &mut Vec<Measurement>) {
    for kind in GoalKind::ALL {
        let tree = ctx.default_tree(kind);
        let json = serde_json::to_string(&tree).expect("trees serialize");
        let fp32 = regress::fnv1a32(json.as_bytes());
        let bench = format!("learn/{}", kind.name());
        record(
            out,
            &bench,
            &[
                ("nodes", tree.num_nodes() as f64),
                ("leaves", tree.num_leaves() as f64),
                ("depth", tree.depth() as f64),
                ("fp32", f64::from(fp32)),
            ],
        );
        eprintln!("  {bench}: {} nodes, fp32 {fp32:08x}", tree.num_nodes());
    }
}

/// The observability guard: the same deterministic in-process stream run
/// with tracing **off**, **counters-only**, and with **full spans**, once
/// each.
///
/// * The three runs' metrics snapshots must be identical (after zeroing
///   the wall-clock decision-time fields) — the "instrumentation changes
///   nothing" contract, asserted here on every regress run.
/// * The full-span run's event/span counts are **exact counters**: the
///   run is virtual-clocked and single-threaded, so an accidental extra
///   span in a hot loop fails the diff on any machine.
fn obs_guard(scale: Scale, out: &mut Vec<Measurement>) {
    let spec = wisedb::sim::catalog::tpch_like(10);
    let goal = PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap();
    let training = ModelConfig {
        num_samples: 60,
        sample_size: 9,
        seed: 0xC0FFEE,
        ..ModelConfig::fast()
    };
    let (model, artifacts) = ModelGenerator::new(spec.clone(), goal, training.clone())
        .train_with_artifacts()
        .unwrap();
    let n = if scale == Scale::Quick { 80 } else { 200 };
    let mut process = PoissonProcess::per_second(2.0, TemplateMix::uniform(spec.num_templates()));
    let stream = generate_stream(&mut process, n, 42);
    let bench = format!("obs/{n}");

    // The only non-deterministic snapshot fields are the wall-clock
    // decision times; everything else must be byte-identical across
    // tracing levels.
    let run_once = || {
        let online = OnlineConfig {
            training: training.clone(),
            age_quantum: Millis::from_secs(30),
            ..OnlineConfig::default()
        };
        let scheduler = OnlineScheduler::with_model(model.clone(), artifacts.clone(), online);
        let mut svc = WorkloadService::with_scheduler(scheduler, RuntimeConfig::default());
        let mut snapshot = svc.run_stream(&stream).unwrap().last;
        snapshot.mean_decision_secs = 0.0;
        snapshot.p95_decision_secs = 0.0;
        snapshot
    };

    wisedb_obs::set_level(wisedb_obs::Level::Off);
    let off = run_once();
    wisedb_obs::set_level(wisedb_obs::Level::Counters);
    let counters = run_once();
    let collector = wisedb_obs::install(wisedb_obs::Level::Spans);
    let spans = run_once();
    let trace = collector.finish();
    assert_eq!(
        off, counters,
        "counters-only tracing changed the run's outcome"
    );
    assert_eq!(off, spans, "full-span tracing changed the run's outcome");

    let events = trace.events.len();
    let spans = trace
        .events
        .iter()
        .filter(|e| matches!(e.phase, wisedb_obs::Phase::Begin))
        .count();
    record(
        out,
        &bench,
        &[("events", events as f64), ("spans", spans as f64)],
    );
    eprintln!("  {bench}: {events} events / {spans} spans");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let write_baseline = args.iter().any(|a| a == "--write-baseline");
    let baseline_path = args
        .iter()
        .position(|a| a == "--baseline")
        .and_then(|i| args.get(i + 1).cloned())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("BENCH_baseline.json"));
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_current.json"));

    let scale = Scale::from_env();
    let scale_name = scale.name();
    eprintln!("regress: running hot-path benches at {scale_name} scale");

    let mut measurements = Vec::new();
    astar_kernel(scale, &mut measurements);
    pea_kernel(scale, &mut measurements);
    bound_tight(scale, &mut measurements);
    strategy_pathology(scale, &mut measurements);
    batch_throughput(scale, &mut measurements);
    streaming_loop(scale, &mut measurements);
    multitenant_loop(scale, &mut measurements);
    shard_loop(scale, &mut measurements);
    serve_loop(scale, &mut measurements);
    train_warm(scale, &mut measurements);
    let mut ctx = Context::new(scale, false);
    figure_costs(&mut ctx, &mut measurements);
    tree_shapes(&mut ctx, &mut measurements);
    // Last: it flips the global tracing level, and nothing after it may
    // record under the instrumented levels.
    obs_guard(scale, &mut measurements);
    let current = BenchReport {
        scale: scale_name.to_string(),
        measurements,
    };

    std::fs::write(
        &out_path,
        serde_json::to_string_pretty(&current).expect("report serializes"),
    )
    .expect("write BENCH_current.json");
    eprintln!("regress: wrote {}", out_path.display());

    let mut baseline: BaselineFile = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => serde_json::from_str(&text).expect("baseline parses"),
        Err(_) => BaselineFile::default(),
    };

    if write_baseline {
        baseline.upsert(current);
        std::fs::write(
            &baseline_path,
            serde_json::to_string_pretty(&baseline).expect("baseline serializes"),
        )
        .expect("write baseline");
        eprintln!("regress: baseline updated at {}", baseline_path.display());
        return;
    }

    let Some(base) = baseline.for_scale(scale_name) else {
        eprintln!(
            "regress: no {scale_name}-scale baseline in {} — run with --write-baseline to record one",
            baseline_path.display()
        );
        return;
    };
    let lines = diff(base, &current);
    println!("{}", render_diff(&lines));
    let regressions = lines.iter().filter(|l| l.is_regression()).count();
    if regressions > 0 {
        eprintln!("regress: {regressions} regression(s) vs baseline");
        std::process::exit(1);
    }
    eprintln!("regress: no regressions vs baseline");
}
