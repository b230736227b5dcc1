//! The layer ledger: outside-in probes of each crate's public functions.
//!
//! Each probe times calls into one layer — `core`, `obs`, `search`,
//! `learn`, `advisor`, `sim`, `runtime`, `serve` — on the fixture of the
//! workload that layer matters to, so a change to a layer shows here
//! first and in the end-to-end metric the ledger says it should move
//! (README.md, "How the metrics interact"). The ledger is the same
//! whichever workload a traced run names; only the `trace.*` rows and the
//! two output shares at the end are the named workload's own.

use std::time::Instant;

use wisedb_advisor::{ClusterView, ModelGenerator, OnlineScheduler, PendingArrival};
use wisedb_core::{GoalKind, Millis, OpenVmView, PerformanceGoal, QueryId, TemplateId, VmTypeId};
use wisedb_learn::{Dataset, DecisionTree};
use wisedb_obs::Level;
use wisedb_search::{AdaptiveSearcher, OptimalSchedule, Solver};
use wisedb_serve::frame::{read_frame, write_frame, FrameKind, FrameRead};
use wisedb_serve::wire::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use wisedb_sim::{LiveCluster, LiveOptions};

use crate::stats;
use crate::trace::{self, Fold};
use crate::workloads::{
    self, catalog, elapsed_us, err, front, lifecycle, online_config, serve_twin, train_cold,
    FrontOpts, Kind, Rep, Sizes,
};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Metrics in report order.
#[derive(Debug, Default)]
pub struct Ledger(pub Vec<Metric>);

impl Ledger {
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }
}

/// An in-process offer slower than this did model work on the request
/// path.
const SLOW_OFFER_US: f64 = 1000.0;
/// Offers in the unbroken in-process replay behind
/// `runtime.offer_drift_ratio`, and steps of the bare `LiveCluster`.
const DRIFT_OFFERS: usize = 20_000;
/// tenants-ticked queries behind the tick rows and `runtime.shard_speedup`.
const TICK_QUERIES: usize = 12_500;
/// Sample workloads solved per goal kind by the `search`/`learn` probes.
const SOLVE_SAMPLES: usize = 100;
/// `plan_arrivals` calls behind `advisor.plan_fresh_us`.
const PLAN_CALLS: usize = 1_000;
/// `Client::telemetry()` round trips behind `serve.rtt_floor_us`.
const CONTROL_RTTS: usize = 2_000;

fn p50(sample: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(sample.to_vec()), 50.0)
}

fn p99(sample: &[f64]) -> f64 {
    stats::percentile(&stats::sorted(sample.to_vec()), 99.0)
}

fn sized(n: usize, quick: bool) -> usize {
    if quick {
        (n / 10).max(10)
    } else {
        n
    }
}

/// Runs every probe. Returns the ledger, and the traced serve-steady
/// slice (its fold and Chrome text) for a caller that wants that
/// workload's `trace.*` rows.
pub fn run_all(seed: u64, quick: bool) -> Result<(Ledger, TracedSlice), String> {
    let mut ledger = Ledger::default();
    serve_pair(&mut ledger, Kind::ServeSteady, seed, quick)?;
    serve_pair(&mut ledger, Kind::ServeAged, seed, quick)?;
    codec(&mut ledger, seed, quick)?;
    drift(&mut ledger, seed, quick)?;
    ticked(&mut ledger, seed, quick)?;
    plans(&mut ledger, quick)?;
    offline(&mut ledger, seed, quick)?;
    live_cluster(&mut ledger, seed, quick)?;
    let slice = tracing_overhead(&mut ledger, seed, quick)?;
    Ok((ledger, slice))
}

/// A wire repetition of a serve workload beside its in-process twin:
/// what the wire adds, what `runtime` costs alone, and how many offers
/// did model work.
fn serve_pair(ledger: &mut Ledger, kind: Kind, seed: u64, quick: bool) -> Result<(), String> {
    let tag = if kind == Kind::ServeSteady {
        "steady"
    } else {
        "aged"
    };
    let sizes = Sizes::of(kind, quick);
    let opts = FrontOpts {
        control_rtts: if kind == Kind::ServeSteady {
            sized(CONTROL_RTTS, quick)
        } else {
            0
        },
        ..FrontOpts::default()
    };
    let (wire, _) = front(kind, &sizes, seed, opts)?;
    let twin = serve_twin(kind, &sizes, seed)?;
    if kind == Kind::ServeSteady {
        ledger.push("serve.rtt_floor_us", "us", wire.telemetry_rtt_us);
        ledger.push("serve.metrics_rtt_us", "us", wire.metrics_rtt_us);
    }
    let overhead = p50(&wire.offer_us) - p50(&twin.offer_us);
    ledger.push(format!("serve.wire_overhead_us.{tag}"), "us", overhead);
    ledger.push(
        format!("serve.wire_overhead_share.{tag}"),
        "ratio",
        overhead * wire.offer_us.len() as f64 / 1e6 / wire.front_wall_s,
    );
    ledger.push(
        format!("runtime.offer_p50_us.{tag}"),
        "us",
        p50(&twin.offer_us),
    );
    ledger.push(
        format!("runtime.offer_p99_us.{tag}"),
        "us",
        p99(&twin.offer_us),
    );
    // Counted on the twin: without sockets and thread hops, an offer over
    // a millisecond did model work rather than waited for a wake-up.
    let slow: Vec<f64> = twin
        .offer_us
        .iter()
        .copied()
        .filter(|&us| us > SLOW_OFFER_US)
        .collect();
    ledger.push(
        format!("advisor.slow_offer_share.{tag}"),
        "ratio",
        slow.len() as f64 / twin.offer_us.len() as f64,
    );
    if kind == Kind::ServeAged {
        ledger.push(
            "advisor.slow_offer_sum_s",
            "s",
            slow.iter().sum::<f64>() / 1e6,
        );
        ledger.push(
            "advisor.cache_entries.reuse",
            "count",
            twin.cache_entries.0 as f64,
        );
        ledger.push(
            "advisor.cache_entries.shift",
            "count",
            twin.cache_entries.1 as f64,
        );
        ledger.push(
            "advisor.cache_entries.augment",
            "count",
            twin.cache_entries.2 as f64,
        );
    }
    Ok(())
}

/// Encode + frame + unframe + decode of the serve-steady trace's own
/// Offer requests and of the Admitted response, into a `Vec`: the codec
/// share of a round trip with no socket or thread hop.
fn codec(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<(), String> {
    let stream = workloads::trace(Kind::ServeSteady, seed, sized(5_000, quick));
    let mut buffer = Vec::with_capacity(128);
    let started = Instant::now();
    for q in &stream {
        let request = Request::Offer {
            class: q.class,
            template: q.template,
            at: q.arrival,
        };
        buffer.clear();
        let payload = encode_request(&request).map_err(err)?;
        write_frame(&mut buffer, FrameKind::Request, &payload).map_err(err)?;
        let FrameRead::Frame(_, payload) = read_frame(&mut &buffer[..]).map_err(err)? else {
            return Err("a framed request did not read back".into());
        };
        if decode_request(&payload).map_err(err)? != request {
            return Err("a request did not round-trip".into());
        }
    }
    let per_request = started.elapsed().as_nanos() as f64 / stream.len() as f64;
    ledger.push("serve.req_codec_ns", "ns", per_request);

    let started = Instant::now();
    for _ in &stream {
        buffer.clear();
        let payload = encode_response(&Response::Admitted).map_err(err)?;
        write_frame(&mut buffer, FrameKind::Response, &payload).map_err(err)?;
        let FrameRead::Frame(_, payload) = read_frame(&mut &buffer[..]).map_err(err)? else {
            return Err("a framed response did not read back".into());
        };
        if decode_response(&payload).map_err(err)? != Response::Admitted {
            return Err("a response did not round-trip".into());
        }
    }
    let per_response = started.elapsed().as_nanos() as f64 / stream.len() as f64;
    ledger.push("serve.resp_codec_ns", "ns", per_response);
    Ok(())
}

/// One unbroken in-process replay of the serve-steady arrival process:
/// how much an offer slows down as history accumulates.
fn drift(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<(), String> {
    let sizes = Sizes {
        queries: sized(DRIFT_OFFERS, quick),
        warmup: 0,
        ..Sizes::of(Kind::ServeSteady, quick)
    };
    let twin = serve_twin(Kind::ServeSteady, &sizes, seed)?;
    ledger.push(
        "runtime.offer_drift_ratio",
        "ratio",
        stats::drift_ratio(&twin.offer_us),
    );
    Ok(())
}

/// tenants-ticked at two shards and at one: the per-tick rows, the exact
/// shard counters, and what the second shard buys on this host.
fn ticked(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<(), String> {
    let sizes = Sizes {
        queries: sized(TICK_QUERIES, quick),
        ..Sizes::of(Kind::TenantsTicked, quick)
    };
    let run = |shards| {
        let opts = FrontOpts {
            shards,
            ..FrontOpts::default()
        };
        front(Kind::TenantsTicked, &sizes, seed, opts).map(|(rep, _)| rep)
    };
    let two = run(2)?;
    let one = run(1)?;
    if two.fingerprint != one.fingerprint {
        return Err("tenants-ticked completions differ between 2 shards and 1".into());
    }
    ledger.push("runtime.tick_p50_us", "us", p50(&two.offer_us));
    ledger.push("runtime.tick_p99_us", "us", p99(&two.offer_us));
    ledger.push(
        "runtime.tick_drift_ratio",
        "ratio",
        stats::drift_ratio(&two.offer_us),
    );
    ledger.push("runtime.drain_ms", "ms", two.drain_ms);
    ledger.push("runtime.snapshot_us", "us", two.snapshot_us);
    let shard_stats = two.shard_stats.as_ref().ok_or("no shard counters")?;
    ledger.push("runtime.decisions", "count", shard_stats.decisions as f64);
    ledger.push("runtime.epochs", "count", shard_stats.epochs as f64);
    ledger.push(
        "runtime.merged_plans",
        "count",
        shard_stats.merged_plans as f64,
    );
    ledger.push(
        "runtime.shard_speedup",
        "ratio",
        one.front_wall_s / two.front_wall_s,
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    ledger.push("host.nproc", "count", nproc as f64);
    Ok(())
}

/// `OnlineScheduler::plan_arrivals` alone: a fresh single-query batch on
/// empty and busy views (the tree descent every serve-steady offer is),
/// then waits of 1–8 quanta under the default configuration, first call
/// per ageing pattern (a retrain) against its repeat (a cache hit).
fn plans(ledger: &mut Ledger, quick: bool) -> Result<(), String> {
    let spec = catalog();
    let arrival = |wait: Millis, now: Millis| PendingArrival {
        id: QueryId(0),
        template: TemplateId(3),
        arrival: now.saturating_sub(wait),
    };
    let empty = ClusterView::default();
    let busy = ClusterView {
        vms_rented: 4,
        open_vm: Some(OpenVmView {
            vm_type: VmTypeId(0),
            running: vec![TemplateId(1), TemplateId(7)],
            backlog: Millis::from_secs(90),
        }),
    };

    let kind = Kind::ServeSteady;
    let mut trained = train_cold(kind, &Sizes::of(kind, quick), &spec)?;
    let t = trained.remove(0);
    let online = online_config(kind, t.generator.config().clone());
    let mut scheduler = OnlineScheduler::with_model(t.model, t.artifacts, online);
    let now = Millis::from_secs(600);
    let mut fresh = Vec::with_capacity(PLAN_CALLS);
    for call in 0..sized(PLAN_CALLS, quick) {
        let view = if call % 2 == 0 { &empty } else { &busy };
        let batch = [arrival(Millis::ZERO, now)];
        let started = Instant::now();
        let plan = scheduler.plan_arrivals(view, std::hint::black_box(&batch), now);
        fresh.push(elapsed_us(started));
        plan.map_err(err)?;
    }
    ledger.push("advisor.plan_fresh_us", "us", p50(&fresh));

    let kind = Kind::ServeAged;
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for t in train_cold(kind, &Sizes::of(kind, quick), &spec)? {
        let online = online_config(kind, t.generator.config().clone());
        let quantum = online.age_quantum.as_millis();
        let mut scheduler = OnlineScheduler::with_model(t.model, t.artifacts, online);
        for quanta in 1..=8u64 {
            let batch = [arrival(Millis::from_millis(quanta * quantum), now)];
            for sample in [&mut miss, &mut hit] {
                let started = Instant::now();
                let plan = scheduler.plan_arrivals(&busy, std::hint::black_box(&batch), now);
                sample.push(elapsed_us(started));
                plan.map_err(err)?;
            }
        }
    }
    ledger.push("advisor.plan_aged_miss_ms", "ms", p50(&miss) / 1e3);
    ledger.push("advisor.plan_aged_hit_us", "us", p50(&hit));
    Ok(())
}

/// The advisor-offline phases per goal kind, then `search` and `learn`
/// alone on the first sample workloads of the same configuration.
fn offline(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<(), String> {
    let kind = Kind::AdvisorOffline;
    let sizes = Sizes::of(kind, quick);
    let spec = catalog();
    let batch = workloads::batch_workload(&sizes, seed);
    let mut trained = train_cold(kind, &sizes, &spec)?;
    let life = lifecycle(&spec, &mut trained, &batch, sizes.batch_calls)?;
    for row in &life.per_class {
        let goal = row.goal;
        ledger.push(format!("advisor.train_cold_s.{goal}"), "s", row.cold_s);
        ledger.push(
            format!("advisor.train_warm_ms.{goal}"),
            "ms",
            row.warm_s * 1e3,
        );
        ledger.push(format!("advisor.train_reseed_s.{goal}"), "s", row.reseed_s);
        ledger.push(format!("advisor.adapt_s.{goal}"), "s", row.adapt_s);
        ledger.push(
            format!("advisor.batch_ns_per_query.{goal}"),
            "ns",
            row.batch_s_per_call * 1e9 / batch.len() as f64,
        );
        ledger.push(
            format!("core.total_cost_ms.{goal}"),
            "ms",
            row.total_cost_s * 1e3,
        );
    }
    let sum =
        |f: fn(&workloads::ClassLifecycle) -> u64| life.per_class.iter().map(f).sum::<u64>() as f64;
    ledger.push("advisor.solves", "count", sum(|r| r.solves));
    ledger.push("advisor.warm_solves", "count", sum(|r| r.warm_solves));
    ledger.push("advisor.reseed_solves", "count", sum(|r| r.reseed_solves));
    ledger.push("advisor.cache_hits", "count", sum(|r| r.cache_hits));
    ledger.push("advisor.dataset_rows", "count", sum(|r| r.dataset_rows));
    ledger.push(
        "advisor.guard_share",
        "ratio",
        sum(|r| r.guard_steps) / sum(|r| r.steps),
    );

    let (mut expanded, mut generated, mut interned, mut solve_s) = (0u64, 0u64, 0u64, 0.0);
    let (mut nodes, mut depth) = (0usize, 0usize);
    let (mut predict_ns, mut extract_ns, mut rows) = (0.0, 0.0, 0usize);
    for goal_kind in GoalKind::ALL {
        let name = goal_kind.name();
        let goal = PerformanceGoal::paper_default(goal_kind, &spec).map_err(err)?;
        let mut config = workloads::model_config(kind, &sizes, goal_kind);
        config.num_samples = sized(SOLVE_SAMPLES, quick);
        let samples =
            ModelGenerator::new(spec.clone(), goal.clone(), config.clone()).sample_workloads();
        let search = config.search_for(&goal);

        let mut solve_us = Vec::with_capacity(samples.len());
        let mut paths: Vec<OptimalSchedule> = Vec::with_capacity(samples.len());
        for sample in &samples {
            let started = Instant::now();
            let path = Solver::new(&spec, &goal)
                .with_config(search.clone())
                .solve(std::hint::black_box(sample))
                .map_err(err)?;
            solve_us.push(elapsed_us(started));
            expanded += path.stats.expanded;
            generated += path.stats.generated;
            interned += path.stats.interned;
            paths.push(path);
        }
        solve_s += solve_us.iter().sum::<f64>() / 1e6;
        ledger.push(
            format!("search.solve_ms_p50.{name}"),
            "ms",
            p50(&solve_us) / 1e3,
        );

        let started = Instant::now();
        let dataset = Dataset::from_paths(&spec, &goal, &paths);
        let tree = DecisionTree::train(&dataset, &config.tree);
        ledger.push(
            format!("learn.fit_ms.{name}"),
            "ms",
            started.elapsed().as_secs_f64() * 1e3,
        );
        nodes += tree.num_nodes();
        depth = depth.max(tree.depth());

        let started = Instant::now();
        for row in &dataset.rows {
            std::hint::black_box(tree.predict(std::hint::black_box(row)));
        }
        predict_ns += started.elapsed().as_nanos() as f64;
        let started = Instant::now();
        for step in paths.iter().flat_map(|p| &p.steps) {
            std::hint::black_box(dataset.schema.extract(&spec, &goal, &step.state));
        }
        extract_ns += started.elapsed().as_nanos() as f64;
        rows += dataset.rows.len();

        // §5 reuse only applies to monotone goals; Max is the one every
        // service workload trains.
        if goal_kind == GoalKind::MaxLatency {
            let tightened = goal.tighten_pct(&spec, 0.2);
            let (mut reused, mut fresh) = (0u64, 0u64);
            for sample in &samples {
                let mut searcher = AdaptiveSearcher::new();
                searcher
                    .solve(&spec, &goal, sample, search.clone())
                    .map_err(err)?;
                reused += searcher
                    .solve(&spec, &tightened, sample, search.clone())
                    .map_err(err)?
                    .stats
                    .expanded;
                fresh += Solver::new(&spec, &tightened)
                    .with_config(search.clone())
                    .solve(sample)
                    .map_err(err)?
                    .stats
                    .expanded;
            }
            ledger.push(
                "search.adapt_reuse_ratio",
                "ratio",
                reused as f64 / fresh as f64,
            );
        }
    }
    ledger.push("search.expanded", "count", expanded as f64);
    ledger.push("search.generated", "count", generated as f64);
    ledger.push("search.interned", "count", interned as f64);
    ledger.push("search.expansions_per_s", "1/s", expanded as f64 / solve_s);
    ledger.push("learn.tree_nodes", "count", nodes as f64);
    ledger.push("learn.tree_depth", "count", depth as f64);
    ledger.push("learn.predict_ns", "ns", predict_ns / rows as f64);
    ledger.push("learn.extract_ns", "ns", extract_ns / rows as f64);
    Ok(())
}

/// A bare `LiveCluster` driven with the serve-steady arrival shape: the
/// per-arrival bookkeeping under every offer, with no planner at all. A
/// VM is rented whenever the open one is gone or two minutes deep.
fn live_cluster(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<(), String> {
    let stream = workloads::trace(Kind::ServeSteady, seed, sized(DRIFT_OFFERS, quick));
    let mut cluster = LiveCluster::new(catalog(), LiveOptions::default());
    let mut step_us = Vec::with_capacity(stream.len());
    for (i, q) in stream.iter().enumerate() {
        let started = Instant::now();
        std::hint::black_box(cluster.advance_to(q.arrival));
        let target = match cluster.open_vm() {
            Some((index, view)) if view.backlog < Millis::from_secs(120) => index,
            _ => cluster.provision(VmTypeId(0)).map_err(err)?,
        };
        cluster
            .enqueue(target, QueryId(i as u32), q.template)
            .map_err(err)?;
        step_us.push(elapsed_us(started));
    }
    if cluster.drain().len() + step_us.len() < stream.len() {
        return Err("the bare cluster lost queries".into());
    }
    let deciles = stats::decile_p50s(&step_us);
    ledger.push("sim.live_step_us_first", "us", deciles[0]);
    ledger.push("sim.live_step_us_last", "us", deciles[deciles.len() - 1]);
    ledger.push(
        "sim.live_drift_ratio",
        "ratio",
        stats::drift_ratio(&step_us),
    );
    Ok(())
}

/// A traced repetition: its trace folded, and as Chrome text.
pub struct TracedSlice {
    pub kind: Kind,
    pub rep: Rep,
    pub fold: Fold,
    pub chrome: String,
}

/// One half-size repetition of `kind` under `Level::Spans`.
pub fn traced_slice(kind: Kind, seed: u64, quick: bool) -> Result<TracedSlice, String> {
    let sizes = Sizes::of(kind, quick).shrunk(2);
    let collector = wisedb_obs::install(Level::Spans);
    let rep = workloads::run_rep(kind, &sizes, seed);
    let recorded = collector.finish();
    Ok(TracedSlice {
        kind,
        rep: rep?,
        fold: trace::fold(&recorded),
        chrome: recorded.to_chrome(),
    })
}

/// Traced against untraced offers per second on half-size serve-steady
/// segments, alternating so that a slow spell of the host lands on both
/// sides; the medians of each side are compared.
fn tracing_overhead(ledger: &mut Ledger, seed: u64, quick: bool) -> Result<TracedSlice, String> {
    const PAIRS: usize = 4;
    let kind = Kind::ServeSteady;
    let sizes = Sizes::of(kind, quick).shrunk(2);
    let rate = |rep: &Rep| rep.offer_us.len() as f64 / rep.front_wall_s;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..PAIRS {
        plain.push(rate(&front(kind, &sizes, seed, FrontOpts::default())?.0));
        let slice = traced_slice(kind, seed, quick)?;
        traced.push(rate(&slice.rep));
        last = Some(slice);
    }
    let slice = last.expect("at least one pair ran");
    ledger.push(
        "obs.overhead_share",
        "ratio",
        1.0 - stats::median(&traced) / stats::median(&plain),
    );
    ledger.push(
        "obs.events_per_offer",
        "1/offer",
        slice.fold.events as f64 / slice.rep.offer_us.len() as f64,
    );
    Ok(slice)
}

/// The named workload's own rows: where its traced slice spent its time,
/// and the two output shares that can be zero and so cannot be bounded
/// end-to-end metrics.
pub fn workload_rows(ledger: &mut Ledger, slice: &TracedSlice) {
    let fold = &slice.fold;
    let front_door = match slice.kind {
        Kind::ServeSteady | Kind::ServeAged => "bench.offer",
        Kind::TenantsTicked => "bench.tick",
        Kind::AdvisorOffline => "bench.batch",
    };
    ledger.push("trace.root_us_per_op", "us", fold.us_per_op(front_door));
    ledger.push("trace.self_sum_share", "ratio", fold.self_sum_share());
    ledger.push("trace.residual_share", "ratio", fold.residual_share());
    for name in trace::ROOTS.iter().chain(&trace::PRODUCT_SPANS) {
        ledger.push(
            format!("trace.{name}.self_share"),
            "ratio",
            fold.self_share(name),
        );
    }
    ledger.push("trace.other.self_share", "ratio", fold.other_share());
    ledger.push("violation_share", "ratio", slice.rep.violation_share);
    ledger.push(
        "fail_share",
        "ratio",
        slice.rep.failed as f64 / slice.rep.attempted as f64,
    );
}
