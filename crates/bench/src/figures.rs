//! The paper-figure registry: one [`Figure`] per table of arXiv
//! 1601.08221 §7 (Figures 9–22), then the extensions — the §4.4 feature
//! ablation, the streaming runtime, multi-tenant consolidation, the search
//! strategy shoot-out and warm retraining — run by the `fig` binary over
//! one [`Context`]. Cost-valued figures go through one gap helper
//! (`Context::gap`); models come from the context's memo, one training
//! per distinct (spec, goal, config). Every cell is a cost, a work counter
//! or a virtual-clock reading: only `benchmark/` times code.
//! `strategies` and `train_warm` gate: each panics when its contract
//! breaks.

use std::rc::Rc;

use wisedb::advisor::{self, OnlineCounters, Planner, StepSource, TrainingArtifacts};
use wisedb::prelude::*;
use wisedb::runtime::generate_stream;
use wisedb::sim::{self, catalog, stats, Arrivals, SimOptions};
use wisedb_core::ArrivingQuery;
use wisedb_learn::{Dataset, DecisionTree, FeatureKind, TreeParams};
use wisedb_search::SearchStats;

use crate::{multitenant, oracle_config, pct_above, Cell, Scale, Table};

/// One registered figure.
pub struct Figure {
    /// The id `fig` takes on its command line.
    pub id: &'static str,
    /// What the table shows.
    pub title: &'static str,
    /// Builds the (untitled) table.
    pub run: fn(&mut Context) -> Table,
}

/// Every figure, in paper order.
#[rustfmt::skip]
pub const FIGURES: &[Figure] = &[
    Figure { id: "9", title: "cost of 30-query workloads, WiSeDB vs Optimal (cents, mean)", run: fig09 },
    Figure { id: "10", title: "% cost above optimal vs workload size", run: fig10 },
    Figure { id: "11", title: "% cost above optimal vs goal strictness", run: fig11 },
    Figure { id: "12", title: "cost with 1 vs 2 VM types, 30-query workloads (cents, mean)", run: fig12 },
    Figure { id: "13", title: "5000-query workload cost vs the heuristics (cents, mean)", run: fig13 },
    Figure { id: "14", title: "training work vs number of templates", run: fig14 },
    Figure { id: "15", title: "training work vs number of VM types", run: fig15 },
    Figure { id: "16", title: "A* expansions of adaptive retraining vs SLA tightening", run: fig16 },
    Figure { id: "17", title: "batch scheduling work vs batch size (Max goal)", run: fig17 },
    Figure { id: "18", title: "online % cost above A*-per-batch vs arrival delay (s)", run: fig18 },
    Figure { id: "19", title: "online model work over 30 arrivals ~ N(250 ms, 125 ms)", run: fig19 },
    Figure { id: "20", title: "% cost above optimal vs workload skew", run: fig20 },
    Figure { id: "21", title: "WiSeDB cost distribution vs skew (Max goal, cents)", run: fig21 },
    Figure { id: "22", title: "% realized cost above optimal vs prediction error", run: fig22 },
    Figure { id: "ablation", title: "feature ablation (Max goal, 30-query batches)", run: ablation },
    Figure { id: "streaming", title: "streams per arrival process, Max goal, 0.5 q/s mean", run: streaming },
    Figure { id: "streaming_rates", title: "streams per Poisson rate: p95 latency and VMs", run: streaming_rates },
    Figure { id: "streaming_overload", title: "admission control under an 8 q/s Poisson burst, Max goal", run: streaming_overload },
    Figure { id: "multitenant", title: "three SLA classes on one shared fleet vs isolated fleets", run: multitenant },
    Figure { id: "strategies", title: "search strategies on the 18-query, 10-template instance", run: strategies },
    Figure { id: "train_warm", title: "cold training vs warm retrain through the solve cache", run: train_warm },
];

/// The figures named by `ids`, all of them when `ids` is empty; an unknown
/// id is an error that lists the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<&'static Figure>, String> {
    if ids.is_empty() {
        return Ok(FIGURES.iter().collect());
    }
    let valid: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let err = |id| format!("unknown figure {id:?}; valid ids: {}", valid.join(", "));
    let find = |id| FIGURES.iter().find(|f| f.id == id).ok_or_else(|| err(id));
    ids.iter().map(find).collect()
}

/// A memoized model. Only default-spec, paper-default-goal models keep
/// their training artifacts (Figs 16, 18 and 19 adapt them): a Percent
/// model's settled vertices run to gigabytes at std scale.
type Trained = Rc<(DecisionModel, Option<TrainingArtifacts>)>;

const KEPT: &str = "default-spec, default-goal models keep their artifacts";

/// What the figures of one run share.
pub struct Context {
    scale: Scale,
    /// The default spec, `tpch_like(10)`.
    spec: WorkloadSpec,
    oracle: bool,
    models: Vec<((WorkloadSpec, PerformanceGoal, ModelConfig), Trained)>,
}

impl Context {
    /// A context at `scale`. Without `oracle`, `gap` skips the
    /// optimal solves and their cells read `-` (`regress`'s cheap subset).
    pub fn new(scale: Scale, oracle: bool) -> Self {
        let (spec, models) = (catalog::tpch_like(10), Vec::new());
        Context {
            scale,
            spec,
            oracle,
            models,
        }
    }

    /// Models trained so far: one per distinct (spec, goal, config).
    pub fn trainings(&self) -> usize {
        self.models.len()
    }

    /// The model for `spec` under `goal` and config `c`, trained on first use.
    fn model(&mut self, spec: &WorkloadSpec, goal: PerformanceGoal, c: &ModelConfig) -> Trained {
        let key = (spec.clone(), goal, c.clone());
        if let Some((_, hit)) = self.models.iter().find(|(k, _)| *k == key) {
            return Rc::clone(hit);
        }
        let (kind, types) = (key.1.kind(), spec.num_vm_types());
        let (name, templates) = (kind.name(), spec.num_templates());
        eprintln!("  training {name} model ({templates} templates, {types} VM types)...");
        let keep = *spec == self.spec && key.1 == default_goal(kind, spec);
        let generator = ModelGenerator::new(spec.clone(), key.1.clone(), c.clone());
        let (model, artifacts) = generator.train_with_artifacts().expect("training succeeds");
        let trained = Rc::new((model, keep.then_some(artifacts)));
        self.models.push((key, Rc::clone(&trained)));
        trained
    }

    /// The default model for `kind`: the default spec, the paper-default
    /// goal and the scale's training config.
    fn default_model(&mut self, kind: GoalKind) -> Trained {
        let (spec, config) = (self.spec.clone(), self.scale.training());
        self.model(&spec, default_goal(kind, &spec), &config)
    }

    /// The default model's tree for `kind`, trained on first use.
    pub fn default_tree(&mut self, kind: GoalKind) -> DecisionTree {
        self.default_model(kind).0.tree().clone()
    }

    /// WiSeDB's and the oracle's mean cost and the gap between them over
    /// seeds `seed, seed + 1, …`; `run` builds a seed's workload and prices
    /// WiSeDB on it. A budget-limited oracle stars the gap.
    fn gap(
        &self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        seed: u64,
        mut run: impl FnMut(u64) -> (Workload, Money),
    ) -> [Cell; 3] {
        let n = self.scale.repeats();
        let (mut wisedb, mut optimal, mut proven) = (Money::ZERO, Money::ZERO, true);
        for seed in seed..seed + n as u64 {
            let (workload, cost) = run(seed);
            wisedb += cost;
            if self.oracle {
                let solver = Solver::new(spec, goal).with_config(oracle_config());
                let solved = solver.solve(&workload).expect("oracle search succeeds");
                optimal += solved.cost;
                proven &= solved.stats.optimal;
            }
        }
        let mean = |m: Money| Cell::money(m / n as f64);
        if !self.oracle {
            return [mean(wisedb), "-".into(), "-".into()];
        }
        let value = pct_above(wisedb, optimal);
        [mean(wisedb), mean(optimal), Cell::Pct { value, proven }]
    }
}

/// The `% above optimal` cell of a [`Context::gap`].
fn pct([.., pct]: [Cell; 3]) -> Cell {
    pct
}

fn default_goal(kind: GoalKind, spec: &WorkloadSpec) -> PerformanceGoal {
    PerformanceGoal::paper_default(kind, spec).expect("catalog specs admit defaults")
}

/// Eq. 1 cost of `model`'s schedule for `workload`.
fn model_cost(model: &DecisionModel, workload: &Workload) -> Money {
    let schedule = model.schedule_batch(workload).expect("scheduling succeeds");
    schedule.validate_complete(workload).expect("complete");
    total_cost(model.spec(), model.goal(), &schedule).expect("cost computes")
}

/// A [`Context::gap`] `run`: `model` on a `size`-query uniform workload.
fn uniform(model: &DecisionModel, size: usize) -> impl FnMut(u64) -> (Workload, Money) + '_ {
    move |seed| {
        let workload = sim::uniform_workload(model.spec(), size, seed);
        let cost = model_cost(model, &workload);
        (workload, cost)
    }
}

/// One row per goal kind: its name, then `cells(ctx, kind)` under `headers`.
fn by_goal<I: IntoIterator<Item = Cell>>(
    ctx: &mut Context,
    headers: &[&str],
    mut cells: impl FnMut(&mut Context, GoalKind) -> I,
) -> Table {
    let mut table = Table::new("", &[&["goal"], headers].concat());
    for kind in GoalKind::ALL {
        table.row(std::iter::once(Cell::from(kind.name())).chain(cells(ctx, kind)));
    }
    table
}

/// One row per goal kind, one `cell(ctx, kind, i, xs[i])` per setting.
fn grid<X: Copy>(
    ctx: &mut Context,
    headers: &[&str],
    xs: &[X],
    mut cell: impl FnMut(&mut Context, GoalKind, usize, X) -> Cell,
) -> Table {
    by_goal(ctx, headers, |ctx, kind| {
        let cells = xs.iter().enumerate().map(|(i, &x)| cell(ctx, kind, i, x));
        cells.collect::<Vec<_>>()
    })
}

fn fig09(ctx: &mut Context) -> Table {
    by_goal(ctx, &["WiSeDB", "Optimal", "% above"], |ctx, kind| {
        let m = ctx.default_model(kind);
        ctx.gap(&ctx.spec, m.0.goal(), 9_000, uniform(&m.0, 30))
    })
}

fn fig10(ctx: &mut Context) -> Table {
    let headers = ["20 queries", "25 queries", "30 queries"];
    grid(ctx, &headers, &[20, 25, 30], |ctx, kind, i, size| {
        let (m, seed) = (ctx.default_model(kind), 10_000 + 100 * i as u64);
        pct(ctx.gap(&ctx.spec, m.0.goal(), seed, uniform(&m.0, size)))
    })
}

fn fig11(ctx: &mut Context) -> Table {
    let headers = ["-0.4", "-0.2", "0.0", "+0.2", "+0.4"];
    let strictness = [-0.4, -0.2, 0.0, 0.2, 0.4];
    grid(ctx, &headers, &strictness, |ctx, kind, i, s| {
        let (spec, config) = (ctx.spec.clone(), ctx.scale.training());
        let goal = default_goal(kind, &spec).tighten_pct(&spec, s);
        let (m, seed) = (ctx.model(&spec, goal, &config), 11_000 + 100 * i as u64);
        pct(ctx.gap(&spec, m.0.goal(), seed, uniform(&m.0, 30)))
    })
}

fn fig12(ctx: &mut Context) -> Table {
    let cols = ["1T", "2T"].map(|t| ["WiSeDB", "Optimal", "% above"].map(|h| format!("{h} {t}")));
    let headers: Vec<&str> = cols.iter().flatten().map(String::as_str).collect();
    let specs = [ctx.spec.clone(), catalog::tpch_like_two_types(10)];
    by_goal(ctx, &headers, |ctx, kind| {
        let config = ctx.scale.training();
        let mut gap = |spec: &WorkloadSpec| {
            let m = ctx.model(spec, default_goal(kind, spec), &config);
            ctx.gap(spec, m.0.goal(), 12_000, uniform(&m.0, 30))
        };
        specs.iter().flat_map(&mut gap).collect::<Vec<_>>()
    })
}

fn fig13(ctx: &mut Context) -> Table {
    by_goal(ctx, &["FFD", "FFI", "Pack9", "WiSeDB"], |ctx, kind| {
        let m = ctx.default_model(kind);
        let (spec, goal, n) = (m.0.spec(), m.0.goal(), ctx.scale.repeats());
        let mut sums = [Money::ZERO; 4];
        for seed in 13_000..13_000 + n as u64 {
            let w = sim::uniform_workload(spec, 5000, seed);
            for (sum, h) in sums.iter_mut().zip(Heuristic::ALL) {
                let s = h.schedule(spec, goal, &w).expect("baseline schedules");
                *sum += total_cost(spec, goal, &s).expect("cost computes");
            }
            sums[3] += model_cost(&m.0, &w);
        }
        sums.map(|s| Cell::money(s / n as f64))
    })
}

/// Figs 14 and 15: the work of training each goal kind on each spec.
fn training(ctx: &mut Context, axis: &str, xs: &[(u64, WorkloadSpec)], c: ModelConfig) -> Table {
    let mut table = Table::new("", &["goal", axis, "solves", "expanded", "limit hits"]);
    for kind in GoalKind::ALL {
        for (x, spec) in xs {
            let m = ctx.model(spec, default_goal(kind, spec), &c);
            let s = m.0.stats();
            let counts = [*x, s.solves, s.search_expanded, s.limit_hits].map(Cell::Count);
            table.row(std::iter::once(Cell::from(kind.name())).chain(counts));
        }
    }
    table
}

fn fig14(ctx: &mut Context) -> Table {
    let specs = [5, 10, 15, 20].map(|n| (n, catalog::tpch_like(n as usize)));
    training(ctx, "templates", &specs, ctx.scale.training())
}

/// Fig 15's per-solve expansion budget. On ≥ 5 VM types nearly every
/// Average and Percent sample exhausts even 200 000 expansions, and the
/// default budget holds gigabytes per solve.
const FIG15_NODE_LIMIT: usize = 20_000;

fn fig15(ctx: &mut Context) -> Table {
    let specs = [1, 5, 10].map(|k| (k, catalog::tpch_like_k_types(10, k as usize)));
    let mut config = ctx.scale.training();
    config.search.node_limit = FIG15_NODE_LIMIT;
    let mut table = training(ctx, "VM types", &specs, config);
    table.note(format!("Solves stop at {FIG15_NODE_LIMIT} expansions."));
    table
}

fn fig16(ctx: &mut Context) -> Table {
    let headers = ["initial", "10%", "20%", "40%", "60%", "80%", "100%"];
    by_goal(ctx, &headers, |ctx, kind| {
        let m = ctx.default_model(kind);
        let (spec, base) = (m.0.spec(), m.0.goal());
        let generator = ModelGenerator::new(spec.clone(), base.clone(), ctx.scale.training());
        let mut artifacts = m.1.clone().expect(KEPT);
        let mut expanded = vec![m.0.stats().search_expanded];
        for p in [0.1, 0.2, 0.4, 0.6, 0.8, 1.0] {
            let model = generator.retrain_tightened(&base.tighten_pct(spec, p), &mut artifacts);
            expanded.push(model.expect("retraining succeeds").stats().search_expanded);
        }
        expanded.into_iter().map(Cell::Count)
    })
}

fn fig17(ctx: &mut Context) -> Table {
    let m = ctx.default_model(GoalKind::MaxLatency);
    let mut table = Table::new("", &["batch size", "decisions", "from tree", "VMs"]);
    for size in [10_000usize, 20_000, 30_000] {
        let w = sim::uniform_workload(&ctx.spec, size, 17_000);
        let (schedule, plan) = m.0.schedule_batch_with_plan(&w).expect("schedules");
        schedule.validate_complete(&w).expect("complete schedule");
        let sources = plan.decisions.iter().map(|(_, source)| source);
        let tree = sources.filter(|&&s| s == StepSource::Model).count();
        let counts = [size, plan.decisions.len(), tree, schedule.num_vms()];
        table.row(counts.map(|c| Cell::Count(c as u64)));
    }
    table
}

/// `w`'s queries, arriving at `times`.
fn stream(w: &Workload, times: impl IntoIterator<Item = Millis>) -> Vec<ArrivingQuery> {
    let arriving = |(q, at): (&Query, _)| ArrivingQuery::new(q.template, at);
    w.queries().iter().zip(times).map(arriving).collect()
}

/// Replays `stream` through the runtime's online loop over `m`, a model
/// that kept its artifacts: the drained service's cost (Eq. 1) and its
/// scheduler's model work.
fn replay(m: &Trained, config: OnlineConfig, stream: &[ArrivingQuery]) -> (Money, OnlineCounters) {
    let scheduler = OnlineScheduler::with_model(m.0.clone(), m.1.clone().expect(KEPT), config);
    let mut service = WorkloadService::with_scheduler(scheduler, RuntimeConfig::default());
    let report = service.run_stream(stream).expect("replay succeeds");
    let work = service.scheduler(TenantId::DEFAULT).expect("one class");
    (report.last.total_cost(), work.counters())
}

fn fig18(ctx: &mut Context) -> Table {
    let base = OnlineConfig {
        training: ctx.scale.training(),
        ..OnlineConfig::default()
    };
    let headers = ["0", "0.25", "0.5", "0.75", "1.0"];
    let delays = [0.0, 0.25, 0.5, 0.75, 1.0];
    grid(ctx, &headers, &delays, |ctx, kind, _, delay| {
        let m = ctx.default_model(kind);
        let w = sim::uniform_workload(m.0.spec(), 30, 18_000 + (delay * 100.0) as u64);
        let stream = stream(&w, (0..).map(|i| Millis::from_secs_f64(delay * i as f64)));
        let replay_with = |planner| {
            let mut config = base.clone();
            config.planner = planner;
            replay(&m, config, &stream)
        };
        let (wisedb, _) = replay_with(Planner::Model);
        let (optimal, oracle) = replay_with(Planner::Optimal);
        Cell::Pct {
            value: pct_above(wisedb, optimal),
            proven: oracle.oracle_limit_hits == 0,
        }
    })
}

fn fig19(ctx: &mut Context) -> Table {
    // Retraining inside the online loop uses a reduced budget, as any
    // deployment would; the base model shares it.
    let mut training = ctx.scale.training();
    training.num_samples = (training.num_samples / 4).max(50);
    let base = OnlineConfig {
        training,
        ..OnlineConfig::default()
    };
    let w = sim::uniform_workload(&ctx.spec, 30, 19_001);
    let normal = Arrivals::Normal {
        mean_secs: 0.25,
        std_secs: 0.125,
    };
    let stream = stream(&w, normal.times(30, 19_002));
    let mut table = Table::new("", &["goal", "arm", "retrains", "cache hits", "shifts"]);
    for kind in GoalKind::ALL {
        let spec = ctx.spec.clone();
        let m = ctx.model(&spec, default_goal(kind, &spec), &base.training);
        for arm in ["Shift+Reuse", "Shift", "Reuse", "None"] {
            let mut config = base.clone();
            (config.reuse, config.shift) = (arm.contains("Reuse"), arm.contains("Shift"));
            let (_, w) = replay(&m, config, &stream);
            let counts = [w.retrains, w.cache_hits, w.shifts].map(|c| Cell::Count(c as u64));
            table.row([kind.name(), arm].map(Cell::from).into_iter().chain(counts));
        }
    }
    table
}

fn fig20(ctx: &mut Context) -> Table {
    let headers = ["χ²≈0.0", "χ²≈0.25", "χ²≈0.5", "χ²≈0.75", "χ²≈1.0"];
    let mut conf = [0.0f64; 5];
    let skews = [0.0, 0.25, 0.5, 0.75, 1.0];
    let mut table = grid(ctx, &headers, &skews, |ctx, kind, i, skew| {
        let m = ctx.default_model(kind);
        let spec = m.0.spec();
        let run = |seed| {
            let w = sim::skewed_workload(spec, 30, skew, seed);
            let chi2 = stats::chi_squared_stat(&w.template_counts(spec.num_templates()));
            conf[i] += stats::chi_squared_confidence(chi2, spec.num_templates() - 1);
            let cost = model_cost(&m.0, &w);
            (w, cost)
        };
        pct(ctx.gap(spec, m.0.goal(), 20_000 + 100 * i as u64, run))
    });
    let conf = conf.map(|c| c / (ctx.scale.repeats() * GoalKind::ALL.len()) as f64);
    table.note(format!("Measured χ² confidence per skew: {conf:.2?}"));
    table
}

fn fig21(ctx: &mut Context) -> Table {
    let m = ctx.default_model(GoalKind::MaxLatency);
    // Quick / std / paper; the paper uses 1000 workloads per skew level.
    let per_level: u64 = [60, 200, 1000][ctx.scale as usize];
    let mut table = Table::new("", &["skew", "mean", "min", "max", "std"]);
    for skew in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let workload = |rep| sim::skewed_workload(&ctx.spec, 30, skew, 21_000 + rep);
        let dollars = |rep| model_cost(&m.0, &workload(rep)).as_dollars();
        let costs: Vec<f64> = (0..per_level).map(dollars).collect();
        let min = costs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = costs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let summary = [stats::mean(&costs), min, max, stats::std_dev(&costs)];
        let cells = summary.map(|d| Cell::money(Money::from_dollars(d)));
        table.row(std::iter::once(Cell::Text(format!("{skew:.2}"))).chain(cells));
    }
    table
}

/// Fig 22's prediction errors σ, in column order.
pub const FIG22_SIGMAS: [f64; 5] = [0.05, 0.10, 0.20, 0.30, 0.40];

/// One Fig 22 cell: the default `kind` model plans on templates perceived
/// under error `FIG22_SIGMAS[i]` and the schedule executes with the true
/// latencies; the oracle knows the true templates. Returns WiSeDB's mean
/// realized cost, the oracle's and the gap (both `-` without an oracle),
/// and adds each workload's misassignment rate to `missed`.
pub fn fig22_cell(ctx: &mut Context, kind: GoalKind, i: usize, missed: &mut f64) -> [Cell; 3] {
    let sigma = FIG22_SIGMAS[i];
    let m = ctx.default_model(kind);
    let (spec, goal) = (m.0.spec(), m.0.goal());
    let run = |seed| {
        let w = sim::uniform_workload(spec, 30, seed);
        let perceived = sim::perceive_workload(spec, &w, sigma, seed);
        *missed += perceived.misassignment_rate();
        let schedule = m.0.schedule_batch(&perceived.perceived).expect("schedules");
        let true_latencies = Some(perceived.true_latencies);
        let options = SimOptions { true_latencies };
        let trace = sim::execute(spec, &schedule, &options).expect("execution succeeds");
        (w, trace.total_cost(goal))
    };
    ctx.gap(spec, goal, 22_000 + 100 * i as u64, run)
}

fn fig22(ctx: &mut Context) -> Table {
    let mut missed = [0.0f64; 5];
    let headers = ["5%", "10%", "20%", "30%", "40%"];
    let mut table = grid(ctx, &headers, &FIG22_SIGMAS, |ctx, kind, i, _| {
        pct(fig22_cell(ctx, kind, i, &mut missed[i]))
    });
    let missed = missed.map(|m| m / (ctx.scale.repeats() * GoalKind::ALL.len()) as f64 * 100.0);
    table.note(format!("Mean misassignment per σ (%): {missed:.0?}"));
    table
}

/// Retrains the tree with each §4.4 feature family zeroed out of the same
/// training set, and prices it with the advisor's own batch scheduler,
/// guard included. A tree splits only between distinct values, so no split
/// tests a zeroed column: the unmasked schema serves every masked tree.
fn ablation(ctx: &mut Context) -> Table {
    let spec = &ctx.spec;
    let goal = default_goal(GoalKind::MaxLatency, spec);
    let samples = ModelGenerator::new(spec.clone(), goal.clone(), ctx.scale.training());
    let solve = |w: &Workload| Solver::new(spec, &goal).solve(w).expect("training solves");
    let paths: Vec<_> = samples.sample_workloads().iter().map(solve).collect();
    let base = Dataset::from_paths(spec, &goal, &paths);
    type Masked = fn(FeatureKind) -> bool;
    let families: [(&str, Masked); 5] = [
        ("full feature set", |_| false),
        ("without wait-time", |k| k == FeatureKind::WaitTime),
        ("without proportion-of-X", |k| {
            matches!(k, FeatureKind::ProportionOf(_))
        }),
        ("without cost-of-X", |k| matches!(k, FeatureKind::CostOf(_))),
        ("without have-X", |k| matches!(k, FeatureKind::Have(_))),
    ];
    let headers = ["feature set", "% above optimal", "tree depth", "leaves"];
    let mut table = Table::new("", &headers);
    for (name, masked) in families {
        let mut dataset = base.clone();
        for row in &mut dataset.rows {
            let columns = row.iter_mut().enumerate();
            columns
                .filter(|(i, _)| masked(base.schema.kind(*i)))
                .for_each(|(_, v)| *v = 0.0);
        }
        let tree = DecisionTree::train(&dataset, &TreeParams::default());
        let run = |seed| {
            let w = sim::uniform_workload(spec, 30, seed);
            let planned = advisor::schedule_batch(spec, &goal, &base.schema, &tree, &w);
            let (schedule, _) = planned.expect("scheduling succeeds");
            let cost = total_cost(spec, &goal, &schedule).expect("cost computes");
            (w, cost)
        };
        let pct = pct(ctx.gap(spec, &goal, 31_000, run));
        let shape = [tree.depth(), tree.num_leaves()].map(|c| Cell::Count(c as u64));
        table.row([Cell::from(name), pct].into_iter().chain(shape));
    }
    table
}

/// Queries per stream in the `streaming*` figures; the rate sweep and the
/// overload burst stop at 500.
fn stream_len(scale: Scale) -> usize {
    [500, 1000, 2000][scale as usize]
}

/// The `streaming*` figures' model for `kind`: the default one, except that
/// Percentile samples stay at 9 queries. Percentile A* sample solves grow
/// super-exponentially in the sample size (one std model takes the better
/// part of an hour); Figs 9–22 pay for the full-size training.
fn streaming_model(ctx: &mut Context, kind: GoalKind) -> Trained {
    let (spec, mut config) = (ctx.spec.clone(), ctx.scale.training());
    if kind == GoalKind::Percentile {
        config.sample_size = config.sample_size.min(9);
    }
    ctx.model(&spec, default_goal(kind, &spec), &config)
}

/// A fresh single-class service over `m`, retraining online as the
/// multi-tenant scenario does.
fn service(m: &Trained, runtime: RuntimeConfig) -> WorkloadService {
    let artifacts = m.1.clone().expect(KEPT);
    let online = multitenant::online_config();
    WorkloadService::with_scheduler(
        OnlineScheduler::with_model(m.0.clone(), artifacts, online),
        runtime,
    )
}

/// A virtual-clock latency, in whole seconds.
fn secs(m: Millis) -> Cell {
    Cell::Text(format!("{:.0}s", m.as_secs_f64()))
}

/// A share of queries, as a percentage.
fn share(x: f64) -> Cell {
    Cell::Text(format!("{:.1}%", x * 100.0))
}

/// A stream's last three columns: violation share, $/h and VMs rented.
fn fleet(s: &MetricsSnapshot) -> [Cell; 3] {
    let per_hour = Cell::Text(format!("{:.2}", s.dollars_per_hour));
    [
        share(s.violation_rate),
        per_hour,
        Cell::Count(s.vms_provisioned),
    ]
}

fn streaming(ctx: &mut Context) -> Table {
    let (n, rate, nt) = (stream_len(ctx.scale), 0.5, ctx.spec.num_templates());
    let mix = TemplateMix::uniform(nt);
    let mut processes: Vec<Box<dyn ArrivalProcess>> = vec![
        Box::new(PoissonProcess::per_second(rate, mix.clone())),
        Box::new(OnOffProcess::new(0.25, 24.0, 8, mix.clone())),
    ];
    if ctx.scale != Scale::Quick {
        let period = Millis::from_mins(10);
        let diurnal = DiurnalProcess::new(rate, 0.8, period, mix.clone());
        let hot = TemplateMix::hot(nt, 0, 0.7);
        let half = Millis::from_secs(n as u64 / 2);
        processes.push(Box::new(diurnal));
        processes.push(Box::new(DriftProcess::new(rate, mix, hot, half)));
    }
    let m = streaming_model(ctx, GoalKind::MaxLatency);
    let headers = ["process", "done", "p50", "p95", "p99", "viol", "$/h", "vms"];
    let mut table = Table::new("", &headers);
    for process in &mut processes {
        let report = service(&m, RuntimeConfig::default()).run_process(process.as_mut(), n);
        let s = report.expect("streams run").last;
        let latency = [s.latency.p50, s.latency.p95, s.latency.p99].map(secs);
        let head = [Cell::Text(process.label()), Cell::Count(s.completed)];
        table.row(head.into_iter().chain(latency).chain(fleet(&s)));
    }
    table.note(format!("{n}-query streams."));
    table
}

fn streaming_rates(ctx: &mut Context) -> Table {
    let rates: &[f64] = match ctx.scale {
        Scale::Quick => &[0.5, 2.0],
        _ => &[0.25, 0.5, 1.0, 2.0, 4.0],
    };
    let n = stream_len(ctx.scale).min(500);
    let cols = rates
        .iter()
        .flat_map(|r| [format!("p95@{r}/s"), format!("vms@{r}/s")]);
    let cols: Vec<String> = cols.collect();
    let headers: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mix = TemplateMix::uniform(ctx.spec.num_templates());
    let mut table = by_goal(ctx, &headers, |ctx, kind| {
        let m = streaming_model(ctx, kind);
        let cells = rates.iter().flat_map(|&r| {
            // One seeded stream per rate, the same for every goal kind.
            let mut process = PoissonProcess::per_second(r, mix.clone());
            let stream = generate_stream(&mut process, n, 0x005E_ED57 + (r * 8.0) as u64);
            let report = service(&m, RuntimeConfig::default()).run_stream(&stream);
            let s = report.expect("streams run").last;
            [secs(s.latency.p95), Cell::Count(s.vms_provisioned)]
        });
        cells.collect::<Vec<_>>()
    });
    table.note(format!("{n}-query Poisson streams."));
    table
}

fn streaming_overload(ctx: &mut Context) -> Table {
    let n = stream_len(ctx.scale).min(500);
    let mix = TemplateMix::uniform(ctx.spec.num_templates());
    let m = streaming_model(ctx, GoalKind::MaxLatency);
    let headers = ["admission", "admitted", "shed", "p95", "viol", "$/h", "vms"];
    let mut table = Table::new("", &headers);
    for (label, admission) in [
        ("AcceptAll", AdmissionPolicy::AcceptAll),
        ("MaxVms(24)", AdmissionPolicy::MaxVms(24)),
    ] {
        let runtime = RuntimeConfig {
            admission,
            ..RuntimeConfig::default()
        };
        let mut process = PoissonProcess::per_second(8.0, mix.clone());
        let report = service(&m, runtime).run_process(&mut process, n);
        let s = report.expect("streams run").last;
        let head = [
            label.into(),
            Cell::Count(s.admitted),
            Cell::Count(s.rejected),
        ];
        table.row(
            head.into_iter()
                .chain([secs(s.latency.p95)])
                .chain(fleet(&s)),
        );
    }
    table.note(format!("{n}-query streams."));
    table
}

/// Per-class rows for both deployments, then each deployment's totals.
/// A shared-fleet class row bills the class's share and counts the whole
/// fleet's VMs.
fn multitenant(ctx: &mut Context) -> Table {
    let outcome = multitenant::run(&ctx.spec, ctx.scale);
    let headers = [
        "deployment",
        "class",
        "completed",
        "p50",
        "p95",
        "viol%",
        "billed ¢",
        "penalty ¢",
        "fleet VMs",
    ];
    let mut table = Table::new("", &headers);
    let shared = &outcome.shared.last;
    let per_class = shared
        .classes
        .iter()
        .map(|c| ("shared", c, c.billed, shared));
    let isolated = outcome
        .isolated
        .iter()
        .map(|r| ("isolated", &r.last.classes[0], r.last.billed, &r.last));
    let classes = outcome.classes.iter().cycle();
    for ((deployment, c, billed, fleet), class) in per_class.chain(isolated).zip(classes) {
        let head = [
            deployment.into(),
            Cell::from(&class.name),
            Cell::Count(c.completed),
        ];
        let latency = [
            secs(c.latency.p50),
            secs(c.latency.p95),
            share(c.violation_rate),
        ];
        let tail = [
            Cell::money(billed),
            Cell::money(c.penalty),
            Cell::Count(fleet.vms_provisioned),
        ];
        table.row(head.into_iter().chain(latency).chain(tail));
    }
    let isolated = outcome.isolated.iter().map(|r| &r.last);
    let sums = isolated.fold(Default::default(), |(n, b, p), s| {
        (n + s.completed, b + s.billed, p + s.penalty)
    });
    let own = (shared.completed, shared.billed, shared.penalty);
    let totals = [
        ("shared", own, outcome.shared_vms()),
        ("isolated×3", sums, outcome.isolated_vms()),
    ];
    for (deployment, (completed, billed, penalty), vms) in totals {
        let head = [deployment.into(), "total".into(), Cell::Count(completed)];
        let tail = [Cell::money(billed), Cell::money(penalty), Cell::Count(vms)];
        let blank = ["-", "-", "-"].map(Cell::from);
        table.row(head.into_iter().chain(blank).chain(tail));
    }
    let [shared, isolated] = [outcome.shared_total(), outcome.isolated_total()].map(Cell::money);
    table.note(format!(
        "Consolidation saving: {:.1}% of the isolated fleets' total cost ({}¢ shared vs {}¢ isolated).",
        outcome.saving_pct(),
        shared.render(),
        isolated.render(),
    ));
    table
}

/// Queries in the strategy shoot-out: the paper's training sample size.
const PATHOLOGY_QUERIES: usize = 18;
/// The bounded arms' expansion budget, about 1 % of what exact A* burns on
/// the Percentile instance before giving up.
const PATHOLOGY_BUDGET: usize = 50_000;
/// The largest certified cost/optimal ratio the gated solve may report.
const PATHOLOGY_MAX_BOUND: f64 = 1.05;

/// The percentile-pathology gate on the Percentile anytime solve: it stays
/// inside [`PATHOLOGY_BUDGET`] expansions and certifies a bound of at most
/// [`PATHOLOGY_MAX_BOUND`].
fn pathology_gate(s: &SearchStats) -> Result<(), String> {
    if s.expanded <= PATHOLOGY_BUDGET as u64 && s.bound <= PATHOLOGY_MAX_BOUND {
        return Ok(());
    }
    Err(format!(
        "Percentile anytime expanded {} (budget {PATHOLOGY_BUDGET}), bound {:.4} (max {PATHOLOGY_MAX_BOUND})",
        s.expanded, s.bound
    ))
}

/// Both strategies on one instance per goal kind at the same expansion
/// budget; std and paper add exact A* at its default budget and a 10×
/// anytime budget. Panics when [`pathology_gate`] fails.
fn strategies(ctx: &mut Context) -> Table {
    let (gated, budget, exact) = ("anytime @50k", PATHOLOGY_BUDGET, SearchConfig::default());
    let mut arms = vec![
        ("exact @50k", SearchStrategy::Exact, budget),
        (gated, SearchStrategy::Anytime, budget),
    ];
    if ctx.scale != Scale::Quick {
        arms.insert(0, ("exact (4M budget)", exact.strategy, exact.node_limit));
        arms.push(("anytime @500k", SearchStrategy::Anytime, 10 * budget));
    }
    let headers = [
        "goal",
        "strategy",
        "cost ¢",
        "bound",
        "bound_gap_pct",
        "optimal",
        "expanded",
        "interned",
        "incumb",
    ];
    let mut table = Table::new("", &headers);
    let workload = sim::uniform_workload(&ctx.spec, PATHOLOGY_QUERIES, 42);
    for kind in GoalKind::ALL {
        let goal = default_goal(kind, &ctx.spec);
        for &(arm, strategy, node_limit) in &arms {
            let config = SearchConfig {
                node_limit,
                strategy,
            };
            let solver = Solver::new(&ctx.spec, &goal).with_config(config);
            let solved = solver.solve(&workload).expect("catalog solves succeed");
            let s = solved.stats;
            if kind == GoalKind::Percentile && arm == gated {
                pathology_gate(&s).unwrap_or_else(|e| panic!("strategies gate: {e}"));
            }
            let bound = if s.bound.is_finite() {
                format!("{:.4}", s.bound)
            } else {
                "∞".into()
            };
            let gap = Cell::Pct {
                value: (s.bound - 1.0) * 100.0,
                proven: true,
            };
            let head = [kind.name().into(), arm.into(), Cell::money(solved.cost)];
            let certified = [Cell::Text(bound), gap, Cell::Text(s.optimal.to_string())];
            let counts = [s.expanded, s.interned, s.incumbents].map(Cell::Count);
            table.row(head.into_iter().chain(certified).chain(counts));
        }
    }
    table.note("bound = certified cost/optimal ratio, bound_gap_pct = (bound − 1)·100.");
    table
}

/// `train_warm`'s training config. Larger samples tilt a cold run toward
/// its A* solves, the cost the warm path removes; Percentile goals run the
/// anytime search and train on smaller samples.
fn warm_config(scale: Scale, kind: GoalKind) -> ModelConfig {
    let sample_size = match (scale, kind) {
        (Scale::Quick, _) => 9,
        (Scale::Std, GoalKind::Percentile) => 12,
        (Scale::Std, _) => 16,
        (Scale::Paper, GoalKind::Percentile) => 14,
        (Scale::Paper, _) => 18,
    };
    ModelConfig {
        num_samples: [150, 600, 3000][scale as usize],
        sample_size,
        seed: 0x7EA1,
        ..ModelConfig::fast()
    }
}

/// The warm-retrain contract: an identical-seed retrain from the cold
/// model's solve cache runs no solve and reproduces its tree and rows.
fn warm_contract(cold: &DecisionModel, warm: &DecisionModel) -> Result<(), String> {
    match warm.stats().solves {
        0 if warm.tree() == cold.tree() && warm.stats().num_rows == cold.stats().num_rows => Ok(()),
        0 => Err("the warm retrain diverged from the cold model".into()),
        n => Err(format!("the warm retrain ran {n} A* solves")),
    }
}

/// A cold training per goal kind, then two retrains from its solve cache:
/// the identical seed (gated by [`warm_contract`]) and a reseeded draw,
/// which solves only the signatures the cache lacks.
fn train_warm(ctx: &mut Context) -> Table {
    let headers = [
        "queries",
        "solves",
        "hits",
        "rows",
        "tree nodes",
        "reseed solves",
    ];
    by_goal(ctx, &headers, |ctx, kind| {
        let (spec, config) = (&ctx.spec, warm_config(ctx.scale, kind));
        let generator = |seed| {
            let config = config.clone().with_seed(seed);
            ModelGenerator::new(spec.clone(), default_goal(kind, spec), config)
        };
        let trained = generator(config.seed).train_with_artifacts();
        let (cold, artifacts) = trained.expect("training succeeds");
        let warm_start = artifacts.warm_start();
        let (warm, _) = generator(config.seed)
            .retrain_from(&warm_start)
            .expect("retrains");
        if let Err(e) = warm_contract(&cold, &warm) {
            panic!("train_warm gate, {}: {e}", kind.name());
        }
        let reseeded = generator(config.seed ^ 0xD1F7).retrain_from(&warm_start);
        let s = cold.stats();
        let shape = [s.num_rows, cold.tree().num_nodes()].map(|c| c as u64);
        let reseed_solves = reseeded.expect("retrains").0.stats().solves;
        [config.sample_size as u64, s.solves, s.cache_hits]
            .into_iter()
            .chain(shape)
            .chain([reseed_solves])
            .map(Cell::Count)
            .collect::<Vec<_>>()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_the_paper_and_an_unknown_one_lists_them() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let expected = "9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, ablation, \
            streaming, streaming_rates, streaming_overload, multitenant, strategies, train_warm";
        assert_eq!(ids.join(", "), expected, "unique, in paper order");
        assert_eq!(select(&[]).unwrap().len(), FIGURES.len());
        assert_eq!(select(&["ablation".into()]).unwrap()[0].id, "ablation");

        let err = select(&["9".into(), "fig09".into()]).err().unwrap();
        assert_eq!(
            err,
            format!("unknown figure \"fig09\"; valid ids: {expected}")
        );
    }

    #[test]
    fn a_memoized_default_model_is_a_fresh_training() {
        let mut ctx = Context::new(Scale::Quick, false);
        let memo = ctx.default_model(GoalKind::MaxLatency);
        assert!(Rc::ptr_eq(&memo, &ctx.default_model(GoalKind::MaxLatency)));
        assert_eq!(ctx.trainings(), 1);
        assert!(memo.1.is_some(), "{KEPT}");

        let goal = default_goal(GoalKind::MaxLatency, &ctx.spec);
        let fresh = ModelGenerator::new(ctx.spec.clone(), goal, Scale::Quick.training());
        let fresh = fresh.train().unwrap();
        let mut stats = fresh.stats().clone();
        stats.training_secs = memo.0.stats().training_secs;
        assert_eq!(*memo.0.stats(), stats, "the same counters");
        assert_eq!(memo.0.tree(), fresh.tree());
    }

    #[test]
    fn the_pathology_gate_bounds_expansions_and_the_certified_bound() {
        let spec = catalog::tpch_like(10);
        let goal = default_goal(GoalKind::Percentile, &spec);
        let w = sim::uniform_workload(&spec, 4, 42);
        let solver = Solver::new(&spec, &goal).with_strategy(SearchStrategy::Anytime);
        let ok = solver.solve(&w).unwrap().stats;
        assert_eq!(pathology_gate(&ok), Ok(()));

        let over_budget = SearchStats {
            expanded: PATHOLOGY_BUDGET as u64 + 1,
            ..ok
        };
        let err = pathology_gate(&over_budget).unwrap_err();
        assert!(err.contains("expanded 50001 (budget 50000)"), "{err}");
        let loose = SearchStats { bound: 1.06, ..ok };
        assert!(pathology_gate(&loose).unwrap_err().contains("bound 1.0600"));
    }

    #[test]
    fn the_warm_contract_holds_for_a_warm_retrain_and_not_for_a_cold_one() {
        let spec = catalog::tpch_like(4);
        let config = ModelConfig {
            num_samples: 20,
            sample_size: 5,
            ..ModelConfig::fast()
        };
        let goal = default_goal(GoalKind::MaxLatency, &spec);
        let generator = ModelGenerator::new(spec, goal, config);
        let (cold, artifacts) = generator.train_with_artifacts().unwrap();
        let (warm, _) = generator.retrain_from(&artifacts.warm_start()).unwrap();
        assert_eq!(warm_contract(&cold, &warm), Ok(()));

        // A cold training solved its samples.
        let err = warm_contract(&cold, &cold).unwrap_err();
        assert!(err.contains("A* solves"), "{err}");
    }
}
