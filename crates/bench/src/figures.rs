//! The paper-figure registry: one [`Figure`] per table of arXiv
//! 1601.08221 §7 (Figures 9–22) plus the §4.4 feature ablation, run by the
//! `fig` binary over one [`Context`]. Cost-valued figures go through one
//! gap helper ([`Context::gap`]); models come from the context's memo, one
//! training per distinct (spec, goal, config). Figs 14–17 and 19 report
//! work counters: only `benchmark/` times code.

use std::rc::Rc;

use wisedb::advisor::{ArrivingQuery, OnlineReport, Planner, StepSource, TrainingArtifacts};
use wisedb::prelude::*;
use wisedb::sim::{self, catalog, generator, stats, Arrivals, SimOptions};
use wisedb_learn::{Dataset, DecisionTree, FeatureKind, TreeParams};
use wisedb_search::{Decision, SearchState};

use crate::{apply_search_overrides, oracle_config, pct_above, Cell, Scale, Table};

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
    /// A context at `scale`. Without `oracle`, [`gap`](Self::gap) skips the
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
        let workload = generator::uniform_workload(model.spec(), size, seed);
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
            let w = generator::uniform_workload(spec, 5000, seed);
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
        let w = generator::uniform_workload(&ctx.spec, size, 17_000);
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

/// Replays `stream` online over `m`, a model that kept its artifacts.
fn replay(m: &Trained, config: OnlineConfig, stream: &[ArrivingQuery]) -> OnlineReport {
    let mut scheduler = OnlineScheduler::with_model(m.0.clone(), m.1.clone().expect(KEPT), config);
    scheduler.run(stream).expect("replay succeeds")
}

fn fig18(ctx: &mut Context) -> Table {
    let mut base = OnlineConfig {
        training: ctx.scale.training(),
        ..OnlineConfig::default()
    };
    apply_search_overrides(&mut base.oracle_search);
    let headers = ["0", "0.25", "0.5", "0.75", "1.0"];
    let delays = [0.0, 0.25, 0.5, 0.75, 1.0];
    grid(ctx, &headers, &delays, |ctx, kind, _, delay| {
        let m = ctx.default_model(kind);
        let (spec, goal) = (m.0.spec(), m.0.goal());
        let w = generator::uniform_workload(spec, 30, 18_000 + (delay * 100.0) as u64);
        let stream = stream(&w, (0..).map(|i| Millis::from_secs_f64(delay * i as f64)));
        let cost = |planner| {
            let mut config = base.clone();
            config.planner = planner;
            let report = replay(&m, config, &stream);
            report.total_cost(spec, goal).expect("cost computes")
        };
        let value = pct_above(cost(Planner::Model), cost(Planner::Optimal));
        Cell::Pct {
            value,
            proven: true,
        }
    })
}

fn fig19(ctx: &mut Context) -> Table {
    // Retraining inside the online loop uses a reduced budget, as any
    // deployment would; the base model shares it.
    let mut training = ctx.scale.training();
    training.num_samples = (training.num_samples / 4).max(50);
    apply_search_overrides(&mut training.search);
    let base = OnlineConfig {
        training,
        ..OnlineConfig::default()
    };
    let w = generator::uniform_workload(&ctx.spec, 30, 19_001);
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
            let r = replay(&m, config, &stream);
            let counts = [r.retrains, r.cache_hits, r.shifts].map(|c| Cell::Count(c as u64));
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
            let w = generator::skewed_workload(spec, 30, skew, seed);
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
        let workload = |rep| generator::skewed_workload(&ctx.spec, 30, skew, 21_000 + rep);
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

fn fig22(ctx: &mut Context) -> Table {
    let mut missed = [0.0f64; 5];
    let headers = ["5%", "10%", "20%", "30%", "40%"];
    let sigmas = [0.05, 0.10, 0.20, 0.30, 0.40];
    let mut table = grid(ctx, &headers, &sigmas, |ctx, kind, i, sigma| {
        let m = ctx.default_model(kind);
        let (spec, goal) = (m.0.spec(), m.0.goal());
        // Plan on the perceived templates, execute with the true
        // latencies; the oracle knows the true templates.
        let run = |seed| {
            let w = generator::uniform_workload(spec, 30, seed);
            let perceived = sim::perceive_workload(spec, &w, sigma, seed);
            missed[i] += perceived.misassignment_rate();
            let schedule = m.0.schedule_batch(&perceived.perceived).expect("schedules");
            let true_latencies = Some(perceived.true_latencies);
            let options = SimOptions {
                true_latencies,
                ..SimOptions::default()
            };
            let trace = sim::execute(spec, &schedule, &options).expect("execution succeeds");
            (w, trace.total_cost(goal))
        };
        pct(ctx.gap(spec, goal, 22_000 + 100 * i as u64, run))
    });
    let missed = missed.map(|m| m / (ctx.scale.repeats() * GoalKind::ALL.len()) as f64 * 100.0);
    table.note(format!("Mean misassignment per σ (%): {missed:.0?}"));
    table
}

/// Retrains the tree with each §4.4 feature family zeroed out of the same
/// training set. A tree splits only between distinct values, so it never
/// reads a zeroed column and prediction needs no mask. An invalid label
/// falls back to the cheapest valid placement, else a new VM of type 0:
/// the ablation's own guard, not the advisor's.
fn ablation(ctx: &mut Context) -> Table {
    let spec = &ctx.spec;
    let goal = default_goal(GoalKind::MaxLatency, spec);
    let samples = ModelGenerator::new(spec.clone(), goal.clone(), ctx.scale.training());
    let solve = |w: &Workload| Solver::new(spec, &goal).solve(w).expect("training solves");
    let paths: Vec<_> = samples.sample_workloads().iter().map(solve).collect();
    let base = Dataset::from_paths(spec, &goal, &paths);
    let guarded = |tree: &DecisionTree, w: &Workload| {
        let counts = w.template_counts(spec.num_templates());
        let mut state = SearchState::for_counts(&counts, &goal).expect("batch fits a vertex");
        let mut total = Money::ZERO;
        while !state.is_goal() {
            let label = tree.predict(&base.schema.extract(spec, &goal, &state));
            let mut decision = Decision::from_label(label, spec.num_templates());
            if !state.is_valid(spec, decision) {
                let place = |t| Some((t, state.edge_weight(spec, &goal, Decision::Place(t))?));
                let valid = spec.template_ids().filter_map(place);
                let cheapest = valid.min_by(|a, b| a.1.total_cmp(&b.1));
                let fallback = Decision::CreateVm(VmTypeId(0));
                decision = cheapest.map_or(fallback, |c| Decision::Place(c.0));
            }
            let (next, weight) = state.apply(spec, &goal, decision).expect("applies");
            total += weight;
            state = next;
        }
        total
    };
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
            let w = generator::uniform_workload(spec, 30, seed);
            let cost = guarded(&tree, &w);
            (w, cost)
        };
        let pct = pct(ctx.gap(spec, &goal, 31_000, run));
        let shape = [tree.depth(), tree.num_leaves()].map(|c| Cell::Count(c as u64));
        table.row([Cell::from(name), pct].into_iter().chain(shape));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_cover_the_paper_and_an_unknown_one_lists_them() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        let expected = "9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, ablation";
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
}
