//! The strategy shoot-out: exact vs PEA* vs beam vs anytime on the
//! 18-query / 10-template scenario, one table per goal kind. The
//! percentile table is the pathology that drove the solver-strategy
//! layer (the exact search hits its 4 M-expansion budget after ~a
//! minute and 13 M interned states; the inexact strategies solve the
//! same instance in well under a second with a certified gap).
//!
//! ```text
//! cargo run --release -p wisedb-bench --bin strategies            # full tables (incl. exact)
//! cargo run --release -p wisedb-bench --bin strategies -- --smoke # CI gate, no exact arm
//! ```
//!
//! `--smoke` runs only the bounded strategies under a tight expansion
//! budget and exits non-zero unless the percentile anytime solve stays
//! within its budget and certifies a suboptimality bound ≤ 5% — the
//! regression gate for the ROADMAP's "percentile A* pathology" item.

use wisedb::prelude::*;
use wisedb_bench::Table;
use wisedb_search::SearchStats;

/// Queries in the shoot-out scenario (§7.1 scale: the paper's training
/// sample size m = 18).
const PATHOLOGY_QUERIES: usize = 18;
/// Expansion budget for the bounded arms — about 1% of what the exact
/// search burns before giving up.
const SMOKE_BUDGET: usize = 50_000;
/// The smoke gate: certified bound must stay within 5% of optimal
/// (tightened from 10% by the queue-wait-aware percentile bound).
const SMOKE_MAX_BOUND: f64 = 1.05;

struct Arm {
    label: &'static str,
    config: SearchConfig,
}

fn arms(smoke: bool) -> Vec<Arm> {
    let budget = |strategy: SearchStrategy, node_limit: usize| SearchConfig {
        node_limit,
        strategy,
        ..SearchConfig::default()
    };
    let mut arms = Vec::new();
    if !smoke {
        arms.push(Arm {
            label: "exact (4M budget)",
            config: SearchConfig::default(),
        });
    }
    arms.push(Arm {
        label: "pea @50k",
        config: budget(SearchStrategy::Pea, SMOKE_BUDGET),
    });
    arms.push(Arm {
        label: "beam:64",
        config: budget(SearchStrategy::Beam { width: 64 }, SMOKE_BUDGET),
    });
    arms.push(Arm {
        label: "beam:512",
        config: budget(SearchStrategy::Beam { width: 512 }, SMOKE_BUDGET),
    });
    arms.push(Arm {
        label: "anytime @50k",
        config: budget(SearchStrategy::anytime(), SMOKE_BUDGET),
    });
    if !smoke {
        arms.push(Arm {
            label: "anytime @500k",
            config: budget(SearchStrategy::anytime(), 10 * SMOKE_BUDGET),
        });
    }
    arms
}

/// Certified gap above optimal, in percent (`bound` is cost/optimal).
fn bound_gap_pct(stats: &SearchStats) -> String {
    if stats.bound.is_finite() {
        format!("{:.2}", (stats.bound - 1.0) * 100.0)
    } else {
        "∞".to_string()
    }
}

fn main() {
    // `--trace <path>`: record every arm's solve with full spans (one
    // `search.solve` span per arm, strategy and counters attached) and
    // write a Chrome trace-event JSON.
    let tracing = wisedb_bench::trace_collector_from_args();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let spec = wisedb::sim::catalog::tpch_like(10);

    let mut percentile_anytime: Option<SearchStats> = None;
    for kind in GoalKind::ALL {
        let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
        let workload = wisedb::sim::generator::uniform_workload(&spec, PATHOLOGY_QUERIES, 42);

        let mut table = Table::new(
            format!(
                "Search strategies, {} goal, {PATHOLOGY_QUERIES}q / 10 templates",
                kind.name()
            ),
            &[
                "strategy",
                "cost ¢",
                "bound",
                "bound_gap_pct",
                "optimal",
                "expanded",
                "interned",
                "incumb",
                "pruned",
                "time s",
            ],
        );
        for arm in arms(smoke) {
            eprintln!("strategies: {} / {}...", kind.name(), arm.label);
            let t = std::time::Instant::now();
            let result = Solver::new(&spec, &goal)
                .with_config(arm.config)
                .solve(&workload)
                .expect("catalog solves succeed");
            let secs = t.elapsed().as_secs_f64();
            let s = result.stats;
            table.row(&[
                arm.label.to_string(),
                format!("{:.2}", result.cost.as_cents()),
                if s.bound.is_finite() {
                    format!("{:.4}", s.bound)
                } else {
                    "∞".to_string()
                },
                bound_gap_pct(&s),
                s.optimal.to_string(),
                s.expanded.to_string(),
                s.interned.to_string(),
                s.incumbents.to_string(),
                s.pruned.to_string(),
                format!("{secs:.2}"),
            ]);
            if kind == GoalKind::Percentile && arm.label.starts_with("anytime @50k") {
                percentile_anytime = Some(s);
            }
        }
        table.print();
    }
    println!(
        "bound = certified cost/optimal ratio (bound_gap_pct = (bound−1)·100); \
         exact's 4M-budget run reports its own bound"
    );

    if let Some((collector, path)) = tracing {
        wisedb_bench::finish_trace(collector, &path);
    }

    let s = percentile_anytime.expect("percentile anytime arm always runs");
    let within_budget = s.expanded <= SMOKE_BUDGET as u64;
    let bounded = s.bound <= SMOKE_MAX_BOUND;
    if smoke {
        if !within_budget || !bounded {
            eprintln!(
                "strategies: SMOKE FAILURE — anytime expanded {} (budget {SMOKE_BUDGET}), \
                 bound {:.4} (max {SMOKE_MAX_BOUND})",
                s.expanded, s.bound
            );
            std::process::exit(1);
        }
        println!(
            "smoke ok: percentile anytime stayed within {SMOKE_BUDGET} expansions \
             with bound {:.4}",
            s.bound
        );
    }
}
