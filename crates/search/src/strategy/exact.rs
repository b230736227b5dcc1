//! Exact A* — the paper's search (§4.3), extracted from the historical
//! monolith bit-for-bit.
//!
//! A path from the start vertex (everything unassigned) to any goal vertex
//! (nothing unassigned) spells out a complete schedule, and its weight is
//! exactly `cost(R, S)` — so the shortest path *is* the optimal schedule.
//!
//! The searcher tolerates negative placement edges (average-latency goals
//! can refund penalty when a fast query lowers the mean) by allowing node
//! reopening; because every placement consumes a query and start-ups
//! require a non-empty previous VM, the graph is a finite DAG and the
//! search always terminates. With an admissible heuristic, the first goal
//! vertex *popped* is optimal even when the heuristic is inconsistent.
//!
//! ## Interned hot path
//!
//! Every distinct vertex is interned to a dense `u32` id on first sight, so
//! the per-expansion tables — best-known g, the cached heuristic value, and
//! the explored set — are flat `Vec`s indexed by id, and the vertex itself
//! is that id's key in the interner's flat storage: expanding a node
//! prices, keys, interns, dedups, bounds and prunes each successor without
//! allocating (see [`super::common`], shared with the other strategies).
//! The [`SearchStats::interned`] counter exposes the dedup-table size.

use std::collections::BinaryHeap;

use wisedb_core::Money;

use crate::state::SearchState;

use super::common::{expand, HeapEntry, PruneRule, SearchCx, Tables, G_EPS, TIME_CHECK_MASK};
use super::{ExploredStates, SearchOutcome, SearchStats, Strategy};

/// The exact strategy. Stateless — all tunables live in
/// [`super::SearchConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactAStar;

impl Strategy for ExactAStar {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn search(
        &self,
        cx: &SearchCx<'_>,
        initial: SearchState,
        keep_explored: bool,
    ) -> (SearchOutcome, ExploredStates) {
        let mut stats = SearchStats {
            optimal: true,
            ..SearchStats::default()
        };

        let (mut t, h0) = Tables::init(cx, initial);
        let mut open = BinaryHeap::new();
        open.push(HeapEntry {
            f: h0,
            g: 0.0,
            idx: 0,
        });

        // A quick greedy completion bounds the optimum from above: any
        // vertex whose f exceeds it can never be on an optimal path. Kept
        // whole — it doubles as the budget-exit fallback schedule.
        let greedy = cx.greedy_completion(&t.root, stats);
        let upper_bound = greedy.cost.as_dollars() + G_EPS;

        // Incumbent: best goal vertex generated so far, as a fallback when
        // the expansion budget is hit.
        let mut incumbent: Option<(usize, f64)> = None;
        let deadline = cx.deadline();
        let mut successors = Vec::new();

        while let Some(entry) = open.pop() {
            let node = t.arena[entry.idx];
            let sid = node.sid;
            if entry.g > t.best_g[sid as usize] + G_EPS {
                continue; // stale entry
            }

            if node.remaining == 0 {
                let steps = t.reconstruct(cx, entry.idx);
                stats.expanded += 1;
                stats.interned = t.interner.len() as u64;
                stats.bound = 1.0;
                return (
                    SearchOutcome {
                        steps,
                        cost: Money::from_dollars(entry.g),
                        stats,
                    },
                    t.finish_explored(),
                );
            }

            // The expansion budget: `node_limit` counts vertices actually
            // expanded (popped and given successors) — `generated` and
            // `interned` routinely exceed it. Checked *before* expanding,
            // so a limited search performs exactly `node_limit`
            // expansions, reports `limit_hit`, and falls back to its
            // incumbent with a sound suboptimality bound from the
            // still-open frontier.
            let time_up = deadline
                .map(|d| stats.expanded & TIME_CHECK_MASK == 0 && std::time::Instant::now() >= d)
                .unwrap_or(false);
            if stats.expanded as usize >= cx.config.node_limit || time_up {
                stats.optimal = false;
                stats.limit_hit = true;
                stats.interned = t.interner.len() as u64;
                // `entry` was popped but not expanded: put it back so the
                // frontier lower bound sees it.
                open.push(entry);
                let lb = open_lower_bound(&open, &t).max(h0);
                let mut outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
                outcome.stats.bound = suboptimality(outcome.cost, lb);
                return (outcome, t.finish_explored());
            }

            stats.expanded += 1;
            if keep_explored {
                t.record_explored(sid, entry.g);
            }

            expand(
                cx,
                &mut t,
                &mut stats,
                entry.idx,
                entry.g,
                PruneRule::Above(upper_bound),
                &mut successors,
            );
            for s in &successors {
                if s.is_goal {
                    match incumbent {
                        Some((_, best)) if best <= s.g => {}
                        _ => {
                            incumbent = Some((s.idx, s.g));
                            stats.incumbents += 1;
                        }
                    }
                }
                open.push(HeapEntry {
                    f: s.g + s.h,
                    g: s.g,
                    idx: s.idx,
                });
            }
        }

        // Open list exhausted without popping a goal: only possible if no
        // complete schedule exists, which spec validation rules out — but
        // return the incumbent defensively.
        stats.optimal = false;
        stats.interned = t.interner.len() as u64;
        let outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
        (outcome, t.finish_explored())
    }
}

/// Best complete schedule available when a search stops early: the
/// incumbent goal vertex if one was generated, otherwise (or if cheaper)
/// the greedy completion computed at search start — an incumbent
/// generated early in a limited search can be dreadful. `stats` replaces
/// the stale snapshot embedded in the greedy outcome.
pub(crate) fn fallback_result(
    cx: &SearchCx<'_>,
    t: &Tables,
    incumbent: Option<(usize, f64)>,
    greedy: &SearchOutcome,
    stats: SearchStats,
) -> SearchOutcome {
    if let Some((idx, g)) = incumbent {
        if g <= greedy.cost.as_dollars() {
            return SearchOutcome {
                steps: t.reconstruct(cx, idx),
                cost: Money::from_dollars(g),
                stats,
            };
        }
    }
    SearchOutcome {
        steps: greedy.steps.clone(),
        cost: greedy.cost,
        stats,
    }
}

/// A sound lower bound on the optimal cost from the still-open frontier:
/// with an admissible heuristic, some open vertex on every optimal path
/// carries `g + h ≤ C*`, so the minimum over open non-stale entries cannot
/// exceed the optimum. (Stale entries — a better path to their vertex is
/// already known — are skipped; that only tightens the bound.)
pub(crate) fn open_lower_bound(open: &BinaryHeap<HeapEntry>, t: &Tables) -> f64 {
    let mut lb = f64::INFINITY;
    for entry in open.iter() {
        let sid = t.arena[entry.idx].sid as usize;
        if entry.g > t.best_g[sid] + G_EPS {
            continue;
        }
        let f = entry.g + t.h_cache[sid];
        if f < lb {
            lb = f;
        }
    }
    lb
}

/// `cost / lb` clamped to ≥ 1, or infinity when no positive finite lower
/// bound is available.
pub(crate) fn suboptimality(cost: Money, lb: f64) -> f64 {
    let cost = cost.as_dollars();
    if lb.is_finite() && lb > 0.0 {
        (cost / lb).max(1.0)
    } else if cost <= 0.0 {
        1.0
    } else {
        f64::INFINITY
    }
}
