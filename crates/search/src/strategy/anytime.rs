//! Anytime weighted A* (AWA*, after Hansen & Zhou): bounded-suboptimality
//! search under an expansion budget.
//!
//! Two phases share one interner, arena, and g/h table
//! (`common::Tables`):
//!
//! 1. **Incumbent seeding** — a narrow beam dive (width [`SEED_WIDTH`])
//!    plants a strong complete schedule. Pure best-first order never
//!    reaches goal depth on digest-heavy graphs (the percentile pathology: millions of
//!    equal-looking prefixes, none complete), so the incumbent the main
//!    loop refines must come from forced depth progress. Every vertex the
//!    dive generates also enters the main open list — seeding wastes
//!    nothing, and a closed check keeps phase 2 from re-expanding (and
//!    double-billing the budget for) vertices the dive already expanded.
//! 2. **Weighted A\*** — expansion ordered by `f' = g + w·h`, starting at
//!    `w = 1 + ε =` [`WEIGHT`]. The search does not stop at the first goal:
//!    every improvement tightens the incumbent, prunes the open list
//!    against the *uninflated* `g + h` (so no potentially-better path is
//!    ever lost), and multiplies ε by [`DECAY`] — later exploration
//!    converges toward the exact order.
//!
//! Two guarantees fall out:
//!
//! * if the open list drains, the incumbent is **provably optimal**
//!   (everything else was pruned against it using an admissible bound);
//! * if the budget expires first, `min_{open}(g + h)` is a certified lower
//!   bound on the optimum, so the incumbent ships with a proven
//!   multiplicative [`bound`](super::SearchStats::bound) — the paper-scale
//!   property training needs, since the learned model only requires
//!   near-optimal decision paths.

use std::collections::BinaryHeap;

use wisedb_core::Money;

use crate::state::SearchState;

use super::common::{ensure_slot, expand, HeapEntry, PruneRule, SearchCx, Tables, G_EPS};
use super::exact::{open_lower_bound, suboptimality};
use super::{ExploredStates, SearchOutcome, SearchStats};

/// Beam width of the incumbent-seeding dive.
const SEED_WIDTH: usize = 64;
/// Initial heuristic inflation `w = 1 + ε`.
const WEIGHT: f64 = 1.5;
/// Multiplier applied to ε at every incumbent improvement (ε halves).
const DECAY: f64 = 0.5;

/// Runs anytime weighted A* from `initial` under `cx.config.node_limit`
/// expansions. When `keep_explored` is set, the returned
/// [`ExploredStates`] carries the settled g-values for adaptive reuse.
pub(crate) fn search(
    cx: &SearchCx<'_>,
    initial: SearchState,
    keep_explored: bool,
) -> (SearchOutcome, ExploredStates) {
    let mut w = WEIGHT;
    let mut stats = SearchStats::default();

    let (mut t, h0) = Tables::init(cx, initial);
    let mut open = BinaryHeap::new();
    open.push(HeapEntry {
        f: w * h0,
        g: 0.0,
        idx: 0,
    });
    // g at which each state id was expanded (NaN = never): phase 2
    // skips anything already expanded at an equal-or-better g, so the
    // seeding dive's work is never paid for twice.
    let mut closed_g: Vec<f64> = Vec::new();

    // The greedy completion seeds the *first* incumbent: the search
    // starts with a complete schedule in hand and only ever improves.
    let greedy = cx.greedy_completion(&t.root, stats);
    let mut incumbent_cost = greedy.cost.as_dollars();
    // Arena index of the best goal vertex found (None = greedy).
    let mut incumbent_idx: Option<usize> = None;
    let mut successors = Vec::new();

    // Adopts a strictly better complete schedule and decays the greed
    // (later exploration is closer to the exact order).
    macro_rules! offer_incumbent {
        ($g:expr, $idx:expr) => {
            if $g < incumbent_cost - G_EPS {
                incumbent_cost = $g;
                incumbent_idx = Some($idx);
                stats.incumbents += 1;
                w = 1.0 + (w - 1.0) * DECAY;
            }
        };
    }

    // -- Phase 1: beam-dive seeding. ---------------------------------
    // Generated vertices land in the main open list as well, so the
    // dive is a prefix of the real search, not a throwaway.
    let mut frontier: Vec<(usize, f64)> = vec![(0, 0.0)];
    while !frontier.is_empty() && (stats.expanded as usize) < cx.config.node_limit {
        let mut candidates: Vec<(f64, f64, f64, usize)> = Vec::new(); // (f, h, g, idx)
        for &(idx, g) in &frontier {
            let sid = t.arena[idx].sid;
            if g > t.best_g[sid as usize] + G_EPS {
                continue;
            }
            if stats.expanded as usize >= cx.config.node_limit {
                break;
            }
            stats.expanded += 1;
            *ensure_slot(&mut closed_g, sid, f64::NAN) = g;
            if keep_explored {
                t.record_explored(sid, g);
            }
            expand(
                cx,
                &mut t,
                &mut stats,
                idx,
                g,
                PruneRule::MustBeat(incumbent_cost),
                &mut successors,
            );
            for s in &successors {
                if s.is_goal {
                    offer_incumbent!(s.g, s.idx);
                } else {
                    open.push(HeapEntry {
                        f: s.g + w * s.h,
                        g: s.g,
                        idx: s.idx,
                    });
                    candidates.push((s.g + s.h, s.h, s.g, s.idx));
                }
            }
        }
        candidates.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.total_cmp(&b.1))
                .then_with(|| a.3.cmp(&b.3))
        });
        if candidates.len() > SEED_WIDTH {
            // Not counted as `pruned`: the survivors only steer the
            // dive — every candidate stays alive in the open list.
            candidates.truncate(SEED_WIDTH);
        }
        frontier = candidates
            .into_iter()
            .map(|(_, _, g, idx)| (idx, g))
            .collect();
    }

    // -- Phase 2: weighted A* main loop. ------------------------------
    while let Some(entry) = open.pop() {
        let sid = t.arena[entry.idx].sid;
        if entry.g > t.best_g[sid as usize] + G_EPS {
            continue; // stale entry
        }
        // Already expanded at an equal-or-better g (by the seeding
        // dive, or by an earlier duplicate): nothing new to generate.
        if let Some(&cg) = closed_g.get(sid as usize) {
            if !cg.is_nan() && entry.g >= cg - G_EPS {
                continue;
            }
        }
        // Prune against the incumbent with the *uninflated* f: no path
        // through this vertex can strictly improve on what we hold.
        if entry.g + t.h_cache[sid as usize] >= incumbent_cost - G_EPS {
            continue;
        }

        if stats.expanded as usize >= cx.config.node_limit {
            stats.limit_hit = true;
            open.push(entry);
            break;
        }

        stats.expanded += 1;
        *ensure_slot(&mut closed_g, sid, f64::NAN) = entry.g;
        if keep_explored {
            t.record_explored(sid, entry.g);
        }

        expand(
            cx,
            &mut t,
            &mut stats,
            entry.idx,
            entry.g,
            PruneRule::MustBeat(incumbent_cost),
            &mut successors,
        );
        for s in &successors {
            if s.is_goal {
                offer_incumbent!(s.g, s.idx);
            } else {
                open.push(HeapEntry {
                    f: s.g + w * s.h,
                    g: s.g,
                    idx: s.idx,
                });
            }
        }
    }

    stats.interned = t.interner.len() as u64;
    if stats.limit_hit {
        // Budget expired: certify the incumbent against the frontier.
        // Optimality is claimed only on actual proof — the incumbent
        // meeting the certified lower bound outright — because an
        // "optimal" result may seed the adaptive heuristic memo, where
        // any tolerance would be inadmissible.
        let lb = open_lower_bound(&open, &t).max(h0);
        stats.bound = suboptimality(Money::from_dollars(incumbent_cost), lb);
        stats.optimal = incumbent_cost <= lb;
    } else {
        // Open list drained: everything unexplored was pruned against
        // the incumbent with an admissible bound, so it is optimal.
        stats.optimal = true;
        stats.bound = 1.0;
    }

    let outcome = match incumbent_idx {
        Some(idx) => SearchOutcome {
            steps: t.reconstruct(cx, idx),
            cost: Money::from_dollars(incumbent_cost),
            stats,
        },
        None => SearchOutcome {
            steps: greedy.steps,
            cost: greedy.cost,
            stats,
        },
    };
    (outcome, t.finish_explored())
}
