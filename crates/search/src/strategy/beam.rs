//! Level-synchronous beam search: linear-time schedule construction with a
//! bounded frontier.
//!
//! Each level expands every surviving vertex, then keeps only the `width`
//! best successors by `f = g + h` — ties broken by the *admissible
//! heuristic* (smaller `h` first, i.e. the vertex provably closer to a
//! goal), then by generation order for determinism. Goal vertices never
//! compete for beam slots: they immediately challenge the incumbent and
//! the search continues until the frontier empties or the budget expires.
//!
//! Beam search is incomplete by design — truncation can discard the
//! optimal path — so it never claims optimality unless it can prove it
//! trivially: a run that finished without ever truncating (and without
//! hitting the budget) explored everything exact search would have, and
//! reports `optimal = true`. Otherwise the reported
//! [`bound`](super::SearchStats::bound) falls back to the root heuristic
//! (`cost / h(start)`), which is loose; use [`super::AnytimeWeightedAStar`]
//! when a tight certified gap matters.

use crate::state::SearchState;

use super::common::{expand, PruneRule, SearchCx, Tables, G_EPS, TIME_CHECK_MASK};
use super::exact::{fallback_result, suboptimality};
use super::{ExploredStates, SearchOutcome, SearchStats, Strategy};

/// Beam search with a fixed frontier width.
#[derive(Debug, Clone, Copy)]
pub struct BeamSearch {
    /// Vertices kept per level (≥ 1).
    pub width: usize,
}

/// One surviving frontier candidate.
struct Candidate {
    f: f64,
    h: f64,
    g: f64,
    idx: usize,
}

impl Strategy for BeamSearch {
    fn name(&self) -> &'static str {
        "beam"
    }

    fn search(
        &self,
        cx: &SearchCx<'_>,
        initial: SearchState,
        keep_explored: bool,
    ) -> (SearchOutcome, ExploredStates) {
        let width = self.width.max(1);
        let mut stats = SearchStats::default();
        let (mut t, h0) = Tables::init(cx, initial);

        // Greedy completion: upper bound and guaranteed fallback.
        let greedy = cx.greedy_completion(&t.root, stats);
        let upper_bound = greedy.cost.as_dollars() + G_EPS;
        let mut incumbent: Option<(usize, f64)> = None;
        let deadline = cx.deadline();
        let mut successors = Vec::new();

        let mut frontier: Vec<(usize, f64)> = vec![(0, 0.0)];
        'levels: while !frontier.is_empty() {
            let mut candidates: Vec<Candidate> = Vec::new();
            for &(idx, g) in &frontier {
                let sid = t.arena[idx].sid;
                if g > t.best_g[sid as usize] + G_EPS {
                    continue; // a better path into this vertex was found
                }
                let time_up = deadline
                    .map(|d| {
                        stats.expanded & TIME_CHECK_MASK == 0 && std::time::Instant::now() >= d
                    })
                    .unwrap_or(false);
                if stats.expanded as usize >= cx.config.node_limit || time_up {
                    stats.limit_hit = true;
                    break 'levels;
                }
                stats.expanded += 1;
                if keep_explored {
                    t.record_explored(sid, g);
                }
                // No path through a successor can beat the best known
                // complete schedule (greedy or incumbent).
                let cutoff = incumbent
                    .map(|(_, best)| best + G_EPS)
                    .unwrap_or(upper_bound);
                expand(
                    cx,
                    &mut t,
                    &mut stats,
                    idx,
                    g,
                    PruneRule::Above(cutoff),
                    &mut successors,
                );
                for s in &successors {
                    if s.is_goal {
                        // Goals challenge the incumbent directly instead
                        // of competing for beam slots.
                        match incumbent {
                            Some((_, best)) if best <= s.g => {}
                            _ => {
                                incumbent = Some((s.idx, s.g));
                                stats.incumbents += 1;
                            }
                        }
                    } else {
                        candidates.push(Candidate {
                            f: s.g + s.h,
                            h: s.h,
                            g: s.g,
                            idx: s.idx,
                        });
                    }
                }
            }
            // Keep the `width` best candidates: order by f, break ties by
            // the admissible heuristic (smaller h = provably closer to a
            // goal), then by generation order for determinism.
            candidates.sort_by(|a, b| {
                a.f.total_cmp(&b.f)
                    .then_with(|| a.h.total_cmp(&b.h))
                    .then_with(|| a.idx.cmp(&b.idx))
            });
            if candidates.len() > width {
                stats.pruned += (candidates.len() - width) as u64;
                candidates.truncate(width);
            }
            frontier = candidates.into_iter().map(|c| (c.idx, c.g)).collect();
        }

        stats.interned = t.interner.len() as u64;
        // Exhaustive runs (never truncated, never budget-bound) explored
        // every vertex exact search could reach under the same pruning, so
        // the best goal found is provably optimal.
        stats.optimal = stats.pruned == 0 && !stats.limit_hit && incumbent.is_some();
        let mut outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
        outcome.stats.bound = if outcome.stats.optimal {
            1.0
        } else {
            // Only the root heuristic survives truncation as a certified
            // lower bound.
            suboptimality(outcome.cost, h0)
        };
        (outcome, t.finish_explored())
    }
}
