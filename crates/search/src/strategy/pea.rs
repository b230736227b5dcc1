//! Partial-expansion A* (Yoshizumi et al.) — exact search with a bounded
//! appetite for successors.
//!
//! The scheduling graph's branching factor is `templates + vm_types` at
//! every vertex, and on percentile goals most of those successors are
//! hopeless: their `f = g + h` sits far above the vertex's own `f`, yet
//! plain A* interns, prices, and enqueues all of them, which is where the
//! 13 M-state open lists of the 18-query pathology come from. PEA* expands
//! a vertex *partially*: it prices every successor once, but only the ones
//! whose `f` does not exceed the vertex's stored `F` are interned and
//! enqueued — the rest stay in a per-vertex cache and the vertex itself is
//! re-enqueued with `F` raised to the cheapest deferred `f`. Re-popping the
//! vertex later ([`super::SearchStats::reexpansions`]) promotes the next
//! tranche at its cached `g` and `h`; only the promoted successor's key is
//! formed again (from the parent, through the shared pricing routine), so
//! a deferred successor costs three words, not a vertex.
//!
//! Optimality is inherited from exact A*: stored `F` values never exceed
//! the true cost of any completion through their vertex (the heuristic is
//! admissible), so the first goal vertex *popped* is optimal. Budget exits
//! report the same certified suboptimality bound as the exact strategy —
//! the minimum stored `F` over non-stale open entries is a sound lower
//! bound, and for re-enqueued vertices it is *tighter* than `g + h`.

use std::collections::{BinaryHeap, HashMap};

use wisedb_core::Money;

use crate::decision::Decision;
use crate::state::SearchState;

use super::common::{ensure_slot, HeapEntry, SearchCx, Tables, G_EPS, TIME_CHECK_MASK};
use super::exact::{fallback_result, suboptimality};
use super::{ExploredStates, SearchOutcome, SearchStats, Strategy};

/// One priced-but-not-yet-promoted successor.
struct Deferred {
    decision: Decision,
    g: f64,
    h: f64,
}

/// The partial-expansion strategy. Stateless — all tunables live in
/// [`super::SearchConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PartialExpansionAStar;

impl Strategy for PartialExpansionAStar {
    fn name(&self) -> &'static str {
        "pea"
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

        // Same upper bound and fallback as the exact strategy: a greedy
        // completion caps useful f, and doubles as the budget-exit plan.
        let greedy = cx.greedy_completion(&t.root, stats);
        let upper_bound = greedy.cost.as_dollars() + G_EPS;

        // Deferred successors per arena index, sorted descending by f so
        // promotion pops the cheapest tranche off the back. A vertex
        // reopened through a better path gets a fresh arena node (and a
        // fresh cache); stale entries for the old one never pass the
        // best-g check below.
        let mut cache: HashMap<usize, Vec<Deferred>> = HashMap::new();

        let mut incumbent: Option<(usize, f64)> = None;
        let deadline = cx.deadline();

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

            // Expansion budget, checked before expanding — re-pops count,
            // so `node_limit` bounds total pops exactly as for exact A*.
            let time_up = deadline
                .map(|d| stats.expanded & TIME_CHECK_MASK == 0 && std::time::Instant::now() >= d)
                .unwrap_or(false);
            if stats.expanded as usize >= cx.config().node_limit || time_up {
                stats.optimal = false;
                stats.limit_hit = true;
                stats.interned = t.interner.len() as u64;
                open.push(entry);
                let lb = pea_lower_bound(&open, &t).max(h0);
                let mut outcome = fallback_result(cx, &t, incumbent, &greedy, stats);
                outcome.stats.bound = suboptimality(outcome.cost, lb);
                return (outcome, t.finish_explored());
            }

            stats.expanded += 1;
            if keep_explored {
                t.record_explored(sid, entry.g);
            }

            // First visit prices and bounds every successor once; re-visits
            // promote from the cache at those values.
            let parent = t.parent(cx, entry.idx);
            let mut items = match cache.remove(&entry.idx) {
                Some(items) => {
                    stats.reexpansions += 1;
                    items
                }
                None => {
                    let mut items = Vec::new();
                    for decision in cx.decisions() {
                        let Some(weight) = t.price(cx, &parent, decision) else {
                            continue;
                        };
                        stats.generated += 1;
                        let g2 = entry.g + weight.as_dollars();
                        let h2 = cx.h(t.scratch.child.as_ref(), &mut t.scratch.bounds);
                        if g2 + h2 > upper_bound {
                            continue; // can never beat the greedy schedule
                        }
                        items.push(Deferred {
                            decision,
                            g: g2,
                            h: h2,
                        });
                    }
                    items.sort_by(|a, b| (b.g + b.h).total_cmp(&(a.g + a.h)));
                    items
                }
            };

            // Promote the tranche with f ≤ stored F (+ float slack).
            while let Some(last) = items.last() {
                if last.g + last.h > entry.f + G_EPS {
                    break;
                }
                let s = items.pop().unwrap();
                t.price(cx, &parent, s.decision)
                    .expect("a deferred successor was priced from this vertex before");
                let sid2 = t.interner.intern(t.scratch.child.as_ref());
                let known_g = ensure_slot(&mut t.best_g, sid2, f64::INFINITY);
                if known_g.is_finite() {
                    if s.g >= *known_g - G_EPS {
                        continue; // a better path to this vertex is known
                    }
                    stats.reopened += 1;
                }
                *known_g = s.g;
                *ensure_slot(&mut t.h_cache, sid2, f64::NAN) = s.h;
                let idx2 = t.push_child(&parent, s.decision, sid2);
                if t.arena[idx2].remaining == 0 {
                    match incumbent {
                        Some((_, best)) if best <= s.g => {}
                        _ => {
                            incumbent = Some((idx2, s.g));
                            stats.incumbents += 1;
                        }
                    }
                }
                open.push(HeapEntry {
                    f: s.g + s.h,
                    g: s.g,
                    idx: idx2,
                });
            }

            // Anything left is deferred: raise the vertex's stored F to the
            // cheapest deferred f and re-enqueue it.
            if let Some(last) = items.last() {
                let raised_f = last.g + last.h;
                stats.deferred += items.len() as u64;
                cache.insert(entry.idx, items);
                open.push(HeapEntry {
                    f: raised_f,
                    g: entry.g,
                    idx: entry.idx,
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

/// The frontier lower bound for partial expansion: the minimum stored `F`
/// over non-stale open entries. Promoted vertices carry `F = g + h`
/// (exactly the exact strategy's bound); re-enqueued vertices carry the
/// cheapest deferred successor's `f`, which is *at least* `g + h` — every
/// completion through such a vertex continues through either an already
/// promoted successor (separately open) or a deferred one costing ≥ `F`.
fn pea_lower_bound(open: &BinaryHeap<HeapEntry>, t: &Tables) -> f64 {
    let mut lb = f64::INFINITY;
    for entry in open.iter() {
        let sid = t.arena[entry.idx].sid as usize;
        if entry.g > t.best_g[sid] + G_EPS {
            continue;
        }
        if entry.f < lb {
            lb = entry.f;
        }
    }
    lb
}
