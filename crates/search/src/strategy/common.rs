//! Machinery shared by every search strategy.
//!
//! The strategies differ only in *which* vertex they expand next and
//! *when* they stop; everything else — successor pricing, the state-id
//! interner, flat id-indexed tables, heap ordering, greedy completion,
//! path reconstruction, and budget accounting — lives here so exact,
//! partial-expansion, beam, and anytime searches intern, price, and report
//! identically.
//!
//! ## The expansion kernel
//!
//! A search holds no [`SearchState`] per generated vertex. A vertex *is*
//! its interned key (remaining counts, open-VM summary, penalty digest —
//! everything future cost depends on, stored flat in the interner's
//! [`KeyTable`]) plus a 24-byte arena [`Node`] (parent link, the decision
//! that reached it, and the two facts the key omits). Each candidate
//! out-edge of the vertex being expanded goes through, in order:
//!
//! 1. **price** — [`Tables::price`] computes the edge weight (Eq. 2) from
//!    the parent's key and forms the successor's key in a scratch buffer;
//! 2. **key** — the scratch key is hashed, once;
//! 3. **intern** — the [`KeyTable`] maps it to a dense id, copying it into
//!    flat storage only if it is new;
//! 4. **dedup** — a path no cheaper than the best known to that id stops
//!    here;
//! 5. **bound and prune** — `h` is computed from the key on first sight
//!    (probing the adaptive memo with the hash from step 2), cached per
//!    id, and `g + h` is tested against the strategy's cutoff;
//! 6. **materialise** — survivors get an arena node.
//!
//! Nothing on that path allocates: the scratch key and the heuristic's
//! work buffers ([`Scratch`]) belong to the search and are reused for every
//! successor, and the tables only ever grow by amortised appends. Full
//! states are rebuilt by replaying decisions from the root, only along the
//! one path a search returns ([`Tables::reconstruct`]).

use std::cmp::Ordering;
use std::time::Instant;

use wisedb_core::{
    Millis, Money, PenaltyDigest, PerformanceGoal, TemplateId, VmTypeId, WorkloadSpec,
};

use crate::canonical::CanonicalOrder;
use crate::decision::Decision;
use crate::heuristic::{BoundScratch, HeuristicTable};
use crate::key::{DigestBuf, KeyArena, KeyRef, KeyTable, OpenVm, StateKey};
use crate::state::SearchState;

use super::{
    DecisionStep, ExploredStates, HeuristicMemo, SearchConfig, SearchOutcome, SearchStats,
};

/// Float slack when comparing path costs, in dollars.
pub(crate) const G_EPS: f64 = 1e-12;

/// How many expansions pass between wall-clock checks when a time budget
/// is configured — coarse enough to keep `Instant::now` off the hot path.
pub(crate) const TIME_CHECK_MASK: u64 = 0x0FFF;

/// The shared pricing/enumeration context one [`super::Solver`] hands to
/// its strategy: the (spec, goal) pair, the configuration, the admissible
/// heuristic (base table plus optional adaptive memo), and the canonical
/// placement-order reduction when the goal admits it.
pub struct SearchCx<'a> {
    pub(crate) spec: &'a WorkloadSpec,
    pub(crate) goal: &'a PerformanceGoal,
    pub(crate) config: &'a SearchConfig,
    pub(crate) table: &'a HeuristicTable,
    pub(crate) memo: Option<&'a HeuristicMemo>,
    pub(crate) canonical: Option<&'a CanonicalOrder>,
}

impl<'a> SearchCx<'a> {
    pub(crate) fn new(
        spec: &'a WorkloadSpec,
        goal: &'a PerformanceGoal,
        config: &'a SearchConfig,
        table: &'a HeuristicTable,
        memo: Option<&'a HeuristicMemo>,
        canonical: Option<&'a CanonicalOrder>,
    ) -> Self {
        SearchCx {
            spec,
            goal,
            config,
            table,
            memo,
            canonical,
        }
    }

    /// The workload specification being scheduled.
    pub fn spec(&self) -> &WorkloadSpec {
        self.spec
    }

    /// The performance goal pricing the edges.
    pub fn goal(&self) -> &PerformanceGoal {
        self.goal
    }

    /// The active search configuration.
    pub fn config(&self) -> &SearchConfig {
        self.config
    }

    /// The admissible heuristic for the vertex `key` identifies,
    /// memo-combined (§5).
    ///
    /// At goal vertices the remaining cost is exactly zero; returning
    /// anything below that would let a costly goal pop before cheaper
    /// open paths (the optimality argument needs `f(goal) = g(goal)`).
    pub(crate) fn h(&self, key: KeyRef<'_>, scratch: &mut BoundScratch) -> f64 {
        if key.is_goal() {
            return 0.0;
        }
        let base = self
            .table
            .estimate_key(self.goal, key, scratch)
            .as_dollars();
        match self.memo.and_then(|m| m.get(key)) {
            Some(extra) => base.max(extra),
            None => base,
        }
    }

    /// Every edge label of the graph, in the order successors are
    /// generated: placements by template, then start-ups by VM type.
    pub(crate) fn decisions(&self) -> impl Iterator<Item = Decision> + 'a {
        let spec = self.spec;
        spec.template_ids()
            .map(Decision::Place)
            .chain(spec.vm_type_ids().map(Decision::CreateVm))
    }

    /// One-step-greedy completion: the cheapest out-edge at every vertex,
    /// comparing placements (Eq. 2) against renting plus the fresh VM's
    /// cheapest first placement. Always reaches a goal vertex, so every
    /// strategy has a complete-schedule fallback and an upper bound.
    pub fn greedy_completion(&self, initial: &SearchState, stats: SearchStats) -> SearchOutcome {
        let mut state = initial.clone();
        let mut steps = Vec::new();
        let mut cost = Money::ZERO;
        while !state.is_goal() {
            let mut best: Option<(Decision, Money)> = None;
            let consider = |d: Decision, w: Money, best: &mut Option<(Decision, Money)>| {
                if best
                    .as_ref()
                    .map(|&(_, bw)| w.total_cmp(&bw).is_lt())
                    .unwrap_or(true)
                {
                    *best = Some((d, w));
                }
            };
            for d in state.successors(self.spec) {
                match d {
                    Decision::Place(_) => {
                        if let Some(w) = state.edge_weight(self.spec, self.goal, d) {
                            consider(d, w, &mut best);
                        }
                    }
                    Decision::CreateVm(_) => {
                        // Price renting by the fee plus the cheapest first
                        // placement the fresh VM would then offer, so a
                        // penalized stack loses to opening a new VM.
                        let Some((fresh, startup)) = state.apply(self.spec, self.goal, d) else {
                            continue;
                        };
                        let next_best = self
                            .spec
                            .template_ids()
                            .filter_map(|t| {
                                fresh.edge_weight(self.spec, self.goal, Decision::Place(t))
                            })
                            .min_by(Money::total_cmp)
                            .unwrap_or(Money::ZERO);
                        consider(d, startup + next_best, &mut best);
                    }
                }
            }
            let (decision, _) = best.expect("validated spec always offers a decision");
            let (next, w) = state
                .apply(self.spec, self.goal, decision)
                .expect("successor decisions are applicable");
            steps.push(DecisionStep {
                state: state.clone(),
                decision,
            });
            cost += w;
            state = next;
        }
        SearchOutcome { steps, cost, stats }
    }

    /// The wall-clock deadline, if a time budget is configured.
    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.config
            .time_limit_ms
            .map(|ms| Instant::now() + std::time::Duration::from_millis(ms))
    }
}

/// One generated vertex: its interned key plus how it was reached and the
/// two facts about it the key does not hold.
#[derive(Clone, Copy)]
pub(crate) struct Node {
    /// Interned id of the vertex's key.
    pub(crate) sid: u32,
    /// The parent's arena index and the decision taken there; `None` at
    /// the root.
    pub(crate) via: Option<(u32, Decision)>,
    /// Queries still unassigned (zero at goal vertices).
    pub(crate) remaining: u32,
    /// Whether this search has placed a query on the open VM — only then
    /// does the canonical-order reduction constrain the next placement
    /// (a fresh VM, or one seeded with committed work, takes anything).
    pub(crate) placed: bool,
}

// The arena holds one node per surviving successor; keep it to three words.
const _: () = assert!(std::mem::size_of::<Node>() <= 24);

/// The vertex being expanded, as [`Tables::price`] needs it.
#[derive(Clone, Copy)]
pub(crate) struct Parent {
    pub(crate) idx: usize,
    pub(crate) node: Node,
    /// The penalty its digest carries — what placement deltas of
    /// non-monotone goals are measured against.
    before: Money,
}

/// The buffers a search reuses for every successor it prices and bounds.
pub(crate) struct Scratch {
    /// The successor's key, as last formed by [`Tables::price`].
    pub(crate) child: StateKey,
    /// The heuristic's work vectors.
    pub(crate) bounds: BoundScratch,
}

/// The per-search mutable tables every strategy shares: the node arena,
/// the state-id interner, and the flat id-indexed best-g / cached-h /
/// explored-g vectors. All start empty and grow with what the search
/// actually interns — an online replan touching a few hundred vertices
/// pays for a few hundred.
pub(crate) struct Tables {
    /// The initial vertex, materialised: where [`Tables::reconstruct`]
    /// replays from.
    pub(crate) root: SearchState,
    pub(crate) arena: Vec<Node>,
    pub(crate) interner: KeyTable,
    pub(crate) best_g: Vec<f64>,
    pub(crate) h_cache: Vec<f64>,
    /// Settle-order g per id (last write wins on reopening); ids double
    /// as the index, so no hashing on the expansion path.
    pub(crate) explored_g: Vec<f64>,
    pub(crate) scratch: Scratch,
}

impl Tables {
    /// Seats `initial` as the root (arena index 0) and returns the tables
    /// with its heuristic value.
    pub(crate) fn init(cx: &SearchCx<'_>, initial: SearchState) -> (Self, f64) {
        let key = initial.key();
        let mut bounds = BoundScratch::default();
        let mut interner = KeyTable::default();
        let sid = interner.intern(key.as_ref());
        let h0 = cx.h(key.as_ref(), &mut bounds);
        let root_node = Node {
            sid,
            via: None,
            remaining: initial.remaining(),
            placed: initial
                .last_vm
                .as_ref()
                .is_some_and(|l| l.queue.len() > l.seeded),
        };
        let tables = Tables {
            root: initial,
            arena: vec![root_node],
            interner,
            best_g: vec![0.0],
            h_cache: vec![h0],
            explored_g: Vec::new(),
            // The root's owned key becomes the successor scratch.
            scratch: Scratch { child: key, bounds },
        };
        (tables, h0)
    }

    /// Records the settle-order g of an expanded vertex (adaptive reuse).
    pub(crate) fn record_explored(&mut self, sid: u32, g: f64) {
        *ensure_slot(&mut self.explored_g, sid, f64::NAN) = g;
    }

    /// Readies the vertex at arena index `idx` for pricing its out-edges.
    pub(crate) fn parent(&self, cx: &SearchCx<'_>, idx: usize) -> Parent {
        let node = self.arena[idx];
        Parent {
            idx,
            node,
            before: self.interner.get(node.sid).digest().penalty(cx.goal),
        }
    }

    /// The one successor-pricing routine: the weight of the edge
    /// `decision` out of `parent` — Eq. 2 for placements
    /// (`l(q,i)·f_r + Δpenalty`), `f_s` for start-ups — with the
    /// successor's key left in `self.scratch.child`. `None` when the
    /// reduced graph has no such edge: a depleted or unsupported template,
    /// a placement the canonical order forbids, a start-up while the last
    /// VM is still empty, or a VM type that can process nothing that
    /// remains (renting it could never reach a goal vertex without a
    /// further, wasteful start-up).
    pub(crate) fn price(
        &mut self,
        cx: &SearchCx<'_>,
        parent: &Parent,
        decision: Decision,
    ) -> Option<Money> {
        let key = self.interner.get(parent.node.sid);
        let counts = key.unassigned();
        let child = &mut self.scratch.child;
        match decision {
            Decision::Place(t) => {
                let (vm_type, wait, last) = key.open_vm()?;
                if *counts.get(t.index())? == 0 {
                    return None;
                }
                let vm = VmTypeId(vm_type);
                let exec = cx.spec.latency(t, vm)?;
                if let (true, Some(canonical), Some(prev)) =
                    (parent.node.placed, cx.canonical, last)
                {
                    if !canonical.in_order(vm, TemplateId(prev), t) {
                        return None;
                    }
                }
                let runtime = cx.spec.vm_type(vm).ok()?.runtime_cost(exec);
                let completion = Millis::from_millis(wait) + exec;
                child.counts.clear();
                child.counts.extend_from_slice(counts);
                child.counts[t.index()] -= 1;
                child.open = OpenVm::new(vm_type, completion.as_millis(), Some(t.0));
                let delta = match key.digest() {
                    PenaltyDigest::None => {
                        child.digest = DigestBuf::None;
                        cx.goal
                            .deadline_charge(t, completion)
                            .expect("only deadline goals have an empty digest")
                    }
                    PenaltyDigest::Average { sum_ms, count } => {
                        child.digest = DigestBuf::Average {
                            sum_ms: sum_ms + completion.as_millis() as u128,
                            count: count + 1,
                        };
                        child.digest.as_digest().penalty(cx.goal) - parent.before
                    }
                    PenaltyDigest::Percentile(dist) => {
                        child.digest.set_pushed(dist, completion.as_millis());
                        child.digest.as_digest().penalty(cx.goal) - parent.before
                    }
                };
                Some(runtime + delta)
            }
            Decision::CreateVm(v) => {
                if matches!(key.open_vm(), Some((_, _, None))) {
                    return None;
                }
                let startup = cx.spec.vm_type(v).ok()?.startup_cost;
                let useful = cx
                    .spec
                    .template_ids()
                    .any(|t| counts[t.index()] > 0 && cx.spec.latency(t, v).is_some());
                if !useful {
                    return None;
                }
                child.counts.clear();
                child.counts.extend_from_slice(counts);
                child.open = OpenVm::new(v.0, 0, None);
                child.digest.set(key.digest());
                Some(startup)
            }
        }
    }

    /// Appends the arena node of the successor reached from `parent` by
    /// `decision` (whose key is interned as `sid`) and returns its index.
    pub(crate) fn push_child(&mut self, parent: &Parent, decision: Decision, sid: u32) -> usize {
        let placement = matches!(decision, Decision::Place(_));
        let parent_idx = u32::try_from(parent.idx).expect("arena indices fit 32 bits");
        self.arena.push(Node {
            sid,
            via: Some((parent_idx, decision)),
            remaining: parent.node.remaining - u32::from(placement),
            placed: placement,
        });
        self.arena.len() - 1
    }

    /// The decision path from the root to `goal_idx`, in application
    /// order, each step with the materialised vertex it was taken from:
    /// parent links give the decisions, replaying them from the root
    /// rebuilds the states.
    pub(crate) fn reconstruct(&self, cx: &SearchCx<'_>, goal_idx: usize) -> Vec<DecisionStep> {
        let mut decisions = Vec::new();
        let mut idx = goal_idx;
        while let Some((parent, decision)) = self.arena[idx].via {
            decisions.push(decision);
            idx = parent as usize;
        }
        let mut steps = Vec::with_capacity(decisions.len());
        let mut state = self.root.clone();
        for decision in decisions.into_iter().rev() {
            let (next, _) = state
                .apply(cx.spec, cx.goal, decision)
                .expect("search paths follow edges of the reduced graph");
            steps.push(DecisionStep { state, decision });
            state = next;
        }
        steps
    }

    /// Converts the id-indexed settle table into the keyed hand-off, in id
    /// order: only settled vertices' keys are copied out, into storage
    /// sized to them, and the rest of the search's tables are dropped.
    pub(crate) fn finish_explored(self) -> ExploredStates {
        let mut keys = KeyArena::default();
        for (id, settled) in self.explored_g.iter().enumerate() {
            if !settled.is_nan() {
                keys.push(self.interner.get(id as u32));
            }
        }
        keys.shrink_to_fit();
        let mut g = self.explored_g;
        g.retain(|settled| !settled.is_nan());
        g.shrink_to_fit();
        ExploredStates::new(keys, g)
    }
}

/// How generated successors are pruned against the strategy's current
/// upper bound on useful cost.
#[derive(Clone, Copy)]
pub(crate) enum PruneRule {
    /// Drop successors with `g + h > cutoff` (the cutoff already carries
    /// any slack): exact/beam pruning against a static or slackened bound.
    Above(f64),
    /// Drop successors with `g + h ≥ cutoff − G_EPS`: anytime's pruning —
    /// only paths that can *strictly* beat the incumbent survive.
    MustBeat(f64),
}

impl PruneRule {
    fn drops(self, f: f64) -> bool {
        match self {
            PruneRule::Above(cutoff) => f > cutoff,
            PruneRule::MustBeat(cutoff) => f >= cutoff - G_EPS,
        }
    }
}

/// One surviving successor of [`expand`].
pub(crate) struct Successor {
    /// Arena index of the new vertex.
    pub(crate) idx: usize,
    /// Path cost to it.
    pub(crate) g: f64,
    /// Its (uninflated, memo-combined) heuristic value.
    pub(crate) h: f64,
    /// Whether it is a goal vertex.
    pub(crate) is_goal: bool,
}

/// Expands one vertex into the shared tables, leaving the survivors in
/// `out` (cleared first): every out-edge is priced, keyed, interned,
/// deduplicated against best-known g (counting reopenings), bounded (h is
/// cached per distinct vertex) and pruned against `rule`, in that order —
/// see the module docs. This is the one implementation exact, beam and
/// anytime share — they differ only in what they do with the survivors
/// (exact pushes everything including goals onto its open list; beam and
/// anytime route goals straight to the incumbent). Partial expansion
/// prices through the same [`Tables::price`] but interns lazily.
pub(crate) fn expand(
    cx: &SearchCx<'_>,
    t: &mut Tables,
    stats: &mut SearchStats,
    parent_idx: usize,
    parent_g: f64,
    rule: PruneRule,
    out: &mut Vec<Successor>,
) {
    out.clear();
    let parent = t.parent(cx, parent_idx);
    for decision in cx.decisions() {
        let Some(weight) = t.price(cx, &parent, decision) else {
            continue;
        };
        stats.generated += 1;
        let g2 = parent_g + weight.as_dollars();
        let child = t.scratch.child.as_ref();
        let sid2 = t.interner.intern(child);
        let known_g = ensure_slot(&mut t.best_g, sid2, f64::INFINITY);
        if known_g.is_finite() {
            if g2 >= *known_g - G_EPS {
                continue;
            }
            stats.reopened += 1;
        }
        *known_g = g2;
        let h_slot = ensure_slot(&mut t.h_cache, sid2, f64::NAN);
        if h_slot.is_nan() {
            *h_slot = cx.h(child, &mut t.scratch.bounds);
        }
        let h2 = *h_slot;
        if rule.drops(g2 + h2) {
            continue;
        }
        let idx = t.push_child(&parent, decision, sid2);
        out.push(Successor {
            idx,
            g: g2,
            h: h2,
            is_goal: t.arena[idx].remaining == 0,
        });
    }
}

/// Grows `table` with `fill` so that `id` is addressable.
pub(crate) fn ensure_slot(table: &mut Vec<f64>, id: u32, fill: f64) -> &mut f64 {
    let idx = id as usize;
    if table.len() <= idx {
        table.resize(idx + 1, fill);
    }
    &mut table[idx]
}

/// A priority-queue entry: `f` is whatever the strategy orders by (plain
/// `g + h` for exact, `g + w·h` for anytime), `g` the path cost, `idx` the
/// arena index.
pub(crate) struct HeapEntry {
    pub(crate) f: f64,
    pub(crate) g: f64,
    pub(crate) idx: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.f == other.f && self.g == other.g && self.idx == other.idx
    }
}
impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert f (smallest first); on ties,
        // prefer the deeper node (largest g), then the most recently
        // generated node (LIFO) — together these make exploration of an
        // f-plateau depth-first, reaching goal vertices quickly.
        other
            .f
            .total_cmp(&self.f)
            .then_with(|| self.g.total_cmp(&other.g))
            .then_with(|| self.idx.cmp(&other.idx))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
