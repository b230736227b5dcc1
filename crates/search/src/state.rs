//! Search vertices: partial schedules plus remaining work.
//!
//! A vertex `v` of the scheduling graph (§4.3) carries the unassigned
//! queries `v_u` and the partial schedule `v_s`. Under the paper's graph
//! reduction, placements only ever target the most recently rented VM, so a
//! vertex does not need the whole partial schedule — only the *last* VM's
//! composition (everything older is immutable and its cost already paid on
//! the path) plus whatever the performance goal needs to price future
//! placements (the [`PenaltyTracker`]).
//!
//! A [`SearchState`] is the *materialised* vertex: what a decision path is
//! reported in, what feature extraction reads, and what the tree-driven
//! batch scheduler walks. It is built for structural sharing — the open
//! VM's queue is a persistent stack whose tail is shared between parent
//! and child, the unassigned counts sit behind a copy-on-write [`Arc`], and
//! the percentile tracker is copy-on-write inside [`wisedb_core`] — so
//! applying a decision costs a few small allocations, never a deep copy.
//!
//! The search strategies do **not** hold one per generated vertex: their
//! expansion kernel prices successors from interned keys ([`crate::key`])
//! and states are rebuilt only along the path a search returns.

use std::fmt;
use std::sync::Arc;

use wisedb_core::{
    CoreError, CoreResult, Millis, Money, PenaltyTracker, PerformanceGoal, TemplateId, VmTypeId,
    WorkloadSpec,
};

use crate::decision::Decision;
use crate::key::{OpenVm, StateKey};

/// A persistent stack of template placements: pushing shares the entire
/// existing queue with the parent state instead of copying it (one small
/// node per placement, instead of one `Vec` copy per applied decision).
///
/// Iteration order is newest-first (a stack); [`TemplateStack::to_vec`]
/// returns placement order for display and tests. Only the queue's length,
/// last element, and per-template counts are semantically meaningful to
/// the search — none of those depend on walking the queue forwards.
#[derive(Clone, Default)]
pub struct TemplateStack {
    head: Option<Arc<StackNode>>,
    len: usize,
}

struct StackNode {
    template: TemplateId,
    prev: Option<Arc<StackNode>>,
}

impl TemplateStack {
    /// The empty queue.
    pub fn new() -> Self {
        TemplateStack::default()
    }

    /// Builds a queue holding `templates` in placement order.
    pub(crate) fn from_slice(templates: &[TemplateId]) -> Self {
        let mut stack = TemplateStack::new();
        for &t in templates {
            stack.push(t);
        }
        stack
    }

    /// Appends a placement. O(1); the previous queue is shared, not copied.
    pub fn push(&mut self, template: TemplateId) {
        self.head = Some(Arc::new(StackNode {
            template,
            prev: self.head.take(),
        }));
        self.len += 1;
    }

    /// The most recent placement.
    pub fn last(&self) -> Option<TemplateId> {
        self.head.as_ref().map(|n| n.template)
    }

    /// Number of queued placements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates newest-to-oldest.
    pub fn iter(&self) -> impl Iterator<Item = TemplateId> + '_ {
        std::iter::successors(self.head.as_deref(), |n| n.prev.as_deref()).map(|n| n.template)
    }

    /// The queue in placement (oldest-first) order.
    pub fn to_vec(&self) -> Vec<TemplateId> {
        let mut v: Vec<TemplateId> = self.iter().collect();
        v.reverse();
        v
    }
}

impl PartialEq for TemplateStack {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for TemplateStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.to_vec()).finish()
    }
}

impl FromIterator<TemplateId> for TemplateStack {
    fn from_iter<I: IntoIterator<Item = TemplateId>>(iter: I) -> Self {
        let mut stack = TemplateStack::new();
        for t in iter {
            stack.push(t);
        }
        stack
    }
}

/// The most recently rented VM within a partial schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct LastVm {
    /// Its VM type.
    pub vm_type: VmTypeId,
    /// Templates queued on it, in placement order (persistent: children
    /// share the parent's queue).
    pub queue: TemplateStack,
    /// Total execution time of the queue — the *wait time* a newly placed
    /// query would experience (the `wait-time` feature of §4.4).
    pub wait: Millis,
    /// How many leading queue entries were already committed before this
    /// search began (online scheduling seeds the open VM, §6.3). The
    /// canonical-SPT reduction must not let committed work constrain the
    /// ordering of *new* placements.
    pub seeded: usize,
}

impl LastVm {
    fn new(vm_type: VmTypeId) -> Self {
        LastVm {
            vm_type,
            queue: TemplateStack::new(),
            wait: Millis::ZERO,
            seeded: 0,
        }
    }

    /// An open VM carried over from a previous scheduling round: its queue
    /// is fixed history, not reorderable by this search.
    pub fn seeded(vm_type: VmTypeId, queue: Vec<TemplateId>, wait: Millis) -> Self {
        let seeded = queue.len();
        LastVm {
            vm_type,
            queue: TemplateStack::from_slice(&queue),
            wait,
            seeded,
        }
    }
}

/// A vertex of the (reduced) scheduling graph. Cloning is cheap — see the
/// module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchState {
    /// Unassigned instance count per template (`v_u`), copy-on-write:
    /// renting a VM shares it wholesale, placing a query copies it once.
    pub unassigned: Arc<[u16]>,
    /// The most recently rented VM, if any. `None` only at the start vertex.
    pub last_vm: Option<LastVm>,
    /// Incremental penalty state for the goal.
    pub tracker: PenaltyTracker,
    /// Number of VMs rented so far (for reporting; not part of the key).
    pub vms_rented: u32,
}

impl SearchState {
    /// The start vertex: everything unassigned, nothing rented.
    pub fn initial(unassigned: Vec<u16>, goal: &PerformanceGoal) -> Self {
        SearchState {
            unassigned: unassigned.into(),
            last_vm: None,
            tracker: goal.new_tracker(),
            vms_rented: 0,
        }
    }

    /// The start vertex for per-template query counts, as
    /// [`Workload::template_counts`](wisedb_core::Workload::template_counts)
    /// returns them. A vertex holds each count in a `u16`, so a count above
    /// `u16::MAX` is a [`CoreError::TemplateCountOverflow`], never a
    /// truncation.
    pub fn for_counts(counts: &[u32], goal: &PerformanceGoal) -> CoreResult<Self> {
        let unassigned = counts
            .iter()
            .enumerate()
            .map(|(i, &count)| {
                u16::try_from(count).map_err(|_| CoreError::TemplateCountOverflow {
                    template: TemplateId(i as u32),
                    count,
                })
            })
            .collect::<CoreResult<Vec<u16>>>()?;
        Ok(SearchState::initial(unassigned, goal))
    }

    /// A goal vertex has no unassigned queries.
    pub fn is_goal(&self) -> bool {
        self.unassigned.iter().all(|&c| c == 0)
    }

    /// Total number of unassigned queries.
    pub fn remaining(&self) -> u32 {
        self.unassigned.iter().map(|&c| c as u32).sum()
    }

    /// Whether `decision` labels an edge out of this vertex in the
    /// *reduced* graph (§4.3): placements need a supporting last VM and an
    /// unassigned instance; a start-up edge requires the last VM to be
    /// non-empty (or no VM at all — the mandatory first decision).
    pub fn is_valid(&self, spec: &WorkloadSpec, decision: Decision) -> bool {
        match decision {
            Decision::CreateVm(v) => {
                if v.index() >= spec.num_vm_types() {
                    return false;
                }
                match &self.last_vm {
                    None => true,
                    Some(last) => !last.queue.is_empty(),
                }
            }
            Decision::Place(t) => {
                if self
                    .unassigned
                    .get(t.index())
                    .map(|&c| c == 0)
                    .unwrap_or(true)
                {
                    return false;
                }
                match &self.last_vm {
                    None => false,
                    Some(last) => spec.latency(t, last.vm_type).is_some(),
                }
            }
        }
    }

    /// The weight of the edge labelled `decision` — Eq. 2 for placements
    /// (`l(q,i) * f_r + Δpenalty`), `f_s` for start-ups — without mutating
    /// this state. Returns `None` for invalid decisions.
    pub fn edge_weight(
        &self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        decision: Decision,
    ) -> Option<Money> {
        if !self.is_valid(spec, decision) {
            return None;
        }
        match decision {
            Decision::CreateVm(v) => Some(spec.vm_type(v).ok()?.startup_cost),
            Decision::Place(t) => {
                let last = self.last_vm.as_ref()?;
                let exec = spec.latency(t, last.vm_type)?;
                let runtime = spec.vm_type(last.vm_type).ok()?.runtime_cost(exec);
                let completion = last.wait + exec;
                Some(runtime + self.tracker.delta(goal, t, completion))
            }
        }
    }

    /// Applies `decision`, returning the successor state and edge weight.
    /// Returns `None` for invalid decisions.
    pub fn apply(
        &self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        decision: Decision,
    ) -> Option<(SearchState, Money)> {
        let mut next = self.clone();
        let weight = next.apply_in_place(spec, goal, decision)?;
        Some((next, weight))
    }

    /// Applies `decision` to this state itself, returning the edge weight;
    /// an invalid decision returns `None` and leaves the state untouched.
    /// A walk that keeps no vertex behind it (the tree-driven batch
    /// scheduler) advances this way: nothing is shared with a parent, so
    /// the copy-on-write counts and percentile buckets are updated where
    /// they are instead of being copied once per decision.
    pub fn apply_in_place(
        &mut self,
        spec: &WorkloadSpec,
        goal: &PerformanceGoal,
        decision: Decision,
    ) -> Option<Money> {
        if !self.is_valid(spec, decision) {
            return None;
        }
        match decision {
            Decision::CreateVm(v) => {
                let startup = spec.vm_type(v).ok()?.startup_cost;
                self.last_vm = Some(LastVm::new(v));
                self.vms_rented += 1;
                Some(startup)
            }
            Decision::Place(t) => {
                let last = self.last_vm.as_mut()?;
                let exec = spec.latency(t, last.vm_type)?;
                let runtime = spec.vm_type(last.vm_type).ok()?.runtime_cost(exec);
                last.queue.push(t);
                last.wait += exec;
                let completion = last.wait;
                Arc::make_mut(&mut self.unassigned)[t.index()] -= 1;
                let delta = self.tracker.push(goal, t, completion);
                Some(runtime + delta)
            }
        }
    }

    /// All decisions labelling out-edges of this vertex in the reduced
    /// graph. Start-up edges are additionally pruned to VM types that can
    /// process at least one remaining template (renting anything else could
    /// never reach a goal vertex without a further, wasteful start-up).
    pub fn successors(&self, spec: &WorkloadSpec) -> Vec<Decision> {
        let mut out = Vec::new();
        for t in spec.template_ids() {
            if self.is_valid(spec, Decision::Place(t)) {
                out.push(Decision::Place(t));
            }
        }
        let can_create = match &self.last_vm {
            None => true,
            Some(last) => !last.queue.is_empty(),
        };
        if can_create && self.remaining() > 0 {
            for v in spec.vm_type_ids() {
                let useful = spec
                    .template_ids()
                    .any(|t| self.unassigned[t.index()] > 0 && spec.latency(t, v).is_some());
                if useful {
                    out.push(Decision::CreateVm(v));
                }
            }
        }
        out
    }

    /// Canonical dedup key. Two vertices with equal keys have identical
    /// future costs, so only the cheaper needs expanding:
    ///
    /// * remaining work (`unassigned`) matches;
    /// * the open VM prices future placements identically — that requires
    ///   only its **type** and **wait time** (penalty deltas see the wait,
    ///   never the queue's composition) plus the **last-placed template**,
    ///   which gates placements under the canonical-SPT reduction;
    /// * the penalty digest captures everything the goal can still
    ///   distinguish about the past.
    ///
    /// Collapsing the open VM to `(type, wait, tail)` rather than its full
    /// composition merges the exponentially many ways of reaching the same
    /// backlog — the difference between 30-query searches finishing in
    /// thousands of expansions versus millions.
    ///
    /// This owned form copies the counts (and a percentile digest's
    /// buckets); the searches form their keys in place instead.
    pub fn key(&self) -> StateKey {
        let open = match &self.last_vm {
            None => OpenVm::ABSENT,
            Some(l) => OpenVm::new(l.vm_type.0, l.wait.as_millis(), l.queue.last().map(|t| t.0)),
        };
        StateKey::new(&self.unassigned, open, self.tracker.digest())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{PenaltyRate, VmType};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    fn goal() -> PerformanceGoal {
        PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        }
    }

    #[test]
    fn template_stack_shares_and_tracks() {
        let mut a = TemplateStack::new();
        assert!(a.is_empty());
        a.push(TemplateId(0));
        a.push(TemplateId(1));
        let mut b = a.clone(); // shares both nodes
        b.push(TemplateId(2));
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(a.last(), Some(TemplateId(1)));
        assert_eq!(b.last(), Some(TemplateId(2)));
        assert_eq!(
            b.to_vec(),
            vec![TemplateId(0), TemplateId(1), TemplateId(2)]
        );
        assert_eq!(
            a,
            TemplateStack::from_slice(&[TemplateId(0), TemplateId(1)])
        );
        assert_ne!(a, b);
    }

    #[test]
    fn start_vertex_must_rent_first() {
        let s = SearchState::initial(vec![1, 2], &goal());
        assert!(!s.is_goal());
        assert_eq!(s.remaining(), 3);
        let succ = s.successors(&spec());
        assert_eq!(succ, vec![Decision::CreateVm(VmTypeId(0))]);
    }

    #[test]
    fn reduction_blocks_second_empty_vm() {
        let s = SearchState::initial(vec![1, 1], &goal());
        let (s, w) = s
            .apply(&spec(), &goal(), Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        assert!(w.approx_eq(Money::from_dollars(0.0008), 1e-12));
        // Last VM is empty: no second start-up edge, placements only.
        let succ = s.successors(&spec());
        assert!(succ.iter().all(|d| matches!(d, Decision::Place(_))));
        assert_eq!(succ.len(), 2);
    }

    #[test]
    fn placement_updates_wait_and_counts() {
        let s = SearchState::initial(vec![1, 1], &goal());
        let (s, _) = s
            .apply(&spec(), &goal(), Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        let (s, w) = s
            .apply(&spec(), &goal(), Decision::Place(TemplateId(0)))
            .unwrap();
        // 2 minutes of t2.medium time, no violation (2m <= 3m deadline).
        assert!(w.approx_eq(Money::from_dollars(0.052 * 2.0 / 60.0), 1e-9));
        let last = s.last_vm.as_ref().unwrap();
        assert_eq!(last.wait, Millis::from_mins(2));
        assert_eq!(*s.unassigned, [0, 1]);

        // Placing T2 now completes at 3m, 2m past its 1m deadline: the
        // edge carries the $1.20 penalty (Eq. 2).
        let w = s
            .edge_weight(&spec(), &goal(), Decision::Place(TemplateId(1)))
            .unwrap();
        let expected = Money::from_dollars(0.052 / 60.0 + 1.20);
        assert!(w.approx_eq(expected, 1e-9));
    }

    #[test]
    fn apply_shares_parent_structure() {
        let s = SearchState::initial(vec![2, 2], &goal());
        let (s, _) = s
            .apply(&spec(), &goal(), Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        // Renting shares the unassigned counts wholesale.
        let (rented, _) = s
            .apply(&spec(), &goal(), Decision::Place(TemplateId(0)))
            .unwrap();
        let (rented2, _) = rented
            .apply(&spec(), &goal(), Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        assert!(Arc::ptr_eq(&rented.unassigned, &rented2.unassigned));
        // Placing copies the counts once but shares the queue's tail.
        let (placed, _) = rented
            .apply(&spec(), &goal(), Decision::Place(TemplateId(1)))
            .unwrap();
        assert!(!Arc::ptr_eq(&rented.unassigned, &placed.unassigned));
        assert_eq!(placed.last_vm.as_ref().unwrap().queue.len(), 2);
        assert_eq!(rented.last_vm.as_ref().unwrap().queue.len(), 1);
    }

    #[test]
    fn depleted_templates_are_invalid() {
        let s = SearchState::initial(vec![0, 1], &goal());
        let (s, _) = s
            .apply(&spec(), &goal(), Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        assert!(!s.is_valid(&spec(), Decision::Place(TemplateId(0))));
        assert!(s.is_valid(&spec(), Decision::Place(TemplateId(1))));
        assert!(s
            .apply(&spec(), &goal(), Decision::Place(TemplateId(0)))
            .is_none());
    }

    #[test]
    fn unsupported_vm_types_not_offered() {
        let spec = WorkloadSpec::new(
            vec![wisedb_core::QueryTemplate {
                name: "medium-only".into(),
                latencies: vec![Some(Millis::from_mins(1)), None],
            }],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(5),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let s = SearchState::initial(vec![2], &goal);
        // Only the supporting type is offered at the start vertex.
        assert_eq!(s.successors(&spec), vec![Decision::CreateVm(VmTypeId(0))]);

        // On a small VM, the template cannot be placed.
        let (on_small, _) = s
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(1)))
            .unwrap();
        assert!(!on_small.is_valid(&spec, Decision::Place(TemplateId(0))));
    }

    #[test]
    fn keys_collapse_interior_queue_orderings() {
        let spec = spec();
        let goal = goal();
        let s0 = SearchState::initial(vec![1, 2], &goal);
        let (s0, _) = s0
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
            .unwrap();

        // Path A: T1, T2, T2. Path B: T2, T1, T2. Same multiset, same
        // tail — the different interior orderings paid different
        // penalties (already in g) but share every future option.
        let (a, _) = s0
            .apply(&spec, &goal, Decision::Place(TemplateId(0)))
            .unwrap();
        let (a, _) = a
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (a, _) = a
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (b, _) = s0
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (b, _) = b
            .apply(&spec, &goal, Decision::Place(TemplateId(0)))
            .unwrap();
        let (b, _) = b
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        assert_eq!(a.key(), b.key());

        // Different tails (which gate canonical placements) stay distinct.
        let (c, _) = s0
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (c, _) = c
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (c, _) = c
            .apply(&spec, &goal, Decision::Place(TemplateId(0)))
            .unwrap();
        assert_ne!(a.key(), c.key());
    }

    #[test]
    fn start_vertices_hold_counts_up_to_u16_max() {
        let s = SearchState::for_counts(&[3, 65_535], &goal()).unwrap();
        assert_eq!(*s.unassigned, [3, 65_535]);
        assert_eq!(
            SearchState::for_counts(&[3, 65_536], &goal()),
            Err(CoreError::TemplateCountOverflow {
                template: TemplateId(1),
                count: 65_536,
            })
        );
    }

    #[test]
    fn goal_vertices_have_no_unassigned() {
        let goal = goal();
        let s = SearchState::initial(vec![0, 0], &goal);
        assert!(s.is_goal());
    }
}
