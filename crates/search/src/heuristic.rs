//! Admissible search heuristics.
//!
//! For *monotonically increasing* goals (per-query, max latency) the paper's
//! Eq. 3 heuristic applies: the cheapest conceivable processing cost of the
//! unassigned queries, pretending VMs were free. For non-monotone goals the
//! paper falls back to the null heuristic; we use a slightly stronger but
//! still admissible bound that accounts for the fact that future placements
//! can refund at most the penalty accumulated so far.
//!
//! Every bound is a function of the vertex's *key* alone (remaining
//! counts, open-VM wait, penalty digest) — the key is by construction what
//! future cost depends on — so the searches bound a successor from its
//! [`KeyRef`] before any state for it exists, into buffers
//! (`BoundScratch`) the search owns and reuses across vertices.

use wisedb_core::{
    DigestBuckets, Millis, Money, PenaltyDigest, PenaltyRate, PerformanceGoal, TemplateId,
    WorkloadSpec,
};

use crate::key::KeyRef;
use crate::state::SearchState;

/// Precomputed per-template bounds: `min_i f_r(i) * l(t, i)` (the cheapest
/// way to process one instance) and `min_i l(t, i)` (the fastest possible
/// completion, which lower-bounds any future completion latency).
#[derive(Debug, Clone)]
pub struct HeuristicTable {
    cheapest: Vec<Money>,
    min_exec: Vec<Millis>,
    /// Template indices sorted ascending by `min_exec` (ties by index) —
    /// lets per-state bounds build sorted remaining-execution multisets
    /// without sorting anything at search time.
    exec_order: Vec<(u64, usize)>,
    min_startup: Money,
}

/// The buffers one vertex's bound is computed in. A search owns one and
/// hands it to every [`HeuristicTable::estimate_key`] call, so bounding a
/// vertex allocates nothing once the buffers have grown to the workload's
/// size; contents never carry over between calls.
#[derive(Debug, Default)]
pub(crate) struct BoundScratch {
    /// Deadline bound: `(deadline, fastest work)` per remaining template,
    /// then folded into nested classes.
    per_deadline: Vec<(Millis, u64)>,
    classes: Vec<(Millis, u64)>,
    /// Mean and percentile bounds: remaining fastest executions, their
    /// prefix sums, and the run-length completion floors.
    execs: Vec<u64>,
    prefix: Vec<u64>,
    floors: Vec<(u64, u32)>,
}

impl HeuristicTable {
    /// Builds the table for a specification.
    pub fn new(spec: &WorkloadSpec) -> Self {
        let cheapest = spec
            .template_ids()
            .map(|t| spec.cheapest_runtime_cost(t).unwrap_or(Money::ZERO))
            .collect();
        let min_exec: Vec<Millis> = spec
            .templates()
            .iter()
            .map(|t| t.min_latency().unwrap_or(Millis::ZERO))
            .collect();
        let mut exec_order: Vec<(u64, usize)> = min_exec
            .iter()
            .enumerate()
            .map(|(t, &e)| (e.as_millis(), t))
            .collect();
        exec_order.sort_unstable();
        let min_startup = spec
            .vm_types()
            .iter()
            .map(|v| v.startup_cost)
            .min_by(Money::total_cmp)
            .unwrap_or(Money::ZERO);
        HeuristicTable {
            cheapest,
            min_exec,
            exec_order,
            min_startup,
        }
    }

    /// Cheapest processing cost of one instance of `t`.
    pub fn cheapest(&self, t: TemplateId) -> Money {
        self.cheapest.get(t.index()).copied().unwrap_or(Money::ZERO)
    }

    /// Sum of cheapest processing costs over all unassigned queries:
    /// Eq. 3's `h(v)`.
    pub fn remaining_runtime_lower_bound(&self, state: &SearchState) -> Money {
        self.runtime_lower_bound(&state.unassigned)
    }

    fn runtime_lower_bound(&self, unassigned: &[u16]) -> Money {
        unassigned
            .iter()
            .zip(&self.cheapest)
            .map(|(&count, &cost)| cost * count as f64)
            .sum()
    }

    /// The admissible heuristic for `goal` at `state`; see
    /// `estimate_key`, which the searches call directly.
    pub fn estimate(&self, goal: &PerformanceGoal, state: &SearchState) -> Money {
        self.estimate_key(goal, state.key().as_ref(), &mut BoundScratch::default())
    }

    /// The admissible heuristic for `goal` at the vertex `key` identifies.
    ///
    /// * Monotone goals: future cost ≥ remaining runtime (Eq. 3), *plus* a
    ///   bin-packing bound on unavoidable start-up fees / overflow
    ///   penalties — see [`Self::startup_overflow_bound`]. The paper uses
    ///   Eq. 3 alone; the extra term is what keeps 30-query oracle
    ///   searches tractable, because without it every no-penalty prefix of
    ///   every schedule shares one enormous f-plateau.
    /// * Non-monotone goals: placements can *refund* penalty, so the paper
    ///   uses the null heuristic. We use a stronger admissible bound: the
    ///   future penalty deltas telescope to `p_final − p_current`, and
    ///   `p_final` is lower-bounded by a `P‖ΣC_j`-style packing argument —
    ///   remaining work must serialize onto however many machines the
    ///   schedule pays for, so completions are bounded by prefix sums of
    ///   the fastest executions (plus the open VM's queue wait), not bare
    ///   fastest executions; see [`Self::average_bound`] and
    ///   [`Self::percentile_bound`]. At a goal vertex the estimate is
    ///   exactly zero, which the optimality argument for inconsistent
    ///   heuristics relies on.
    pub(crate) fn estimate_key(
        &self,
        goal: &PerformanceGoal,
        key: KeyRef<'_>,
        scratch: &mut BoundScratch,
    ) -> Money {
        if key.is_goal() {
            return Money::ZERO;
        }
        let runtime = self.runtime_lower_bound(key.unassigned());
        // The open VM's queued wait, if one is rented.
        let open_wait = key.open_vm().map(|(_, wait, _)| wait);
        match (goal, key.digest()) {
            (PerformanceGoal::MaxLatency { .. } | PerformanceGoal::PerQuery { .. }, _) => {
                runtime + self.startup_overflow_bound(goal, key.unassigned(), open_wait, scratch)
            }
            (
                PerformanceGoal::AverageLatency { target, rate },
                PenaltyDigest::Average { sum_ms, count },
            ) => {
                let current = key.digest().penalty(goal);
                let bound = self.average_bound(
                    key.unassigned(),
                    open_wait.is_some(),
                    (sum_ms, count),
                    (*target, *rate),
                    scratch,
                );
                runtime + bound - current
            }
            (
                PerformanceGoal::Percentile {
                    percent,
                    deadline,
                    rate,
                },
                PenaltyDigest::Percentile(dist),
            ) => {
                let current = key.digest().penalty(goal);
                let bound = self.percentile_bound(
                    key.unassigned(),
                    open_wait,
                    dist,
                    (*percent, *deadline, *rate),
                    scratch,
                );
                runtime + bound - current
            }
            _ => panic!("vertex key of a different goal kind"),
        }
    }

    /// For average-latency goals: the cheapest conceivable combination of
    /// new-VM fees and mean-latency penalty.
    ///
    /// With `k` machines available, the minimum total completion time of
    /// jobs with execution times `e₁ ≥ e₂ ≥ …` is `Σ ⌈j/k⌉·e_j` (SPT on
    /// each machine, longest jobs first across machines — the classical
    /// `P‖ΣC_j` bound; queue offsets on the open VM only increase it). The
    /// final mean is therefore at least `(sum_so_far + ΣC_min(V+open)) /
    /// n_final`, giving a penalty floor per choice of `V` new VMs; minimize
    /// `f_min·V + penalty_floor(V)` over `V`.
    fn average_bound(
        &self,
        unassigned: &[u16],
        has_open: bool,
        (sum_ms, count): (u128, u64),
        (target, rate): (Millis, PenaltyRate),
        scratch: &mut BoundScratch,
    ) -> Money {
        // Remaining execution times, longest first (no sort: walk the
        // precomputed ascending exec order backwards).
        let execs = &mut scratch.execs;
        execs.clear();
        for &(ms, t) in self.exec_order.iter().rev() {
            let count = unassigned.get(t).copied().unwrap_or(0);
            for _ in 0..count {
                execs.push(ms);
            }
        }
        if execs.is_empty() {
            return Money::ZERO;
        }
        let m = execs.len();
        let n_final = count + m as u64;
        let open = usize::from(has_open);
        let mut best = Money::from_dollars(f64::INFINITY);
        for v in 0..=m {
            let machines = (v + open).max(1);
            // V new VMs are only "free" capacity if we pay their fee; with
            // no open VM at least one rental is mandatory.
            let paid_vms = if open == 0 { v.max(1) } else { v };
            let mut sum_c: u128 = sum_ms;
            for (j, &e) in execs.iter().enumerate() {
                sum_c += (((j / machines) + 1) as u128) * e as u128;
            }
            let mean = Millis::from_millis((sum_c / n_final as u128) as u64);
            let penalty = rate.for_violation(mean.saturating_sub(target));
            let candidate = self.min_startup * paid_vms as f64 + penalty;
            if candidate < best {
                best = candidate;
            }
            if penalty == Money::ZERO {
                break; // adding VMs only raises the fee from here on
            }
        }
        best
    }

    /// For deadline goals: a lower bound on the start-up fees and overflow
    /// penalties any completion must still pay.
    ///
    /// Derivation: let `W` be the total remaining work at its *fastest*
    /// (`Σ min_exec`), `D` the most generous deadline among remaining
    /// templates, and `S = (D − wait)⁺` the penalty-free room left on the
    /// open VM. Any completion splits `W` across the open VM and `V` new
    /// VMs. On a VM whose queue sums to `Wᵢ`, the last query finishes at
    /// `Wᵢ` (+ wait), so penalties are at least `rate·(Wᵢ − D)⁺`; summing
    /// and using `(a−A)⁺ + (b−B)⁺ ≥ (a+b−A−B)⁺` gives penalties
    /// `≥ rate·(W − S − V·D)⁺`, while start-ups cost at least `f_min·V`.
    /// The bound is the minimum over `V ≥ 0` of that convex piecewise-
    /// linear function — evaluated at the two integers around
    /// `(W − S)/D`.
    fn startup_overflow_bound(
        &self,
        goal: &PerformanceGoal,
        unassigned: &[u16],
        open_wait: Option<u64>,
        scratch: &mut BoundScratch,
    ) -> Money {
        // Deadline classes d₁ < d₂ < … with Wₖ = fastest-possible work of
        // remaining queries whose deadline is ≤ dₖ. For each class, every
        // machine can absorb at most dₖ of that work penalty-free (its
        // last such query finishes no earlier than the class work placed
        // there), so with V new VMs the penalties are at least
        // `rate·maxₖ (Wₖ − Sₖ − V·dₖ)⁺`. Max-latency goals are the
        // single-class case.
        let rate = goal.rate();
        let BoundScratch {
            per_deadline,
            classes,
            ..
        } = scratch;
        classes.clear();
        match goal {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                let mut work = 0u64;
                for (t, &count) in unassigned.iter().enumerate() {
                    work += self.min_exec[t].as_millis() * count as u64;
                }
                classes.push((*deadline, work));
            }
            PerformanceGoal::PerQuery { deadlines, .. } => {
                per_deadline.clear();
                per_deadline.extend(unassigned.iter().enumerate().filter(|&(_, &c)| c > 0).map(
                    |(t, &c)| {
                        (
                            deadlines.get(t).copied().unwrap_or(Millis::ZERO),
                            self.min_exec[t].as_millis() * c as u64,
                        )
                    },
                ));
                per_deadline.sort_unstable();
                // Prefix-accumulate into nested classes.
                let mut acc = 0u64;
                for &(d, w) in per_deadline.iter() {
                    acc += w;
                    match classes.last_mut() {
                        Some((last_d, last_w)) if *last_d == d => *last_w = acc,
                        _ => classes.push((d, acc)),
                    }
                }
            }
            _ => return Money::ZERO,
        };
        classes.retain(|&(_, w)| w > 0);
        if classes.is_empty() {
            return Money::ZERO;
        }
        let wait = Millis::from_millis(open_wait.unwrap_or(0));
        let has_open = open_wait.is_some();
        let violation_at = |v: u64| -> Millis {
            let mut worst = Millis::ZERO;
            for &(d, w) in classes.iter() {
                let slack = if has_open {
                    d.saturating_sub(wait).as_millis()
                } else {
                    0
                };
                let capacity = slack + d.as_millis() * v;
                let over = Millis::from_millis(w.saturating_sub(capacity));
                worst = worst.max(over);
            }
            worst
        };
        // `f(V) = fee·V + rate·violation(V)` is convex piecewise linear:
        // walk V upward until the violation term vanishes, tracking the
        // minimum. Zero deadlines never gain capacity from extra VMs, so
        // the walk is capped by total work over the smallest *positive*
        // deadline.
        let v_cap = classes
            .iter()
            .filter(|&&(d, _)| !d.is_zero())
            .map(|&(d, _)| classes.last().map(|&(_, w)| w).unwrap_or(0) / d.as_millis() + 1)
            .max()
            .unwrap_or(0);
        let mut best = Money::from_dollars(f64::INFINITY);
        for v in 0..=v_cap {
            let violation = violation_at(v);
            let candidate = self.min_startup * v as f64 + rate.for_violation(violation);
            if candidate < best {
                best = candidate;
            }
            if violation.is_zero() {
                break;
            }
        }
        // With no open VM and work remaining, at least one rental is
        // unavoidable regardless of deadlines.
        if !has_open {
            best = best.max(self.min_startup);
        }
        best
    }

    /// For percentile goals: the cheapest conceivable combination of
    /// new-VM fees and tail-latency penalty, anticipating queue
    /// serialization (`P‖ΣC_j`-style packing, as in
    /// [`Self::average_bound`]).
    ///
    /// Remaining queries cannot all finish at their fastest executions:
    /// with `V` new VMs plus the open one, `m = V + open` machines share
    /// the remaining work, and among the `j` earliest-finishing remaining
    /// queries some machine holds at least `⌈j/m⌉` of them (pigeonhole).
    /// That machine's last such query completes no earlier than the sum of
    /// the `⌈j/m⌉` smallest remaining executions `S(⌈j/m⌉)`, so the `j`-th
    /// smallest remaining completion is at least
    /// `c̃_j = max(e_(j), S(⌈j/m⌉) + offset)`, where `e_(j)` is the `j`-th
    /// smallest remaining execution and `offset` folds in the open VM's
    /// queue wait when everything must serialize behind it (`V = 0`). The
    /// final percentile is then at least the k-th order statistic of the
    /// completed digest merged with the `c̃` floors — computed by the same
    /// `O(buckets + r)` quantized-digest walk as before, never a sort.
    /// Minimizing `f_min·paid_VMs + penalty_floor(V)` over `V` stays
    /// admissible: any completion with `V` new VMs pays at least that fee
    /// and at least that penalty, and `c̃_j ≥ e_(j)` makes the floor no
    /// weaker than the old fastest-execution bound (`h_new ≥ h_old`).
    fn percentile_bound(
        &self,
        unassigned: &[u16],
        open_wait: Option<u64>,
        dist: DigestBuckets<'_>,
        (percent, deadline, rate): (f64, Millis, PenaltyRate),
        scratch: &mut BoundScratch,
    ) -> Money {
        let BoundScratch {
            execs,
            prefix,
            floors,
            ..
        } = scratch;
        // Remaining executions, ascending (no sort: the precomputed order).
        execs.clear();
        for &(ms, t) in &self.exec_order {
            let count = unassigned.get(t).copied().unwrap_or(0);
            for _ in 0..count {
                execs.push(ms);
            }
        }
        let r = execs.len();
        let n = dist.len() + r as u64;
        if n == 0 {
            return Money::ZERO;
        }
        let k = wisedb_core::PercentileDigest::nearest_rank(percent, n);
        if r == 0 {
            let at = Millis::from_millis(dist.value_at_rank(k));
            return rate.for_violation(at.saturating_sub(deadline));
        }
        // Prefix sums: prefix[u-1] = S(u), the u smallest executions.
        prefix.clear();
        let mut acc = 0u64;
        for &e in execs.iter() {
            acc += e;
            prefix.push(acc);
        }
        let open = usize::from(open_wait.is_some());
        let wait = open_wait.unwrap_or(0);
        let mut best = Money::from_dollars(f64::INFINITY);
        for v in 0..=r {
            let machines = (v + open).max(1);
            // V new VMs are only "free" capacity if we pay their fee; with
            // no open VM at least one rental is mandatory.
            let paid_vms = if open == 0 { v.max(1) } else { v };
            // Only when nothing new is rented does every remaining query
            // queue behind the open VM's existing work.
            let offset = if v == 0 && open == 1 { wait } else { 0 };
            // c̃ is non-decreasing (max of two non-decreasing sequences),
            // so run-length encoding yields the strictly ascending buckets
            // `value_at_rank_merged` requires.
            floors.clear();
            for (j, &e) in execs.iter().enumerate() {
                let c = e.max(prefix[j / machines] + offset);
                match floors.last_mut() {
                    Some((val, count)) if *val == c => *count += 1,
                    _ => floors.push((c, 1)),
                }
            }
            let at = Millis::from_millis(dist.value_at_rank_merged(k, floors));
            let penalty = rate.for_violation(at.saturating_sub(deadline));
            let candidate = self.min_startup * paid_vms as f64 + penalty;
            if candidate < best {
                best = candidate;
            }
            if penalty == Money::ZERO {
                break; // adding VMs only raises the fee from here on
            }
            if machines >= r && offset == 0 {
                // The floor has degenerated to bare fastest executions;
                // more machines change nothing but the fee. (With a queue
                // offset in play — `v == 0` behind a loaded open VM — the
                // next iteration drops the offset, so the floor can still
                // fall and the break would overstate the minimum.)
                break;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::Decision;
    use wisedb_core::{Millis, PenaltyRate, VmType, VmTypeId};

    fn spec() -> WorkloadSpec {
        WorkloadSpec::new(
            vec![
                wisedb_core::QueryTemplate::uniform(
                    "T1",
                    vec![Millis::from_mins(2), Millis::from_mins(4)],
                ),
                wisedb_core::QueryTemplate::uniform(
                    "T2",
                    vec![Millis::from_mins(1), Millis::from_mins(1)],
                ),
            ],
            vec![VmType::t2_medium(), VmType::t2_small()],
        )
        .unwrap()
    }

    #[test]
    fn cheapest_picks_best_vm_type() {
        let table = HeuristicTable::new(&spec());
        // T1: medium 2m*0.052/60 vs small 4m*0.026/60 — equal; either is fine.
        let t1 = table.cheapest(TemplateId(0));
        assert!(t1.approx_eq(Money::from_dollars(0.052 * 2.0 / 60.0), 1e-12));
        // T2: small wins (1m at half rate).
        let t2 = table.cheapest(TemplateId(1));
        assert!(t2.approx_eq(Money::from_dollars(0.026 / 60.0), 1e-12));
    }

    #[test]
    fn monotone_estimate_is_runtime_plus_unavoidable_startups() {
        let spec = spec();
        let goal = wisedb_core::PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(10),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let table = HeuristicTable::new(&spec);
        // No VM yet: 5 minutes of work fits one 10-minute VM, so exactly
        // one start-up fee is unavoidable on top of Eq. 3's runtime sum.
        let state = SearchState::initial(vec![2, 1], &goal);
        let runtime = table.cheapest(TemplateId(0)) * 2.0 + table.cheapest(TemplateId(1));
        let expected = runtime + Money::from_dollars(0.0008);
        assert!(table.estimate(&goal, &state).approx_eq(expected, 1e-12));
    }

    #[test]
    fn overflow_bound_anticipates_extra_vms() {
        // Deadline 2 minutes, six 1-minute queries, empty cluster: at most
        // 2 queries per VM, so ≥ 3 start-ups are unavoidable.
        let spec = WorkloadSpec::single_vm(
            vec![("T", Millis::from_mins(1))],
            wisedb_core::VmType::t2_medium(),
        )
        .unwrap();
        let goal = wisedb_core::PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let table = HeuristicTable::new(&spec);
        let state = SearchState::initial(vec![6], &goal);
        let runtime = table.cheapest(TemplateId(0)) * 6.0;
        let h = table.estimate(&goal, &state);
        let three_startups = Money::from_dollars(3.0 * 0.0008);
        assert!(
            h.approx_eq(runtime + three_startups, 1e-9),
            "h = {h}, expected runtime + 3 startups"
        );
    }

    #[test]
    fn estimate_is_zero_at_goal_vertices() {
        let spec = spec();
        let goal = wisedb_core::PerformanceGoal::AverageLatency {
            target: Millis::from_mins(1),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let table = HeuristicTable::new(&spec);
        let state = SearchState::initial(vec![0, 2], &goal);
        let (state, _) = state
            .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
            .unwrap();
        // Place T2 twice: second completes at 2m, mean = 1.5m, 30s over.
        let (state, _) = state
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        let (state, _) = state
            .apply(&spec, &goal, Decision::Place(TemplateId(1)))
            .unwrap();
        assert!(state.tracker.penalty(&goal) > Money::ZERO);
        // Goal vertex: nothing remains, so the true remaining cost is 0 and
        // the heuristic must say exactly that.
        assert_eq!(table.estimate(&goal, &state), Money::ZERO);
    }

    /// The bucket-merge queue-wait percentile bound equals a materialized
    /// sort-every-candidate reference on states reached by real decision
    /// sequences, and it never drops below the historical
    /// fastest-executions-only floor (`h_new ≥ h_old`).
    #[test]
    fn percentile_estimate_matches_packing_reference() {
        let spec = spec();
        let deadline = Millis::from_secs(100);
        let rate = PenaltyRate::CENT_PER_SECOND;
        let goal = wisedb_core::PerformanceGoal::Percentile {
            percent: 75.0,
            deadline,
            rate,
        };
        let table = HeuristicTable::new(&spec);
        let min_startup = spec
            .vm_types()
            .iter()
            .map(|v| v.startup_cost)
            .min_by(Money::total_cmp)
            .unwrap();
        // Walk a few placement sequences, checking the estimate at every
        // intermediate state.
        for placements in [vec![0usize, 1, 1], vec![1, 1, 0, 0], vec![0, 0, 1], vec![1]] {
            let mut state = SearchState::initial(vec![3, 4], &goal);
            let (s, _) = state
                .apply(&spec, &goal, Decision::CreateVm(VmTypeId(0)))
                .unwrap();
            state = s;
            for &t in &placements {
                let (s, _) = state
                    .apply(&spec, &goal, Decision::Place(TemplateId(t as u32)))
                    .unwrap();
                state = s;

                let wisedb_core::PenaltyTracker::Percentile { dist } = &state.tracker else {
                    unreachable!()
                };
                let completed: Vec<u64> = dist
                    .buckets()
                    .flat_map(|(v, c)| std::iter::repeat_n(v, c as usize))
                    .collect();
                let mut execs: Vec<u64> = Vec::new();
                for (t, &remaining) in state.unassigned.iter().enumerate() {
                    for _ in 0..remaining {
                        execs.push(spec.templates()[t].min_latency().unwrap().as_millis());
                    }
                }
                execs.sort_unstable();
                let r = execs.len();
                let open = usize::from(state.last_vm.is_some());
                let wait = state
                    .last_vm
                    .as_ref()
                    .map(|l| l.wait.as_millis())
                    .unwrap_or(0);
                let percentile_of = |mut merged: Vec<u64>| -> Money {
                    merged.sort_unstable();
                    let n = merged.len();
                    let k = (((75.0 / 100.0) * n as f64).ceil() as usize).clamp(1, n);
                    rate.for_violation(Millis::from_millis(merged[k - 1]).saturating_sub(deadline))
                };

                // Old bound: every remaining query at its fastest execution,
                // no fees — the floor the new bound must dominate.
                let mut naive = completed.clone();
                naive.extend_from_slice(&execs);
                let old_floor = percentile_of(naive);

                // New reference: min over V new VMs of fee + packed-floor
                // penalty, with per-rank completions
                // `max(e_(j), S(⌈j/m⌉) + offset)` materialized and sorted.
                let mut best = Money::from_dollars(f64::INFINITY);
                for v in 0..=r {
                    let machines = (v + open).max(1);
                    let paid_vms = if open == 0 { v.max(1) } else { v };
                    let offset = if v == 0 && open == 1 { wait } else { 0 };
                    let mut merged = completed.clone();
                    for (j, &e) in execs.iter().enumerate() {
                        let s: u64 = execs[..(j / machines) + 1].iter().sum();
                        merged.push(e.max(s + offset));
                    }
                    let candidate = min_startup * paid_vms as f64 + percentile_of(merged);
                    if candidate < best {
                        best = candidate;
                    }
                }

                let runtime = table.remaining_runtime_lower_bound(&state);
                let current = state.tracker.penalty(&goal);
                let expected = runtime + best - current;
                let estimate = table.estimate(&goal, &state);
                assert!(
                    estimate.approx_eq(expected, 1e-12),
                    "after {placements:?}: estimate {estimate} vs reference {expected}"
                );
                let floor = runtime + old_floor - current;
                assert!(
                    estimate >= floor - Money::from_dollars(1e-12),
                    "after {placements:?}: estimate {estimate} below old floor {floor}"
                );
            }
        }
    }

    #[test]
    fn average_estimate_anticipates_unavoidable_penalty() {
        let spec = spec();
        // Impossible target: even the fastest executions violate it.
        let goal = wisedb_core::PerformanceGoal::AverageLatency {
            target: Millis::from_secs(30),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let table = HeuristicTable::new(&spec);
        let state = SearchState::initial(vec![0, 1], &goal);
        // One T2 remains; its fastest execution is 1m, so the final mean is
        // at least 1m — 30s over target — on top of its runtime cost and
        // the one unavoidable VM rental fee.
        let h = table.estimate(&goal, &state);
        let runtime = table.cheapest(TemplateId(1));
        let unavoidable = Money::from_dollars(0.30) + Money::from_dollars(0.0008);
        assert!(
            h.approx_eq(runtime + unavoidable, 1e-9),
            "h = {h}, expected {}",
            runtime + unavoidable
        );
    }
}
