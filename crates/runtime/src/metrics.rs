//! Live metrics accounting for the streaming service.
//!
//! The collector ingests completions and scheduler timings as they happen
//! and can emit a [`MetricsSnapshot`] at any virtual instant — the numbers
//! an operator would watch on a dashboard: latency percentiles, SLA
//! violation rate, spend rate, fleet size, and scheduler decision latency.
//!
//! Two design points:
//!
//! * **Per-class accounting.** The collector holds one accounting row per
//!   [`SlaClass`]: violations are judged under *that class's* goal,
//!   penalties accrue in per-class [`PenaltyTracker`]s, and snapshots
//!   report a [`ClassMetrics`] row per class alongside the fleet-wide
//!   totals. Sums across classes reproduce the fleet numbers exactly; a
//!   single-class collector is bit-identical to the legacy single-goal
//!   one (asserted by `tests/multitenant_e2e.rs`).
//! * **Incremental percentiles.** Latency populations live in
//!   [`LatencyHistogram`]s, so an interim snapshot costs O(distinct
//!   values) instead of re-sorting the whole history — the old
//!   `LatencySummary::of(&history)` made a snapshot-every-k stream
//!   quadratic. Percentiles are bit-identical to the naive sort.

use wisedb_core::{
    ClassMetrics, LatencyHistogram, MetricsSnapshot, Millis, Money, PenaltyTracker,
    PercentileDigest, SlaClass, TenantId,
};
use wisedb_sim::Completion;

/// One SLA class's running accounts.
#[derive(Debug, Clone)]
struct ClassState {
    class: SlaClass,
    penalty: PenaltyTracker,
    admitted: u64,
    rejected: u64,
    violations: u64,
    latency: LatencyHistogram,
    queueing: LatencyHistogram,
}

impl ClassState {
    fn new(class: SlaClass) -> Self {
        let penalty = class.goal.new_tracker();
        ClassState {
            class,
            penalty,
            admitted: 0,
            rejected: 0,
            violations: 0,
            latency: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
        }
    }
}

/// Incrementally maintained scheduler decision-latency statistics: counts
/// keyed by the timing quantized to whole microseconds (wall-clock noise
/// floor), a running sum for the mean, so a snapshot never clones or
/// re-sorts the timing history (the same O(n²) pattern the latency
/// populations shed via [`LatencyHistogram`]).
#[derive(Debug, Clone, Default)]
struct DecisionStats {
    /// Count per whole-microsecond timing value, ascending.
    counts: std::collections::BTreeMap<u64, u64>,
    count: u64,
    sum_secs: f64,
}

impl DecisionStats {
    fn push(&mut self, secs: f64) {
        let micros = (secs * 1e6).round().max(0.0) as u64;
        *self.counts.entry(micros).or_insert(0) += 1;
        self.count += 1;
        self.sum_secs += secs;
    }

    /// `(mean, p95)` in seconds; zeros when empty. The percentile is
    /// nearest-rank ([`PercentileDigest::nearest_rank`]) over the
    /// microsecond-quantized population; the 1 µs quantization is far
    /// below wall-clock measurement noise.
    fn mean_and_p95(&self) -> (f64, f64) {
        if self.count == 0 {
            return (0.0, 0.0);
        }
        let k = PercentileDigest::nearest_rank(95.0, self.count);
        let mut seen = 0u64;
        let mut p95 = 0u64;
        for (&micros, &n) in &self.counts {
            seen += n;
            p95 = micros;
            if seen >= k {
                break;
            }
        }
        (self.sum_secs / self.count as f64, p95 as f64 / 1e6)
    }
}

/// Accumulates per-query outcomes and scheduler timings, per SLA class.
#[derive(Debug, Clone)]
pub(crate) struct MetricsCollector {
    /// One row per class, indexed by [`TenantId`].
    classes: Vec<ClassState>,
    /// Fleet-wide latency population (the per-class populations partition
    /// it; kept separately so fleet summaries cost one histogram walk).
    latency: LatencyHistogram,
    /// Fleet-wide queueing-delay population.
    queueing: LatencyHistogram,
    decisions: DecisionStats,
}

impl MetricsCollector {
    /// A collector with one accounting row per SLA class (`classes[i]` is
    /// [`TenantId`]`(i)`; must be non-empty).
    pub(crate) fn with_classes(classes: Vec<SlaClass>) -> Self {
        assert!(!classes.is_empty(), "metrics need at least one SLA class");
        MetricsCollector {
            classes: classes.into_iter().map(ClassState::new).collect(),
            latency: LatencyHistogram::new(),
            queueing: LatencyHistogram::new(),
            decisions: DecisionStats::default(),
        }
    }

    fn class_mut(&mut self, class: TenantId) -> &mut ClassState {
        self.classes
            .get_mut(class.index())
            .expect("completions and admissions carry configured classes")
    }

    /// Records an admitted arrival of one class.
    pub(crate) fn admit_as(&mut self, class: TenantId) {
        self.class_mut(class).admitted += 1;
    }

    /// Records a rejected arrival of one class.
    pub(crate) fn reject_as(&mut self, class: TenantId) {
        self.class_mut(class).rejected += 1;
    }

    /// Records the scheduler's wall-clock overhead for one arrival.
    pub(crate) fn decision(&mut self, secs: f64) {
        self.decisions.push(secs);
    }

    /// Records one completed execution. `arrival` is the query's original
    /// arrival time; its SLA latency is `finish − arrival`, judged under
    /// the goal of the completion's class.
    pub(crate) fn complete(&mut self, completion: &Completion, arrival: Millis) {
        let latency = completion.finish.saturating_sub(arrival);
        let queueing = completion.start.saturating_sub(arrival);
        self.latency.push(latency);
        self.queueing.push(queueing);
        let state = self.class_mut(completion.class);
        state.latency.push(latency);
        state.queueing.push(queueing);
        if latency > state.class.goal.per_query_bound(completion.template) {
            state.violations += 1;
        }
        let goal = state.class.goal.clone();
        state.penalty.push(&goal, completion.template, latency);
    }

    /// Queries completed so far, fleet-wide.
    pub(crate) fn completed(&self) -> u64 {
        self.latency.count()
    }

    /// Arrivals admitted so far, fleet-wide.
    pub(crate) fn admitted(&self) -> u64 {
        self.classes.iter().map(|c| c.admitted).sum()
    }

    /// The SLA penalty accrued by completions so far, fleet-wide (the sum
    /// of the per-class trackers).
    pub(crate) fn penalty(&self) -> Money {
        self.classes
            .iter()
            .map(|c| c.penalty.penalty(&c.class.goal))
            .sum()
    }

    /// Snapshots the current state. The cluster-side inputs (`billed`,
    /// fleet gauges) come from the live cluster at the same instant, and
    /// `billed_by_class` is the per-class dollar attribution (what
    /// [`LiveCluster::billed_by_class`] reports; short slices read as zero
    /// for the missing classes).
    ///
    /// [`LiveCluster::billed_by_class`]: wisedb_sim::LiveCluster::billed_by_class
    pub(crate) fn snapshot(
        &self,
        now: Millis,
        billed: Money,
        billed_by_class: &[Money],
        vms_in_flight: usize,
        vms_provisioned: usize,
    ) -> MetricsSnapshot {
        let completed = self.completed();
        let penalty = self.penalty();
        let hours = now.as_hours_f64();
        let (mean_decision_secs, p95_decision_secs) = self.decisions.mean_and_p95();
        let classes: Vec<ClassMetrics> = self
            .classes
            .iter()
            .enumerate()
            .map(|(i, state)| {
                let class_completed = state.latency.count();
                let class_billed = billed_by_class.get(i).copied().unwrap_or(Money::ZERO);
                let class_penalty = state.penalty.penalty(&state.class.goal);
                ClassMetrics {
                    class: TenantId(i as u32),
                    name: state.class.name.clone(),
                    priority: state.class.priority,
                    admitted: state.admitted,
                    rejected: state.rejected,
                    completed: class_completed,
                    latency: state.latency.summary(),
                    queueing: state.queueing.summary(),
                    sla_violations: state.violations,
                    violation_rate: if class_completed == 0 {
                        0.0
                    } else {
                        state.violations as f64 / class_completed as f64
                    },
                    billed: class_billed,
                    penalty: class_penalty,
                    dollars_per_hour: if hours > 0.0 {
                        (class_billed + class_penalty).as_dollars() / hours
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let violations: u64 = self.classes.iter().map(|c| c.violations).sum();
        let admitted = self.admitted();
        MetricsSnapshot {
            at: now,
            admitted,
            rejected: self.classes.iter().map(|c| c.rejected).sum(),
            completed,
            in_flight: admitted - completed,
            latency: self.latency.summary(),
            queueing: self.queueing.summary(),
            sla_violations: violations,
            violation_rate: if completed == 0 {
                0.0
            } else {
                violations as f64 / completed as f64
            },
            billed,
            penalty,
            dollars_per_hour: if hours > 0.0 {
                (billed + penalty).as_dollars() / hours
            } else {
                0.0
            },
            vms_in_flight: vms_in_flight as u64,
            vms_provisioned: vms_provisioned as u64,
            mean_decision_secs,
            p95_decision_secs,
            classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisedb_core::{LatencySummary, PenaltyRate, PerformanceGoal, QueryId, TemplateId};

    fn goal() -> PerformanceGoal {
        PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        }
    }

    /// A single-class collector under [`goal`].
    fn solo() -> MetricsCollector {
        MetricsCollector::with_classes(vec![SlaClass::solo(goal())])
    }

    fn completion(q: u32, start_s: u64, finish_s: u64) -> Completion {
        Completion {
            query: QueryId(q),
            template: TemplateId(0),
            class: TenantId::DEFAULT,
            vm_index: 0,
            start: Millis::from_secs(start_s),
            finish: Millis::from_secs(finish_s),
        }
    }

    #[test]
    fn violations_and_penalty_track_the_goal() {
        let mut m = solo();
        m.admit_as(TenantId::DEFAULT);
        m.admit_as(TenantId::DEFAULT);
        // On time: 60 s latency.
        m.complete(&completion(0, 10, 70), Millis::from_secs(10));
        // Violation: 180 s latency, 60 s over → $0.60 at 1 cent/s.
        m.complete(&completion(1, 100, 200), Millis::from_secs(20));
        assert_eq!(m.completed(), 2);
        let billed = Money::from_dollars(1.0);
        let s = m.snapshot(Millis::from_mins(10), billed, &[billed], 1, 2);
        assert_eq!(s.sla_violations, 1);
        assert!((s.violation_rate - 0.5).abs() < 1e-12);
        assert!(s.penalty.approx_eq(Money::from_dollars(0.60), 1e-9));
        assert_eq!(s.in_flight, 0);
        // $1.60 over 1/6 hour = $9.60/h.
        assert!((s.dollars_per_hour - 9.6).abs() < 1e-9);
        assert_eq!(s.queueing.max, Millis::from_secs(80));
        // The single class's row mirrors the fleet numbers.
        assert_eq!(s.classes.len(), 1);
        let c = &s.classes[0];
        assert_eq!(c.completed, 2);
        assert_eq!(c.sla_violations, 1);
        assert_eq!(c.latency, s.latency);
        assert!(c.billed.approx_eq(s.billed, 1e-12));
        assert!(c.penalty.approx_eq(s.penalty, 1e-12));
        assert!((c.dollars_per_hour - s.dollars_per_hour).abs() < 1e-9);
    }

    #[test]
    fn empty_collector_snapshots_zeroes() {
        let m = solo();
        let s = m.snapshot(Millis::ZERO, Money::ZERO, &[], 0, 0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.violation_rate, 0.0);
        assert_eq!(s.dollars_per_hour, 0.0);
        assert_eq!(s.latency, LatencySummary::default());
        assert_eq!(s.classes[0].latency, LatencySummary::default());
    }

    #[test]
    fn decision_latency_percentiles() {
        let mut m = solo();
        for i in 1..=100 {
            m.decision(i as f64 / 1000.0);
        }
        let s = m.snapshot(Millis::from_secs(1), Money::ZERO, &[], 0, 0);
        assert!((s.mean_decision_secs - 0.0505).abs() < 1e-9);
        assert!((s.p95_decision_secs - 0.095).abs() < 1e-12);
    }

    #[test]
    fn per_class_rows_judge_their_own_goals() {
        // Gold: 2-minute deadline. Bronze: 10-minute deadline. The same
        // 3-minute completion violates gold but not bronze.
        let classes = vec![
            SlaClass::new("gold", goal()).with_priority(1),
            SlaClass::new(
                "bronze",
                PerformanceGoal::MaxLatency {
                    deadline: Millis::from_mins(10),
                    rate: PenaltyRate::CENT_PER_SECOND,
                },
            ),
        ];
        let mut m = MetricsCollector::with_classes(classes);
        m.admit_as(TenantId(0));
        m.admit_as(TenantId(1));
        m.reject_as(TenantId(1));
        let mut slow = completion(0, 0, 180);
        m.complete(&slow, Millis::ZERO);
        slow.class = TenantId(1);
        slow.query = QueryId(1);
        m.complete(&slow, Millis::ZERO);

        let by_class = [Money::from_dollars(0.25), Money::from_dollars(0.75)];
        let s = m.snapshot(
            Millis::from_mins(30),
            Money::from_dollars(1.0),
            &by_class,
            0,
            1,
        );
        assert_eq!(s.classes.len(), 2);
        let (gold, bronze) = (&s.classes[0], &s.classes[1]);
        assert_eq!(gold.sla_violations, 1);
        assert_eq!(bronze.sla_violations, 0);
        assert_eq!(gold.admitted, 1);
        assert_eq!(bronze.admitted, 1);
        assert_eq!(bronze.rejected, 1);
        assert_eq!(s.rejected, 1);
        // Fleet totals are the class sums.
        assert_eq!(
            s.sla_violations,
            gold.sla_violations + bronze.sla_violations
        );
        assert_eq!(s.completed, gold.completed + bronze.completed);
        assert!((gold.penalty + bronze.penalty).approx_eq(s.penalty, 1e-12));
        assert!(gold.billed.approx_eq(by_class[0], 1e-12));
        assert!(bronze.billed.approx_eq(by_class[1], 1e-12));
        // Gold pays a penalty (60 s over at 1 cent/s), bronze does not.
        assert!(gold.penalty.approx_eq(Money::from_dollars(0.60), 1e-9));
        assert_eq!(bronze.penalty, Money::ZERO);
        assert!(gold.dollars_per_hour > bronze.dollars_per_hour);
    }

    #[test]
    fn incremental_summaries_match_naive_resort() {
        // The histogram path must agree with LatencySummary::of on the
        // full history at every interim snapshot.
        let mut m = solo();
        let mut latencies = Vec::new();
        let mut queueings = Vec::new();
        let mut x: u64 = 42;
        for q in 0..500u32 {
            x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            let start = x % 400;
            let exec = 1 + x % 300;
            m.admit_as(TenantId::DEFAULT);
            m.complete(
                &completion(q, start, start + exec),
                Millis::from_secs(x % 37),
            );
            let arrival = Millis::from_secs(x % 37);
            latencies.push(Millis::from_secs(start + exec).saturating_sub(arrival));
            queueings.push(Millis::from_secs(start).saturating_sub(arrival));
            if q % 97 == 0 || q == 499 {
                let s = m.snapshot(Millis::from_secs(1), Money::ZERO, &[], 0, 0);
                assert_eq!(s.latency, LatencySummary::of(&latencies));
                assert_eq!(s.queueing, LatencySummary::of(&queueings));
                assert_eq!(s.classes[0].latency, s.latency);
            }
        }
    }
}
