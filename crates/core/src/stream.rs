//! Streaming vocabulary: arrivals and live service metrics.
//!
//! Batch scheduling speaks [`Workload`](crate::Workload); the online side
//! (§6.3) and the streaming runtime speak *arrivals* — template instances
//! tagged with the virtual time they entered the system — and report their
//! health through [`MetricsSnapshot`]s: latency percentiles, SLA-violation
//! rate, spend rate, and fleet size at a point in virtual time.

use serde::{Deserialize, Serialize};

use crate::goal::{PercentileDigest, PerformanceGoal};
use crate::money::Money;
use crate::template::TemplateId;
use crate::tenant::{ClassMetrics, TenantId};
use crate::time::Millis;

/// One query of an online stream: a template instance plus its arrival
/// time, tagged with the SLA class of the tenant that submitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivingQuery {
    /// The query's template.
    pub template: TemplateId,
    /// When it arrives (monotonically non-decreasing across the stream).
    pub arrival: Millis,
    /// The submitting tenant's SLA class ([`TenantId::DEFAULT`] for
    /// single-class streams).
    pub class: TenantId,
}

impl ArrivingQuery {
    /// An arrival of the default class.
    pub fn new(template: TemplateId, arrival: Millis) -> Self {
        ArrivingQuery {
            template,
            arrival,
            class: TenantId::DEFAULT,
        }
    }

    /// An arrival tagged with an SLA class.
    pub fn of_class(template: TemplateId, arrival: Millis, class: TenantId) -> Self {
        ArrivingQuery {
            template,
            arrival,
            class,
        }
    }
}

/// The open (most recently provisioned, still accepting work) VM as the
/// online planner sees it: the paper's Figure 8 initial vertex. Shared
/// vocabulary between the cluster that reports it and the scheduler that
/// seeds its search with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenVmView {
    /// The VM's type.
    pub vm_type: crate::vm::VmTypeId,
    /// Templates of queries currently committed (executing) on it.
    pub running: Vec<TemplateId>,
    /// How long a newly placed query would wait behind committed work.
    pub backlog: Millis,
}

/// Nearest-rank percentile of a set of durations. An empty slice yields
/// zero; `sorted` must be ascending.
///
/// **Contract:** `p` is a percentile in `(0, 100]`. Out-of-domain values
/// are clamped, never trusted as index arithmetic: `p ≤ 0` yields the
/// minimum, `p > 100` yields the maximum, and `NaN` is treated as the
/// 100th percentile (the conservative answer for a latency population).
/// In-domain callers are unaffected by the validation (bit-identical
/// results).
pub fn percentile_sorted(sorted: &[Millis], p: f64) -> Millis {
    if sorted.is_empty() {
        return Millis::ZERO;
    }
    sorted[PercentileDigest::nearest_rank(p, sorted.len() as u64) as usize - 1]
}

/// Order statistics of a latency population.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Population size.
    pub count: u64,
    /// Median.
    pub p50: Millis,
    /// 95th percentile.
    pub p95: Millis,
    /// 99th percentile.
    pub p99: Millis,
    /// Maximum.
    pub max: Millis,
    /// Arithmetic mean.
    pub mean: Millis,
}

impl LatencySummary {
    /// Summarizes a population (need not be sorted; empty is all-zero).
    pub fn of(latencies: &[Millis]) -> Self {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let sum: Millis = sorted.iter().copied().sum();
        LatencySummary {
            count: sorted.len() as u64,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
            max: *sorted.last().expect("non-empty"),
            mean: sum / sorted.len() as u64,
        }
    }
}

/// An incrementally maintained latency population with exact order
/// statistics.
///
/// [`LatencySummary::of`] re-sorts its whole input, so snapshotting a
/// metrics collector every `k` arrivals over an `n`-query stream costs
/// `O(n²/k · log n)` — quadratic in the stream. The histogram instead
/// keeps counts keyed by the (integer-millisecond) latency value in a
/// `BTreeMap`: pushes are `O(log d)` and summaries `O(d)`, where `d` is
/// the number of *distinct* values — bounded by the value range, not the
/// stream length. Percentiles are nearest-rank over the counts, **bit-
/// identical** to sorting the full population (asserted by tests).
///
/// An optional resolution coarsens keys to fixed-width buckets (values
/// round down to a multiple of the resolution), trading exactness for a
/// hard bound on `d`; the default resolution of 1 ms is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Count per (quantized) latency value, ascending.
    counts: std::collections::BTreeMap<Millis, u64>,
    /// Bucket width; 1 ms keeps exact values.
    resolution: Millis,
    count: u64,
    sum: Millis,
    max: Millis,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty, exact (1 ms resolution) histogram.
    pub fn new() -> Self {
        LatencyHistogram::with_resolution(Millis::from_millis(1))
    }

    /// An empty histogram whose keys round down to multiples of
    /// `resolution` (must be non-zero).
    pub(crate) fn with_resolution(resolution: Millis) -> Self {
        assert!(!resolution.is_zero(), "histogram resolution must be > 0");
        LatencyHistogram {
            counts: std::collections::BTreeMap::new(),
            resolution,
            count: 0,
            sum: Millis::ZERO,
            max: Millis::ZERO,
        }
    }

    /// Records one observation.
    pub fn push(&mut self, latency: Millis) {
        let r = self.resolution.as_millis();
        let key = Millis::from_millis(latency.as_millis() / r * r);
        *self.counts.entry(key).or_insert(0) += 1;
        self.count += 1;
        self.sum += key;
        self.max = self.max.max(key);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile — identical to [`percentile_sorted`] over
    /// the full population, including its clamping contract: `p` is
    /// interpreted in `(0, 100]`; `p ≤ 0` yields the minimum, `p > 100`
    /// yields the maximum, NaN yields the maximum, and an empty histogram
    /// yields zero.
    pub fn percentile(&self, p: f64) -> Millis {
        if self.count == 0 {
            return Millis::ZERO;
        }
        let k = PercentileDigest::nearest_rank(p, self.count);
        let mut seen = 0u64;
        for (&value, &n) in &self.counts {
            seen += n;
            if seen >= k {
                return value;
            }
        }
        self.max
    }

    /// The ascending `(value, count)` buckets — what an external
    /// exposition format (e.g. `wisedb-obs`'s Prometheus-style renderer)
    /// needs to re-serialize the distribution.
    pub fn buckets(&self) -> impl Iterator<Item = (Millis, u64)> + '_ {
        self.counts.iter().map(|(&value, &n)| (value, n))
    }

    /// Sum of all (quantized) observations.
    pub fn sum(&self) -> Millis {
        self.sum
    }

    /// The same order statistics [`LatencySummary::of`] would compute from
    /// the full population, without materializing it.
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            count: self.count,
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: self.max,
            mean: self.sum / self.count,
        }
    }
}

/// A point-in-virtual-time health report of a streaming workload service.
///
/// Latency fields measure *SLA latency* (completion − arrival); queueing
/// fields measure time spent waiting before execution started. Decision
/// latency is scheduler wall-clock time per arrival (real seconds, not
/// virtual time) — the Figure 19 metric, live.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Virtual time of the snapshot.
    pub at: Millis,
    /// Arrivals admitted so far.
    pub admitted: u64,
    /// Arrivals rejected by admission control.
    pub rejected: u64,
    /// Queries that finished executing.
    pub completed: u64,
    /// Admitted queries not yet finished.
    pub in_flight: u64,
    /// SLA latency (completion − arrival) order statistics over completions.
    pub latency: LatencySummary,
    /// Queueing delay (start − arrival) order statistics over completions.
    pub queueing: LatencySummary,
    /// Completed queries whose SLA latency exceeded the goal's per-query
    /// bound (see [`PerformanceGoal::per_query_bound`]).
    pub sla_violations: u64,
    /// `sla_violations / completed` (zero when nothing completed).
    pub violation_rate: f64,
    /// Infrastructure money billed so far (start-up fees + rental).
    pub billed: Money,
    /// SLA penalty accrued by completions so far.
    pub penalty: Money,
    /// `(billed + penalty) / virtual hours elapsed` (zero at t=0).
    pub dollars_per_hour: f64,
    /// VMs provisioned and not yet released.
    pub vms_in_flight: u64,
    /// VMs ever provisioned.
    pub vms_provisioned: u64,
    /// Mean scheduler wall-clock overhead per arrival, in (real) seconds.
    pub mean_decision_secs: f64,
    /// 95th-percentile scheduler overhead per arrival, in (real) seconds.
    pub p95_decision_secs: f64,
    /// Per-SLA-class metrics, indexed by [`TenantId`]. A single-class
    /// service reports one row whose numbers mirror the fleet-wide fields;
    /// multi-tenant services report one row per class, and the rows sum to
    /// the fleet totals (asserted by tests).
    pub classes: Vec<ClassMetrics>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot at virtual time zero.
    pub fn empty() -> Self {
        MetricsSnapshot {
            at: Millis::ZERO,
            admitted: 0,
            rejected: 0,
            completed: 0,
            in_flight: 0,
            latency: LatencySummary::default(),
            queueing: LatencySummary::default(),
            sla_violations: 0,
            violation_rate: 0.0,
            billed: Money::ZERO,
            penalty: Money::ZERO,
            dollars_per_hour: 0.0,
            vms_in_flight: 0,
            vms_provisioned: 0,
            mean_decision_secs: 0.0,
            p95_decision_secs: 0.0,
            classes: Vec::new(),
        }
    }

    /// The metrics row of one SLA class, if the snapshot carries it.
    pub fn class(&self, class: TenantId) -> Option<&ClassMetrics> {
        self.classes.get(class.index())
    }

    /// Total cost rate and absolutes folded into one money figure.
    pub fn total_cost(&self) -> Money {
        self.billed + self.penalty
    }
}

impl PerformanceGoal {
    /// The latency bound a *single* query of `template` is held to when
    /// counting SLA violations in live metrics.
    ///
    /// Per-query and max-latency goals have exact per-query bounds. The
    /// aggregate goals have no per-query semantics, so the natural proxy is
    /// used: the mean target for average-latency goals and the percentile
    /// deadline for percentile goals (where a violation rate above
    /// `100 − percent`% — not any single violation — means the goal is
    /// missed).
    pub fn per_query_bound(&self, template: TemplateId) -> Millis {
        match self {
            PerformanceGoal::PerQuery { deadlines, .. } => deadlines
                .get(template.index())
                .copied()
                .unwrap_or(Millis::ZERO),
            PerformanceGoal::MaxLatency { deadline, .. } => *deadline,
            PerformanceGoal::AverageLatency { target, .. } => *target,
            PerformanceGoal::Percentile { deadline, .. } => *deadline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::PenaltyRate;

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<Millis> = (1..=100).map(Millis::from_secs).collect();
        assert_eq!(percentile_sorted(&xs, 50.0), Millis::from_secs(50));
        assert_eq!(percentile_sorted(&xs, 95.0), Millis::from_secs(95));
        assert_eq!(percentile_sorted(&xs, 99.0), Millis::from_secs(99));
        assert_eq!(percentile_sorted(&xs, 100.0), Millis::from_secs(100));
        assert_eq!(percentile_sorted(&[], 50.0), Millis::ZERO);
        // A one-element population answers every percentile with itself.
        assert_eq!(
            percentile_sorted(&[Millis::from_secs(7)], 1.0),
            Millis::from_secs(7)
        );
    }

    #[test]
    fn percentile_out_of_domain_values_are_clamped() {
        let xs: Vec<Millis> = (1..=100).map(Millis::from_secs).collect();
        let mut hist = LatencyHistogram::new();
        for &x in &xs {
            hist.push(x);
        }
        // NaN: conservative maximum, never a miscomputed index.
        assert_eq!(percentile_sorted(&xs, f64::NAN), Millis::from_secs(100));
        assert_eq!(hist.percentile(f64::NAN), Millis::from_secs(100));
        // p ≤ 0: clamped to rank 1 (the minimum).
        for p in [0.0, -4.2, f64::NEG_INFINITY] {
            assert_eq!(percentile_sorted(&xs, p), Millis::from_secs(1), "p={p}");
            assert_eq!(hist.percentile(p), Millis::from_secs(1), "p={p}");
        }
        // p > 100 (including 100 + ε and infinity): the maximum.
        for p in [100.0 + f64::EPSILON * 200.0, 1e300, f64::INFINITY] {
            assert_eq!(percentile_sorted(&xs, p), Millis::from_secs(100), "p={p}");
            assert_eq!(hist.percentile(p), Millis::from_secs(100), "p={p}");
        }
        // A single-sample population answers every (even out-of-domain)
        // percentile with its one value.
        let one = [Millis::from_secs(7)];
        let mut one_hist = LatencyHistogram::new();
        one_hist.push(Millis::from_secs(7));
        for p in [f64::NAN, -1.0, 0.0, 50.0, 100.0, 101.0] {
            assert_eq!(percentile_sorted(&one, p), Millis::from_secs(7), "p={p}");
            assert_eq!(one_hist.percentile(p), Millis::from_secs(7), "p={p}");
        }
        // The empty population still yields zero whatever p is.
        assert_eq!(percentile_sorted(&[], f64::NAN), Millis::ZERO);
        assert_eq!(LatencyHistogram::new().percentile(f64::NAN), Millis::ZERO);
    }

    #[test]
    fn summary_of_uniform_population() {
        let xs: Vec<Millis> = (1..=100).map(Millis::from_secs).collect();
        let s = LatencySummary::of(&xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, Millis::from_secs(50));
        assert_eq!(s.p95, Millis::from_secs(95));
        assert_eq!(s.max, Millis::from_secs(100));
        assert_eq!(s.mean, Millis::from_millis(50_500));
        assert_eq!(LatencySummary::of(&[]), LatencySummary::default());
    }

    #[test]
    fn per_query_bound_matches_goal_semantics() {
        let rate = PenaltyRate::CENT_PER_SECOND;
        let per_query = PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate,
        };
        assert_eq!(
            per_query.per_query_bound(TemplateId(1)),
            Millis::from_mins(1)
        );
        let max = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(5),
            rate,
        };
        assert_eq!(max.per_query_bound(TemplateId(0)), Millis::from_mins(5));
        let avg = PerformanceGoal::AverageLatency {
            target: Millis::from_mins(2),
            rate,
        };
        assert_eq!(avg.per_query_bound(TemplateId(9)), Millis::from_mins(2));
        let pct = PerformanceGoal::Percentile {
            percent: 90.0,
            deadline: Millis::from_mins(4),
            rate,
        };
        assert_eq!(pct.per_query_bound(TemplateId(0)), Millis::from_mins(4));
    }

    #[test]
    fn histogram_matches_naive_sort_exactly() {
        // Adversarial population: duplicates, clusters, a long tail, and
        // insertion order far from sorted.
        let mut values = Vec::new();
        let mut x: u64 = 9_876_543;
        for i in 0..2_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = match i % 4 {
                0 => x % 50,             // dense duplicates
                1 => 1_000 + x % 10,     // tight cluster
                2 => x % 100_000,        // broad spread
                _ => 10_000_000 + x % 3, // far tail
            };
            values.push(Millis::from_millis(v));
        }
        let mut hist = LatencyHistogram::new();
        let mut naive = LatencySummary::default();
        for (i, &v) in values.iter().enumerate() {
            hist.push(v);
            // Interim snapshots must agree with the naive full sort at
            // every prefix, not just the end (checked sparsely for speed).
            if i % 257 == 0 || i + 1 == values.len() {
                naive = LatencySummary::of(&values[..=i]);
                assert_eq!(hist.summary(), naive, "prefix {}", i + 1);
            }
        }
        // And every percentile, not just the summary's three.
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [1.0, 10.0, 25.0, 33.3, 66.7, 90.0, 99.9, 100.0] {
            assert_eq!(hist.percentile(p), percentile_sorted(&sorted, p), "p{p}");
        }
        assert_eq!(hist.count(), naive.count);
    }

    #[test]
    fn histogram_resolution_quantizes_keys() {
        let mut hist = LatencyHistogram::with_resolution(Millis::from_millis(100));
        hist.push(Millis::from_millis(149)); // → 100
        hist.push(Millis::from_millis(150)); // → 100
        hist.push(Millis::from_millis(250)); // → 200
        let s = hist.summary();
        assert_eq!(s.count, 3);
        assert_eq!(s.p50, Millis::from_millis(100));
        assert_eq!(s.max, Millis::from_millis(200));
    }

    #[test]
    fn arriving_query_constructors_tag_classes() {
        use crate::tenant::TenantId;
        let fresh = ArrivingQuery::new(TemplateId(1), Millis::from_secs(3));
        assert_eq!(fresh.class, TenantId::DEFAULT);
        let gold = ArrivingQuery::of_class(TemplateId(1), Millis::from_secs(3), TenantId(2));
        assert_eq!(gold.class, TenantId(2));
        assert_eq!(gold.template, fresh.template);
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut s = MetricsSnapshot::empty();
        s.at = Millis::from_secs(10);
        s.admitted = 5;
        s.billed = Money::from_dollars(1.25);
        let json = serde_json::to_string(&s).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        assert!(back
            .total_cost()
            .approx_eq(Money::from_dollars(1.25), 1e-12));
    }
}
