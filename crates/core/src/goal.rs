//! Performance goals (SLAs) and their penalty semantics.
//!
//! WiSeDB supports four latency-oriented goal classes (§2):
//!
//! 1. **Per-query deadline** — each template has its own latency upper bound.
//! 2. **Max latency** — one upper bound on every query's latency.
//! 3. **Average latency** — an upper bound on the workload's mean latency.
//! 4. **Percentile** — at least `p`% of queries must finish within a bound.
//!
//! Penalties follow the violation-period model of §3: a fixed rate is charged
//! per unit of time during which the goal was not met. Each goal also knows
//! whether it is *monotonically increasing* (adding a query never lowers the
//! penalty — enables the admissible A* heuristic of Eq. 3) and whether it is
//! *linearly shiftable* (delaying all queries by `n` equals tightening the
//! goal by `n` — enables the online Shift optimization of §6.3.1).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::{CoreError, CoreResult};
use crate::money::{Money, PenaltyRate};
use crate::schedule::QueryLatency;
use crate::spec::WorkloadSpec;
use crate::template::TemplateId;
use crate::time::Millis;

/// Which of the four goal classes a goal belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GoalKind {
    /// Per-template deadlines.
    PerQuery,
    /// One deadline for every query.
    MaxLatency,
    /// Bound on the workload's mean latency.
    AverageLatency,
    /// `percent`% of queries within a deadline.
    Percentile,
}

impl GoalKind {
    /// All four kinds, in the order the paper's figures list them.
    pub const ALL: [GoalKind; 4] = [
        GoalKind::PerQuery,
        GoalKind::AverageLatency,
        GoalKind::MaxLatency,
        GoalKind::Percentile,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            GoalKind::PerQuery => "PerQuery",
            GoalKind::MaxLatency => "Max",
            GoalKind::AverageLatency => "Average",
            GoalKind::Percentile => "Percent",
        }
    }
}

/// An application-defined performance goal with its penalty rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PerformanceGoal {
    /// Queries of template `i` must finish within `deadlines[i]`.
    PerQuery {
        /// Deadline per template, indexed by [`TemplateId`].
        deadlines: Vec<Millis>,
        /// Charge per unit of violation time.
        rate: PenaltyRate,
    },
    /// No query may exceed `deadline`.
    MaxLatency {
        /// Workload-wide latency bound.
        deadline: Millis,
        /// Charge per unit of violation time.
        rate: PenaltyRate,
    },
    /// The workload's mean latency must not exceed `target`.
    AverageLatency {
        /// Mean-latency bound.
        target: Millis,
        /// Charge per unit the mean exceeds the bound.
        rate: PenaltyRate,
    },
    /// At least `percent`% of queries must finish within `deadline`.
    Percentile {
        /// Required fraction, in (0, 100].
        percent: f64,
        /// Latency bound for that fraction.
        deadline: Millis,
        /// Charge per unit of violation time.
        rate: PenaltyRate,
    },
}

impl PerformanceGoal {
    /// The goal's class.
    pub fn kind(&self) -> GoalKind {
        match self {
            PerformanceGoal::PerQuery { .. } => GoalKind::PerQuery,
            PerformanceGoal::MaxLatency { .. } => GoalKind::MaxLatency,
            PerformanceGoal::AverageLatency { .. } => GoalKind::AverageLatency,
            PerformanceGoal::Percentile { .. } => GoalKind::Percentile,
        }
    }

    /// Builds the paper's default goal of the given kind for `spec` (§7.1):
    /// per-query deadlines of 3x the template latency; max/average/percentile
    /// deadlines of 2.5x the longest/mean template latency; 90th percentile;
    /// one cent per second of violation.
    pub fn paper_default(kind: GoalKind, spec: &WorkloadSpec) -> CoreResult<Self> {
        let rate = PenaltyRate::CENT_PER_SECOND;
        let expected: Vec<Millis> = spec
            .templates()
            .iter()
            .map(|t| {
                t.latencies
                    .first()
                    .copied()
                    .flatten()
                    .or_else(|| t.min_latency())
                    .unwrap_or(Millis::ZERO)
            })
            .collect();
        if expected.is_empty() {
            return Err(CoreError::NoTemplates);
        }
        let longest = expected.iter().copied().max().unwrap_or(Millis::ZERO);
        let mean = expected.iter().copied().sum::<Millis>() / expected.len() as u64;
        Ok(match kind {
            GoalKind::PerQuery => PerformanceGoal::PerQuery {
                deadlines: expected.iter().map(|l| l.mul_f64(3.0)).collect(),
                rate,
            },
            GoalKind::MaxLatency => PerformanceGoal::MaxLatency {
                deadline: longest.mul_f64(2.5),
                rate,
            },
            GoalKind::AverageLatency => PerformanceGoal::AverageLatency {
                target: mean.mul_f64(2.5),
                rate,
            },
            GoalKind::Percentile => PerformanceGoal::Percentile {
                percent: 90.0,
                deadline: mean.mul_f64(2.5),
                rate,
            },
        })
    }

    /// Validates the goal against a specification.
    pub fn validate_against(&self, spec: &WorkloadSpec) -> CoreResult<()> {
        match self {
            PerformanceGoal::PerQuery { deadlines, .. }
                if deadlines.len() != spec.num_templates() =>
            {
                return Err(CoreError::DeadlineArityMismatch {
                    got: deadlines.len(),
                    expected: spec.num_templates(),
                });
            }
            PerformanceGoal::Percentile { percent, .. }
                if !(*percent > 0.0 && *percent <= 100.0) =>
            {
                return Err(CoreError::InvalidPercentile { percent: *percent });
            }
            _ => {}
        }
        Ok(())
    }

    /// `true` iff the penalty never decreases when a query is appended to
    /// the most recent VM (§4.3). Holds for per-query and max-latency goals;
    /// fails for averages (a short query can lower the mean) and percentiles
    /// (an on-time query can push the percentile below the deadline).
    pub fn is_monotone(&self) -> bool {
        matches!(
            self,
            PerformanceGoal::PerQuery { .. } | PerformanceGoal::MaxLatency { .. }
        )
    }

    /// `true` iff scheduling after a delay of `n` equals scheduling
    /// immediately under the goal tightened by `n` (§6.3.1). Deadline-style
    /// goals qualify; mean-based goals do not tighten uniformly per query.
    pub fn is_linearly_shiftable(&self) -> bool {
        matches!(
            self,
            PerformanceGoal::PerQuery { .. } | PerformanceGoal::MaxLatency { .. }
        )
    }

    /// The penalty rate in force.
    pub fn rate(&self) -> PenaltyRate {
        match self {
            PerformanceGoal::PerQuery { rate, .. }
            | PerformanceGoal::MaxLatency { rate, .. }
            | PerformanceGoal::AverageLatency { rate, .. }
            | PerformanceGoal::Percentile { rate, .. } => *rate,
        }
    }

    /// For deadline goals (per-query, max latency): the penalty one query
    /// of `template` completing at `completion` incurs — final the moment
    /// it is charged, which is what makes those goals monotone. `None` for
    /// goals that price the workload as a whole.
    pub fn deadline_charge(&self, template: TemplateId, completion: Millis) -> Option<Money> {
        let (deadline, rate) = match self {
            PerformanceGoal::PerQuery { deadlines, rate } => (
                deadlines
                    .get(template.index())
                    .copied()
                    .unwrap_or(Millis::ZERO),
                rate,
            ),
            PerformanceGoal::MaxLatency { deadline, rate } => (*deadline, rate),
            _ => return None,
        };
        Some(rate.for_violation(completion.saturating_sub(deadline)))
    }

    /// The penalty `p(R, S)` of a (partial or complete) set of realized
    /// query latencies.
    pub fn penalty(&self, latencies: &[QueryLatency]) -> Money {
        let mut tracker = self.new_tracker();
        for l in latencies {
            tracker.push(self, l.template, l.latency);
        }
        tracker.penalty(self)
    }

    /// Starts an incremental penalty computation (used by the scheduling
    /// graph, where each placement edge carries `p(R, v_s) - p(R, u_s)`).
    pub fn new_tracker(&self) -> PenaltyTracker {
        match self {
            PerformanceGoal::PerQuery { .. } | PerformanceGoal::MaxLatency { .. } => {
                PenaltyTracker::Incremental { total: Money::ZERO }
            }
            PerformanceGoal::AverageLatency { .. } => PenaltyTracker::Average {
                sum_ms: 0,
                count: 0,
            },
            PerformanceGoal::Percentile { .. } => PenaltyTracker::Percentile {
                dist: PercentileDigest::new(),
            },
        }
    }

    /// Tightens (p > 0) or loosens (p < 0) the goal by fraction `p` of the
    /// gap between the current constraint and the strictest feasible one,
    /// following §7.3: `new = t + (g - t) * (1 - p)` where `t` is the floor
    /// and `g` the current value. `p = 1` lands exactly on the floor; values
    /// beyond 1 clamp to it.
    pub fn tighten_pct(&self, spec: &WorkloadSpec, p: f64) -> Self {
        fn interpolate(current: Millis, floor: Millis, p: f64) -> Millis {
            if p >= 1.0 {
                return floor;
            }
            let g = current.as_secs_f64();
            let t = floor.as_secs_f64();
            let new = t + (g - t) * (1.0 - p);
            Millis::from_secs_f64(new.max(t))
        }
        match self {
            PerformanceGoal::PerQuery { deadlines, rate } => {
                let floors: Vec<Millis> = spec
                    .templates()
                    .iter()
                    .map(|t| t.min_latency().unwrap_or(Millis::ZERO))
                    .collect();
                PerformanceGoal::PerQuery {
                    deadlines: deadlines
                        .iter()
                        .zip(floors)
                        .map(|(&d, f)| interpolate(d, f, p))
                        .collect(),
                    rate: *rate,
                }
            }
            PerformanceGoal::MaxLatency { deadline, rate } => PerformanceGoal::MaxLatency {
                deadline: interpolate(*deadline, spec.strictest_feasible_deadline(), p),
                rate: *rate,
            },
            PerformanceGoal::AverageLatency { target, rate } => PerformanceGoal::AverageLatency {
                target: interpolate(*target, spec.mean_min_latency(), p),
                rate: *rate,
            },
            PerformanceGoal::Percentile {
                percent,
                deadline,
                rate,
            } => PerformanceGoal::Percentile {
                percent: *percent,
                deadline: interpolate(*deadline, spec.mean_min_latency(), p),
                rate: *rate,
            },
        }
    }

    /// For linearly shiftable goals: the goal as seen by a query that has
    /// already waited `elapsed` before scheduling began. Returns `None` for
    /// goals that are not linearly shiftable.
    pub fn shift(&self, elapsed: Millis) -> Option<Self> {
        match self {
            PerformanceGoal::PerQuery { deadlines, rate } => Some(PerformanceGoal::PerQuery {
                deadlines: deadlines
                    .iter()
                    .map(|d| d.saturating_sub(elapsed))
                    .collect(),
                rate: *rate,
            }),
            PerformanceGoal::MaxLatency { deadline, rate } => Some(PerformanceGoal::MaxLatency {
                deadline: deadline.saturating_sub(elapsed),
                rate: *rate,
            }),
            _ => None,
        }
    }

    /// For goals with per-template deadlines, extends the deadline vector to
    /// cover extra (e.g. "aged") templates appended to the spec.
    pub fn with_extra_deadline(&self, deadline: Millis) -> Self {
        match self {
            PerformanceGoal::PerQuery { deadlines, rate } => {
                let mut deadlines = deadlines.clone();
                deadlines.push(deadline);
                PerformanceGoal::PerQuery {
                    deadlines,
                    rate: *rate,
                }
            }
            other => other.clone(),
        }
    }
}

/// Quantized latency distribution for percentile goals: ascending distinct
/// completion values with their multiplicities, behind a copy-on-write
/// [`Arc`].
///
/// Completion times are sums of template execution times, so schedules at
/// paper scale produce far fewer *distinct* values than completions — the
/// run-length buckets are the "quantized penalty digest" the percentile
/// search keys and prices states with. Cloning is an `Arc` bump; pushing
/// copies only when the buckets are shared. Order statistics live on the
/// borrowed form, [`DigestBuckets`], which the search kernel also builds
/// directly over its own flat storage.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PercentileDigest {
    /// Packed `(latency_ms << 16) | count` buckets, ascending by latency
    /// (one `u64` per bucket keeps the per-state hashing/equality byte
    /// count no larger than the flat sorted vector it replaced).
    buckets: Arc<Vec<u64>>,
    /// Total completions (sum of all counts).
    total: u64,
}

/// Bits of each packed bucket holding the multiplicity.
const COUNT_BITS: u32 = 16;
/// Mask extracting the multiplicity from a packed bucket.
const COUNT_MASK: u64 = (1 << COUNT_BITS) - 1;

/// Where a completion of `ms` lands in an ascending packed bucket list:
/// the position, and whether the bucket there absorbs it (same latency,
/// multiplicity not yet saturated) instead of a new bucket being inserted.
fn insertion_point(buckets: &[u64], ms: u64) -> (usize, bool) {
    debug_assert!(ms < (1 << (64 - COUNT_BITS)), "latency {ms}ms overflows");
    // Packed buckets order by latency first, so the insertion point for
    // `ms` is right after every bucket of a smaller latency.
    let pos = buckets.partition_point(|&b| (b >> COUNT_BITS) < ms);
    let absorbs = matches!(
        buckets.get(pos),
        Some(&b) if (b >> COUNT_BITS) == ms && (b & COUNT_MASK) < COUNT_MASK
    );
    (pos, absorbs)
}

impl PercentileDigest {
    /// An empty distribution.
    pub fn new() -> Self {
        PercentileDigest::default()
    }

    /// Number of completions recorded (with multiplicity).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no completion has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The borrowed form every order statistic is computed on.
    pub fn as_buckets(&self) -> DigestBuckets<'_> {
        DigestBuckets {
            packed: &self.buckets,
            total: self.total,
        }
    }

    /// The `(latency_ms, count)` buckets, ascending by latency. Buckets of
    /// equal latency may repeat when a multiplicity overflows the packed
    /// count field; cumulative-count walks handle that transparently.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.as_buckets().buckets()
    }

    /// Records one completion. Copy-on-write: only materializes a copy of
    /// the bucket vector when it is shared with another digest.
    pub fn push(&mut self, ms: u64) {
        let buckets = Arc::make_mut(&mut self.buckets);
        match insertion_point(buckets, ms) {
            (pos, true) => buckets[pos] += 1,
            (pos, false) => buckets.insert(pos, (ms << COUNT_BITS) | 1),
        }
        self.total += 1;
    }

    /// The `k`-th smallest recorded latency; see
    /// [`DigestBuckets::value_at_rank`].
    pub fn value_at_rank(&self, k: u64) -> u64 {
        self.as_buckets().value_at_rank(k)
    }

    /// The `k`-th smallest of this distribution merged with a second
    /// ascending bucket list; see [`DigestBuckets::value_at_rank_merged`].
    pub fn value_at_rank_merged(&self, k: u64, extra: &[(u64, u32)]) -> u64 {
        self.as_buckets().value_at_rank_merged(k, extra)
    }

    /// Nearest-rank percentile index: `k = ⌈percent/100 · n⌉` clamped to
    /// `1..=n` (`n > 0`) — the rank whose value is the latency within which
    /// `percent`% of `n` completions finished. The one nearest-rank rule:
    /// the penalty tracker, the search heuristics, the latency summaries
    /// ([`percentile_sorted`](crate::percentile_sorted),
    /// [`LatencyHistogram`](crate::LatencyHistogram)) and the runtime's
    /// decision-latency p95 all call it, so none can disagree on which
    /// order statistic a percentile names.
    ///
    /// **Contract:** `percent` is interpreted in `(0, 100]`; `percent ≤ 0`
    /// clamps to rank 1 (the minimum), `percent > 100` clamps to rank `n`
    /// (the maximum), and a NaN `percent` — which would otherwise flow
    /// through the index arithmetic and silently select the minimum — is
    /// answered conservatively with the maximum. Goal validation admits
    /// only `(0, 100]`, so every goal's rank is unaffected by the clamps.
    pub fn nearest_rank(percent: f64, n: u64) -> u64 {
        if percent.is_nan() || percent > 100.0 {
            return n;
        }
        // `percent ≤ 0` makes k ≤ 0; the saturating float→int cast plus
        // the clamp pins it to rank 1.
        (((percent / 100.0) * n as f64).ceil() as u64).clamp(1, n)
    }
}

/// A borrowed [`PercentileDigest`]: the packed bucket list plus its total.
/// The search kernel keeps one such list per interned vertex in flat
/// per-search storage ([`DigestBuckets::packed`] out,
/// [`DigestBuckets::from_packed`] back in), so pricing and bounding a
/// percentile vertex never allocates a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestBuckets<'a> {
    packed: &'a [u64],
    total: u64,
}

impl<'a> DigestBuckets<'a> {
    /// Rebuilds a view over words previously obtained from
    /// [`DigestBuckets::packed`] (or written by
    /// [`DigestBuckets::push_into`]); `total` is their completion count.
    pub fn from_packed(packed: &'a [u64], total: u64) -> Self {
        DigestBuckets { packed, total }
    }

    /// The packed buckets, ascending by latency — opaque words whose only
    /// contract is the round trip through [`DigestBuckets::from_packed`]
    /// and that equal multisets built by the same pushes pack equally.
    pub fn packed(&self) -> &'a [u64] {
        self.packed
    }

    /// Number of completions recorded (with multiplicity).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether no completion has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `(latency_ms, count)` buckets, ascending by latency.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u32)> + 'a {
        self.packed
            .iter()
            .map(|&b| (b >> COUNT_BITS, (b & COUNT_MASK) as u32))
    }

    /// Writes this list plus one completion of `ms` into `out` (cleared
    /// first) — exactly the buckets [`PercentileDigest::push`] would leave.
    pub fn push_into(&self, ms: u64, out: &mut Vec<u64>) {
        out.clear();
        let (pos, absorbs) = insertion_point(self.packed, ms);
        out.extend_from_slice(&self.packed[..pos]);
        if absorbs {
            out.push(self.packed[pos] + 1);
            out.extend_from_slice(&self.packed[pos + 1..]);
        } else {
            out.push((ms << COUNT_BITS) | 1);
            out.extend_from_slice(&self.packed[pos..]);
        }
    }

    /// The `k`-th smallest recorded latency (1-based, `k <= len()`).
    /// Walks the cumulative counts from whichever end is nearer to `k`, so
    /// the high percentiles SLAs ask about (and the tracker prices on
    /// every placement edge) touch only the top few buckets.
    pub fn value_at_rank(&self, k: u64) -> u64 {
        debug_assert!(k >= 1 && k <= self.total, "rank {k} of {}", self.total);
        if k > self.total / 2 {
            // Rank from the top: the k-th smallest has `total - k` values
            // strictly above it.
            let mut above = 0u64;
            for &b in self.packed.iter().rev() {
                above += b & COUNT_MASK;
                if above > self.total - k {
                    return b >> COUNT_BITS;
                }
            }
        } else {
            let mut seen = 0u64;
            for &b in self.packed.iter() {
                seen += b & COUNT_MASK;
                if seen >= k {
                    return b >> COUNT_BITS;
                }
            }
        }
        self.packed.last().map(|&b| b >> COUNT_BITS).unwrap_or(0)
    }

    /// The `k`-th smallest of this distribution with one more completion
    /// of `ms` in it (`k <= len() + 1`) — what [`Self::value_at_rank`]
    /// returns after a push, without the push. Inserting `ms` leaves the
    /// ranks below it alone and shifts the ranks above it up by one, so
    /// the answer is `ms` clamped between the old ranks `k - 1` and `k`.
    pub(crate) fn value_at_rank_with(&self, k: u64, ms: u64) -> u64 {
        debug_assert!(
            k >= 1 && k <= self.total + 1,
            "rank {k} of {}+1",
            self.total
        );
        let below = if k > 1 { self.value_at_rank(k - 1) } else { 0 };
        let at = if k <= self.total {
            ms.min(self.value_at_rank(k))
        } else {
            ms
        };
        below.max(at)
    }

    /// The `k`-th smallest of this distribution merged with a second
    /// ascending bucket list — the percentile heuristic's order-statistic
    /// lower bound, computed in `O(buckets + extra.len())` without
    /// materializing the union.
    pub fn value_at_rank_merged(&self, k: u64, extra: &[(u64, u32)]) -> u64 {
        debug_assert!(extra.windows(2).all(|w| w[0].0 < w[1].0));
        let a = self.packed;
        let (mut i, mut j) = (0usize, 0usize);
        let mut seen = 0u64;
        let mut last = 0u64;
        while i < a.len() || j < extra.len() {
            let (v, count) =
                if j >= extra.len() || (i < a.len() && (a[i] >> COUNT_BITS) <= extra[j].0) {
                    let b = a[i];
                    i += 1;
                    (b >> COUNT_BITS, b & COUNT_MASK)
                } else {
                    let x = extra[j];
                    j += 1;
                    (x.0, x.1 as u64)
                };
            seen += count;
            last = v;
            if seen >= k {
                return v;
            }
        }
        debug_assert!(false, "rank {k} exceeds merged size {seen}");
        last
    }
}

/// Incremental penalty state. Pushing a completion returns the penalty
/// *delta*, so graph edges get `p(R, v_s) - p(R, u_s)` directly.
#[derive(Debug, Clone, PartialEq)]
pub enum PenaltyTracker {
    /// Per-query and max-latency goals: each placement's violation is final
    /// when it happens, so a running total suffices.
    Incremental {
        /// Penalty accumulated so far.
        total: Money,
    },
    /// Average-latency goals need the latency sum and count.
    Average {
        /// Sum of completion latencies, in milliseconds.
        sum_ms: u128,
        /// Number of completions.
        count: u64,
    },
    /// Percentile goals need the whole latency distribution, kept as the
    /// quantized [`PercentileDigest`]: run-length buckets behind a
    /// copy-on-write [`Arc`], so cloning a tracker — which every applied
    /// decision does — shares the distribution instead of copying it, and
    /// order statistics never re-sort.
    Percentile {
        /// The bucketed completion-latency distribution.
        dist: PercentileDigest,
    },
}

impl PenaltyTracker {
    /// Records a completion and returns the resulting penalty delta
    /// (which may be negative for non-monotone goals).
    pub fn push(
        &mut self,
        goal: &PerformanceGoal,
        template: TemplateId,
        completion: Millis,
    ) -> Money {
        let delta = self.delta(goal, template, completion);
        match self {
            PenaltyTracker::Incremental { total } => *total += delta,
            PenaltyTracker::Average { sum_ms, count } => {
                *sum_ms += completion.as_millis() as u128;
                *count += 1;
            }
            // Copy-on-write inside the digest: only materializes a copy
            // when the buckets are shared with another tracker.
            PenaltyTracker::Percentile { dist } => dist.push(completion.as_millis()),
        }
        delta
    }

    /// The delta [`PenaltyTracker::push`] would return, without recording
    /// the completion: pricing a placement that may never be taken (a
    /// `cost-of-X` feature, a guard's candidate edge) copies nothing.
    pub fn delta(&self, goal: &PerformanceGoal, template: TemplateId, completion: Millis) -> Money {
        let after = match (self, goal) {
            (PenaltyTracker::Incremental { .. }, _) => {
                return goal
                    .deadline_charge(template, completion)
                    .expect("penalty tracker used with a goal of a different kind");
            }
            (PenaltyTracker::Average { sum_ms, count }, _) => PenaltyDigest::Average {
                sum_ms: *sum_ms + completion.as_millis() as u128,
                count: *count + 1,
            }
            .penalty(goal),
            (
                PenaltyTracker::Percentile { dist },
                PerformanceGoal::Percentile {
                    percent,
                    deadline,
                    rate,
                },
            ) => {
                let k = PercentileDigest::nearest_rank(*percent, dist.len() + 1);
                let at_percentile = dist
                    .as_buckets()
                    .value_at_rank_with(k, completion.as_millis());
                rate.for_violation(Millis::from_millis(at_percentile).saturating_sub(*deadline))
            }
            _ => panic!("penalty tracker used with a goal of a different kind"),
        };
        after - self.penalty(goal)
    }

    /// The penalty of everything pushed so far.
    pub fn penalty(&self, goal: &PerformanceGoal) -> Money {
        match self {
            PenaltyTracker::Incremental { total } => *total,
            _ => self.digest().penalty(goal),
        }
    }

    /// A borrowed digest of exactly the state that can influence *future*
    /// penalty deltas. A* uses it to deduplicate partial schedules: two
    /// vertices whose digests (and remaining work) match are interchangeable
    /// cost-wise.
    pub fn digest(&self) -> PenaltyDigest<'_> {
        match self {
            // Per-query/max penalties are already folded into path cost and
            // future deltas depend only on future completions.
            PenaltyTracker::Incremental { .. } => PenaltyDigest::None,
            PenaltyTracker::Average { sum_ms, count } => PenaltyDigest::Average {
                sum_ms: *sum_ms,
                count: *count,
            },
            PenaltyTracker::Percentile { dist } => PenaltyDigest::Percentile(dist.as_buckets()),
        }
    }
}

/// Borrowed summary of penalty-relevant state; see
/// [`PenaltyTracker::digest`]. Two digests match iff no sequence of future
/// completions can tell the trackers apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyDigest<'a> {
    /// Future penalties do not depend on past completions.
    None,
    /// Mean-tracking state.
    Average {
        /// Sum of completion latencies (ms).
        sum_ms: u128,
        /// Number of completions.
        count: u64,
    },
    /// Full latency distribution as quantized run-length buckets.
    Percentile(DigestBuckets<'a>),
}

impl PenaltyDigest<'_> {
    /// The penalty future completions can still move: the whole penalty
    /// of an average or percentile goal, and zero for deadline goals,
    /// whose charges are final (and already in the path cost).
    pub fn penalty(&self, goal: &PerformanceGoal) -> Money {
        match (self, goal) {
            (PenaltyDigest::None, _) => Money::ZERO,
            (
                PenaltyDigest::Average { sum_ms, count },
                PerformanceGoal::AverageLatency { target, rate },
            ) => {
                if *count == 0 {
                    return Money::ZERO;
                }
                let mean = Millis::from_millis((*sum_ms / *count as u128) as u64);
                rate.for_violation(mean.saturating_sub(*target))
            }
            (
                PenaltyDigest::Percentile(dist),
                PerformanceGoal::Percentile {
                    percent,
                    deadline,
                    rate,
                },
            ) => {
                if dist.is_empty() {
                    return Money::ZERO;
                }
                // Nearest-rank percentile: the k-th smallest latency with
                // k = ceil(percent/100 * n) is the latency within which
                // `percent`% of queries finished.
                let n = dist.len();
                let k = PercentileDigest::nearest_rank(*percent, n);
                let at_percentile = Millis::from_millis(dist.value_at_rank(k));
                rate.for_violation(at_percentile.saturating_sub(*deadline))
            }
            _ => panic!("penalty tracker used with a goal of a different kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::VmType;
    use crate::workload::QueryId;

    fn lat(q: u32, t: u32, mins: u64) -> QueryLatency {
        QueryLatency {
            query: QueryId(q),
            template: TemplateId(t),
            latency: Millis::from_mins(mins),
        }
    }

    fn fig3_spec() -> WorkloadSpec {
        WorkloadSpec::single_vm(
            vec![("T1", Millis::from_mins(2)), ("T2", Millis::from_mins(1))],
            VmType::t2_medium(),
        )
        .unwrap()
    }

    /// Figure 3, scenario 2: deadlines T1=3m, T2=1m; schedule latencies
    /// q1(T1)=2m, q2(T2)=3m, q3(T2)=1m, q4(T2)=2m. Violations: q2 by 2m,
    /// q4 by 1m => 180s of violation => $1.80 at 1 cent/s.
    #[test]
    fn per_query_penalty_matches_figure_three() {
        let goal = PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let lats = [lat(0, 0, 2), lat(1, 1, 3), lat(2, 1, 1), lat(3, 1, 2)];
        let p = goal.penalty(&lats);
        assert!(p.approx_eq(Money::from_dollars(1.80), 1e-9));

        // Scenario 1 has no violations.
        let lats = [lat(1, 1, 1), lat(0, 0, 3), lat(2, 1, 1), lat(3, 1, 1)];
        assert_eq!(goal.penalty(&lats), Money::ZERO);
    }

    #[test]
    fn max_latency_penalty_sums_per_query_excess() {
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        // 3m and 4m completions exceed by 1m and 2m => 180s => $1.80.
        let lats = [lat(0, 0, 3), lat(1, 0, 4), lat(2, 1, 1)];
        assert!(goal
            .penalty(&lats)
            .approx_eq(Money::from_dollars(1.80), 1e-9));
    }

    #[test]
    fn average_penalty_uses_mean_excess() {
        let goal = PerformanceGoal::AverageLatency {
            target: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        // Mean of 1m and 5m = 3m: one minute over => $0.60.
        let lats = [lat(0, 0, 1), lat(1, 0, 5)];
        assert!(goal
            .penalty(&lats)
            .approx_eq(Money::from_dollars(0.60), 1e-9));
        // Mean exactly at target: no penalty.
        let lats = [lat(0, 0, 1), lat(1, 0, 3)];
        assert_eq!(goal.penalty(&lats), Money::ZERO);
    }

    #[test]
    fn average_penalty_can_decrease() {
        let goal = PerformanceGoal::AverageLatency {
            target: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let mut tracker = goal.new_tracker();
        let d1 = tracker.push(&goal, TemplateId(0), Millis::from_mins(4));
        assert!(d1 > Money::ZERO);
        // A fast query pulls the mean down: negative delta.
        let d2 = tracker.push(&goal, TemplateId(0), Millis::from_mins(1));
        assert!(d2 < Money::ZERO);
        assert!(!goal.is_monotone());
    }

    #[test]
    fn percentile_penalty_uses_nearest_rank() {
        let goal = PerformanceGoal::Percentile {
            percent: 90.0,
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        // 10 queries, exactly one slow one: the 90th percentile (k=9) is
        // on time, so the slow query rides in the allowed 10%.
        let mut lats: Vec<QueryLatency> = (0..9).map(|i| lat(i, 0, 1)).collect();
        lats.push(lat(9, 0, 60));
        assert_eq!(goal.penalty(&lats), Money::ZERO);

        // Two slow queries: the 90th percentile lands on a slow one.
        lats[8] = lat(8, 0, 12);
        let p = goal.penalty(&lats);
        // k = ceil(0.9 * 10) = 9 => 9th smallest = 12m => 10m over => $6.
        assert!(p.approx_eq(Money::from_dollars(6.0), 1e-9));
    }

    #[test]
    fn percentile_single_query() {
        let goal = PerformanceGoal::Percentile {
            percent: 90.0,
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        // One query: k = ceil(0.9) = 1, so the query itself must meet it.
        assert_eq!(goal.penalty(&[lat(0, 0, 2)]), Money::ZERO);
        assert!(goal.penalty(&[lat(0, 0, 3)]) > Money::ZERO);
    }

    #[test]
    fn monotonicity_and_shiftability_flags() {
        let spec = fig3_spec();
        for kind in GoalKind::ALL {
            let goal = PerformanceGoal::paper_default(kind, &spec).unwrap();
            let expected = matches!(kind, GoalKind::PerQuery | GoalKind::MaxLatency);
            assert_eq!(goal.is_monotone(), expected, "{kind:?}");
            assert_eq!(goal.is_linearly_shiftable(), expected, "{kind:?}");
        }
    }

    #[test]
    fn paper_defaults_match_section_seven() {
        let spec = fig3_spec();
        match PerformanceGoal::paper_default(GoalKind::MaxLatency, &spec).unwrap() {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                assert_eq!(deadline, Millis::from_mins(5)); // 2.5 * 2m
            }
            _ => unreachable!(),
        }
        match PerformanceGoal::paper_default(GoalKind::PerQuery, &spec).unwrap() {
            PerformanceGoal::PerQuery { deadlines, .. } => {
                assert_eq!(deadlines, vec![Millis::from_mins(6), Millis::from_mins(3)]);
            }
            _ => unreachable!(),
        }
        match PerformanceGoal::paper_default(GoalKind::AverageLatency, &spec).unwrap() {
            PerformanceGoal::AverageLatency { target, .. } => {
                // Mean latency 1.5m * 2.5 = 3.75m.
                assert_eq!(target, Millis::from_secs(225));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn tighten_interpolates_toward_floor() {
        let spec = fig3_spec();
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(5),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        // Floor is the slowest template: 2 minutes. Gap = 3 minutes.
        match goal.tighten_pct(&spec, 1.0 / 3.0) {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                assert_eq!(deadline, Millis::from_mins(4));
            }
            _ => unreachable!(),
        }
        // p = 1 hits the floor; beyond clamps.
        match goal.tighten_pct(&spec, 2.0) {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                assert_eq!(deadline, Millis::from_mins(2));
            }
            _ => unreachable!(),
        }
        // Negative p loosens.
        match goal.tighten_pct(&spec, -1.0) {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                assert_eq!(deadline, Millis::from_mins(8));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn shift_subtracts_elapsed_for_deadline_goals() {
        let goal = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(3),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        match goal.shift(Millis::from_mins(1)).unwrap() {
            PerformanceGoal::MaxLatency { deadline, .. } => {
                assert_eq!(deadline, Millis::from_mins(2));
            }
            _ => unreachable!(),
        }
        let avg = PerformanceGoal::AverageLatency {
            target: Millis::from_mins(3),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        assert!(avg.shift(Millis::SECOND).is_none());
    }

    #[test]
    fn validate_against_checks_arity_and_percent() {
        let spec = fig3_spec();
        let bad = PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(1)],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        assert!(matches!(
            bad.validate_against(&spec),
            Err(CoreError::DeadlineArityMismatch { .. })
        ));
        let bad = PerformanceGoal::Percentile {
            percent: 0.0,
            deadline: Millis::from_mins(1),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        assert!(matches!(
            bad.validate_against(&spec),
            Err(CoreError::InvalidPercentile { .. })
        ));
    }

    /// The quantized digest is an exact representation: every order
    /// statistic matches the naive sorted vector, pushed in any order.
    #[test]
    fn percentile_digest_matches_naive_sort() {
        let values = [120u64, 60, 180, 60, 240, 60, 120, 300, 180, 60];
        let mut digest = PercentileDigest::new();
        let mut naive: Vec<u64> = Vec::new();
        for &v in &values {
            digest.push(v);
            naive.push(v);
        }
        naive.sort_unstable();
        assert_eq!(digest.len(), naive.len() as u64);
        for k in 1..=naive.len() {
            assert_eq!(
                digest.value_at_rank(k as u64),
                naive[k - 1],
                "rank {k} of {naive:?}"
            );
        }
        // Buckets are run-length encoded and ascending.
        let buckets: Vec<(u64, u32)> = digest.buckets().collect();
        assert_eq!(
            buckets,
            vec![(60, 4), (120, 2), (180, 2), (240, 1), (300, 1)]
        );
    }

    /// Merged order statistics (digest ∪ extra buckets) match sorting the
    /// materialized union — the contract the search heuristic relies on.
    #[test]
    fn percentile_digest_merged_rank_matches_naive_merge() {
        let mut digest = PercentileDigest::new();
        for v in [90u64, 150, 150, 210, 400] {
            digest.push(v);
        }
        let extra: &[(u64, u32)] = &[(60, 2), (150, 1), (399, 3)];
        let mut naive: Vec<u64> = vec![90, 150, 150, 210, 400, 60, 60, 150, 399, 399, 399];
        naive.sort_unstable();
        for k in 1..=naive.len() {
            assert_eq!(
                digest.value_at_rank_merged(k as u64, extra),
                naive[k - 1],
                "merged rank {k}"
            );
        }
    }

    /// Pushing past the packed 16-bit multiplicity spills into a second
    /// bucket of the same value without corrupting any rank.
    #[test]
    fn percentile_digest_count_overflow_spills() {
        let mut digest = PercentileDigest::new();
        let n = (1u64 << 16) + 10; // 65546 identical completions
        for _ in 0..n {
            digest.push(42);
        }
        digest.push(7);
        assert_eq!(digest.len(), n + 1);
        assert_eq!(digest.value_at_rank(1), 7);
        assert_eq!(digest.value_at_rank(2), 42);
        assert_eq!(digest.value_at_rank(n + 1), 42);
        assert!(digest.buckets().count() >= 3, "overflow spilled a bucket");
    }

    /// The borrowed push writes exactly the buckets the owned push leaves,
    /// including the spill of a saturated multiplicity.
    #[test]
    fn push_into_matches_owned_push() {
        let mut digest = PercentileDigest::new();
        let mut scratch = vec![99u64; 3];
        for v in [120u64, 60, 180, 60, 240, 60, 120, 300, 180, 60, 1, 999] {
            digest.as_buckets().push_into(v, &mut scratch);
            digest.push(v);
            assert_eq!(scratch, digest.as_buckets().packed(), "after {v}");
            let back = DigestBuckets::from_packed(&scratch, digest.len());
            assert_eq!(back, digest.as_buckets());
        }
        let mut saturated = PercentileDigest::new();
        for _ in 0..(1u64 << 16) + 3 {
            saturated.push(42);
        }
        saturated.as_buckets().push_into(42, &mut scratch);
        saturated.push(42);
        assert_eq!(scratch, saturated.as_buckets().packed());
    }

    /// The order statistic with one hypothetical completion equals the
    /// one read back after really pushing it — every rank, with the extra
    /// value below, tied with, between and above the recorded ones.
    #[test]
    fn value_at_rank_with_matches_a_push() {
        let mut digest = PercentileDigest::new();
        for v in [120u64, 60, 180, 60, 240, 60, 120, 300, 180, 60] {
            for extra in [0u64, 59, 60, 61, 120, 179, 240, 300, 301] {
                let mut pushed = digest.clone();
                pushed.push(extra);
                for k in 1..=pushed.len() {
                    assert_eq!(
                        digest.as_buckets().value_at_rank_with(k, extra),
                        pushed.value_at_rank(k),
                        "rank {k} with {extra} on {digest:?}"
                    );
                }
            }
            digest.push(v);
        }
    }

    /// `delta` prices exactly what `push` then charges, and the charge is
    /// still the step between the penalties either side of the push — for
    /// every kind of tracker, including deltas that go negative.
    #[test]
    fn tracker_delta_matches_push() {
        let spec = fig3_spec();
        let rate = PenaltyRate::CENT_PER_SECOND;
        let goals = [
            PerformanceGoal::PerQuery {
                deadlines: vec![Millis::from_mins(3), Millis::from_mins(1)],
                rate,
            },
            PerformanceGoal::MaxLatency {
                deadline: Millis::from_mins(2),
                rate,
            },
            PerformanceGoal::AverageLatency {
                target: Millis::from_mins(2),
                rate,
            },
            PerformanceGoal::Percentile {
                percent: 90.0,
                deadline: Millis::from_mins(2),
                rate,
            },
        ];
        for goal in &goals {
            goal.validate_against(&spec).unwrap();
            let mut tracker = goal.new_tracker();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..200u32 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let template = TemplateId(step % 2);
                let completion = Millis::from_secs(30 * ((x >> 33) % 12));
                let priced = tracker.delta(goal, template, completion);
                let before = tracker.penalty(goal);
                let charged = tracker.push(goal, template, completion);
                assert_eq!(priced, charged, "{goal:?} step {step}");
                let after = tracker.penalty(goal);
                if goal.deadline_charge(template, completion).is_some() {
                    // Deadline charges are final: a running total of them.
                    assert_eq!(after, before + charged, "{goal:?} step {step}");
                } else {
                    assert_eq!(charged, after - before, "{goal:?} step {step}");
                }
            }
        }
    }

    /// Copy-on-write: cloning shares the buckets; pushing into the clone
    /// leaves the original untouched.
    #[test]
    fn percentile_digest_clone_is_cow() {
        let mut a = PercentileDigest::new();
        a.push(100);
        let mut b = a.clone();
        b.push(50);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 2);
        assert_eq!(a.value_at_rank(1), 100);
        assert_eq!(b.value_at_rank(1), 50);
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
    }

    #[test]
    fn tracker_digest_distinguishes_penalty_relevant_state() {
        let avg = PerformanceGoal::AverageLatency {
            target: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let mut t1 = avg.new_tracker();
        let mut t2 = avg.new_tracker();
        t1.push(&avg, TemplateId(0), Millis::from_mins(1));
        t2.push(&avg, TemplateId(0), Millis::from_mins(3));
        assert_ne!(t1.digest(), t2.digest());

        let maxg = PerformanceGoal::MaxLatency {
            deadline: Millis::from_mins(2),
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        let mut t1 = maxg.new_tracker();
        let mut t2 = maxg.new_tracker();
        t1.push(&maxg, TemplateId(0), Millis::from_mins(1));
        t2.push(&maxg, TemplateId(0), Millis::from_mins(50));
        // Past completions never change future max-latency deltas.
        assert_eq!(t1.digest(), t2.digest());
    }

    #[test]
    fn with_extra_deadline_extends_per_query_goals() {
        let goal = PerformanceGoal::PerQuery {
            deadlines: vec![Millis::from_mins(3)],
            rate: PenaltyRate::CENT_PER_SECOND,
        };
        match goal.with_extra_deadline(Millis::from_mins(2)) {
            PerformanceGoal::PerQuery { deadlines, .. } => {
                assert_eq!(deadlines.len(), 2);
                assert_eq!(deadlines[1], Millis::from_mins(2));
            }
            _ => unreachable!(),
        }
    }
}
