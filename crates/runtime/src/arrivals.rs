//! Pluggable arrival processes: the traffic shapes a streaming service
//! must survive.
//!
//! The paper's online experiments (§7.4) draw inter-arrival gaps from fixed
//! or normal distributions. A production advisor sees richer dynamics, so
//! the runtime models four families:
//!
//! * [`PoissonProcess`] — memoryless arrivals at a constant rate, the
//!   queueing-theory baseline.
//! * [`OnOffProcess`] — bursty traffic: trains of back-to-back queries
//!   separated by idle periods (an ON-OFF / interrupted-Poisson process).
//! * [`DiurnalProcess`] — a sinusoidally rate-modulated Poisson process,
//!   the day/night load curve.
//! * [`DriftProcess`] — constant rate but a template mix that drifts
//!   linearly from one distribution to another over a horizon, stressing
//!   model reuse under workload evolution.
//!
//! Every process is deterministic given the driving RNG, so whole runtime
//! runs replay bit-for-bit under a fixed seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wisedb_core::{ArrivingQuery, Millis, TemplateId, TenantId};

/// A probability distribution over query templates.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateMix {
    /// Normalized weights, indexed by [`TemplateId`].
    weights: Vec<f64>,
}

impl TemplateMix {
    /// A mix from raw non-negative weights (normalized internally).
    ///
    /// # Panics
    /// If `weights` is empty, contains a negative entry, or sums to zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "template mix needs at least one entry");
        assert!(
            weights.iter().all(|w| w.is_finite() && *w >= 0.0),
            "template weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "template weights must not all be zero");
        TemplateMix {
            weights: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// The uniform mix over `n` templates.
    pub fn uniform(n: usize) -> Self {
        TemplateMix::new(vec![1.0; n])
    }

    /// A mix where template `hot` carries `share` of the probability mass
    /// and the rest is uniform.
    pub fn hot(n: usize, hot: usize, share: f64) -> Self {
        assert!(hot < n, "hot template out of range");
        assert!((0.0..=1.0).contains(&share), "share must be in [0, 1]");
        let rest = if n > 1 {
            (1.0 - share) / (n - 1) as f64
        } else {
            0.0
        };
        let mut weights = vec![rest; n];
        weights[hot] = if n > 1 { share } else { 1.0 };
        TemplateMix::new(weights)
    }

    /// Number of templates in the mix.
    pub fn num_templates(&self) -> usize {
        self.weights.len()
    }

    /// Draws one template.
    pub fn sample(&self, rng: &mut StdRng) -> TemplateId {
        let u: f64 = rng.gen_range(0.0..1.0);
        let mut acc = 0.0;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return TemplateId(i as u32);
            }
        }
        TemplateId(self.weights.len() as u32 - 1)
    }

    /// The pointwise interpolation `(1 − f)·a + f·b` (arities must match).
    pub(crate) fn lerp(a: &TemplateMix, b: &TemplateMix, f: f64) -> TemplateMix {
        assert_eq!(
            a.num_templates(),
            b.num_templates(),
            "interpolated mixes must cover the same templates"
        );
        let f = f.clamp(0.0, 1.0);
        TemplateMix::new(
            a.weights
                .iter()
                .zip(&b.weights)
                .map(|(wa, wb)| wa * (1.0 - f) + wb * f)
                .collect(),
        )
    }
}

/// A source of query arrivals for the streaming runtime.
pub trait ArrivalProcess {
    /// Short label for reports ("poisson@2/s", "bursty", ...).
    fn label(&self) -> String;

    /// Draws the gap to the next arrival after virtual time `now`, and the
    /// arriving query's template.
    fn next(&mut self, now: Millis, rng: &mut StdRng) -> (Millis, TemplateId);
}

/// An exponential gap with the given mean, in seconds (never exactly zero:
/// clamped to ≥ 1 ms so virtual time always advances).
fn exp_gap(mean_secs: f64, rng: &mut StdRng) -> Millis {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    Millis::from_secs_f64(-mean_secs * u.ln()).max(Millis::from_millis(1))
}

/// Memoryless arrivals at a constant rate.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    mean_gap_secs: f64,
    mix: TemplateMix,
}

impl PoissonProcess {
    /// Poisson arrivals at `rate` queries per second.
    pub fn per_second(rate: f64, mix: TemplateMix) -> Self {
        assert!(rate > 0.0, "arrival rate must be positive");
        PoissonProcess {
            mean_gap_secs: 1.0 / rate,
            mix,
        }
    }

    /// Poisson arrivals with the given mean inter-arrival gap.
    pub fn with_mean_gap(mean_secs: f64, mix: TemplateMix) -> Self {
        assert!(mean_secs > 0.0, "mean gap must be positive");
        PoissonProcess {
            mean_gap_secs: mean_secs,
            mix,
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn label(&self) -> String {
        format!("poisson@{:.2}/s", 1.0 / self.mean_gap_secs)
    }

    fn next(&mut self, _now: Millis, rng: &mut StdRng) -> (Millis, TemplateId) {
        (exp_gap(self.mean_gap_secs, rng), self.mix.sample(rng))
    }
}

/// Bursty ON-OFF arrivals: trains of `burst_len` queries with fast
/// intra-burst gaps, separated by long idle gaps.
#[derive(Debug, Clone)]
pub struct OnOffProcess {
    on_gap_secs: f64,
    off_gap_secs: f64,
    burst_len: usize,
    remaining_in_burst: usize,
    mix: TemplateMix,
}

impl OnOffProcess {
    /// Bursts of `burst_len` arrivals with mean intra-burst gap
    /// `on_gap_secs`, separated by idle periods with mean `off_gap_secs`.
    pub fn new(on_gap_secs: f64, off_gap_secs: f64, burst_len: usize, mix: TemplateMix) -> Self {
        assert!(
            on_gap_secs > 0.0 && off_gap_secs > 0.0,
            "gaps must be positive"
        );
        assert!(burst_len >= 1, "bursts need at least one query");
        OnOffProcess {
            on_gap_secs,
            off_gap_secs,
            burst_len,
            remaining_in_burst: 0,
            mix,
        }
    }
}

impl ArrivalProcess for OnOffProcess {
    fn label(&self) -> String {
        format!(
            "bursty[{}@{:.2}s/{:.1}s]",
            self.burst_len, self.on_gap_secs, self.off_gap_secs
        )
    }

    fn next(&mut self, _now: Millis, rng: &mut StdRng) -> (Millis, TemplateId) {
        let gap = if self.remaining_in_burst == 0 {
            self.remaining_in_burst = self.burst_len;
            exp_gap(self.off_gap_secs, rng)
        } else {
            exp_gap(self.on_gap_secs, rng)
        };
        self.remaining_in_burst -= 1;
        (gap, self.mix.sample(rng))
    }
}

/// A sinusoidally rate-modulated Poisson process (day/night curve):
/// `rate(t) = base · (1 + amplitude · sin(2πt / period))`.
#[derive(Debug, Clone)]
pub struct DiurnalProcess {
    base_rate_per_sec: f64,
    amplitude: f64,
    period: Millis,
    mix: TemplateMix,
}

impl DiurnalProcess {
    /// A diurnal process with the given base rate, relative amplitude in
    /// `[0, 1)`, and period.
    pub fn new(base_rate_per_sec: f64, amplitude: f64, period: Millis, mix: TemplateMix) -> Self {
        assert!(base_rate_per_sec > 0.0, "base rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1) so the rate stays positive"
        );
        assert!(!period.is_zero(), "period must be positive");
        DiurnalProcess {
            base_rate_per_sec,
            amplitude,
            period,
            mix,
        }
    }

    /// The instantaneous arrival rate at virtual time `t`.
    pub(crate) fn rate_at(&self, t: Millis) -> f64 {
        let phase = 2.0 * std::f64::consts::PI * t.as_secs_f64() / self.period.as_secs_f64();
        self.base_rate_per_sec * (1.0 + self.amplitude * phase.sin())
    }
}

impl ArrivalProcess for DiurnalProcess {
    fn label(&self) -> String {
        format!(
            "diurnal@{:.2}/s±{:.0}%",
            self.base_rate_per_sec,
            self.amplitude * 100.0
        )
    }

    fn next(&mut self, now: Millis, rng: &mut StdRng) -> (Millis, TemplateId) {
        // Exponential gap at the instantaneous rate — a first-order
        // approximation of the non-homogeneous process, accurate while the
        // gap is short against the period.
        let rate = self.rate_at(now);
        (exp_gap(1.0 / rate, rng), self.mix.sample(rng))
    }
}

/// Constant-rate arrivals whose template mix drifts linearly from `start`
/// to `end` over `horizon` (then stays at `end`).
#[derive(Debug, Clone)]
pub struct DriftProcess {
    mean_gap_secs: f64,
    start: TemplateMix,
    end: TemplateMix,
    horizon: Millis,
}

impl DriftProcess {
    /// A drifting process at `rate` queries/second.
    pub fn new(rate_per_sec: f64, start: TemplateMix, end: TemplateMix, horizon: Millis) -> Self {
        assert!(rate_per_sec > 0.0, "arrival rate must be positive");
        assert!(!horizon.is_zero(), "drift horizon must be positive");
        assert_eq!(
            start.num_templates(),
            end.num_templates(),
            "drift endpoints must cover the same templates"
        );
        DriftProcess {
            mean_gap_secs: 1.0 / rate_per_sec,
            start,
            end,
            horizon,
        }
    }

    /// The mix in force at virtual time `t`.
    pub(crate) fn mix_at(&self, t: Millis) -> TemplateMix {
        let f = (t.as_secs_f64() / self.horizon.as_secs_f64()).clamp(0.0, 1.0);
        TemplateMix::lerp(&self.start, &self.end, f)
    }
}

impl ArrivalProcess for DriftProcess {
    fn label(&self) -> String {
        format!("drift@{:.2}/s", 1.0 / self.mean_gap_secs)
    }

    fn next(&mut self, now: Millis, rng: &mut StdRng) -> (Millis, TemplateId) {
        let gap = exp_gap(self.mean_gap_secs, rng);
        let template = self.mix_at(now + gap).sample(rng);
        (gap, template)
    }
}

/// Materializes the first `n` arrivals of a process as an explicit stream
/// (absolute arrival times, starting at the first drawn gap), tagged with
/// the default SLA class.
pub fn generate_stream(
    process: &mut dyn ArrivalProcess,
    n: usize,
    seed: u64,
) -> Vec<ArrivingQuery> {
    generate_class_stream(process, n, seed, TenantId::DEFAULT)
}

/// [`generate_stream`] with every arrival tagged as `class` — one tenant
/// population's traffic, ready to be [`merge_streams`]d with the others.
pub fn generate_class_stream(
    process: &mut dyn ArrivalProcess,
    n: usize,
    seed: u64,
    class: TenantId,
) -> Vec<ArrivingQuery> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut now = Millis::ZERO;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let (gap, template) = process.next(now, &mut rng);
        now += gap;
        out.push(ArrivingQuery::of_class(template, now, class));
    }
    out
}

/// Interleaves per-class streams into one time-ordered multi-tenant
/// stream. Ties on the arrival instant break by class id then template, so
/// the merge is deterministic regardless of input order.
pub fn merge_streams(streams: Vec<Vec<ArrivingQuery>>) -> Vec<ArrivingQuery> {
    let mut merged: Vec<ArrivingQuery> = streams.into_iter().flatten().collect();
    merged.sort_by_key(|a| (a.arrival, a.class, a.template));
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_gap_secs(stream: &[ArrivingQuery]) -> f64 {
        let gaps: Vec<f64> = stream
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_secs_f64())
            .collect();
        gaps.iter().sum::<f64>() / gaps.len() as f64
    }

    #[test]
    fn poisson_hits_its_rate() {
        let mut p = PoissonProcess::per_second(4.0, TemplateMix::uniform(3));
        let stream = generate_stream(&mut p, 4000, 7);
        let m = mean_gap_secs(&stream);
        assert!((m - 0.25).abs() < 0.02, "mean gap {m}");
        assert!(stream.windows(2).all(|w| w[0].arrival <= w[1].arrival));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mk = || PoissonProcess::per_second(2.0, TemplateMix::uniform(4));
        assert_eq!(
            generate_stream(&mut mk(), 100, 3),
            generate_stream(&mut mk(), 100, 3)
        );
        assert_ne!(
            generate_stream(&mut mk(), 100, 3),
            generate_stream(&mut mk(), 100, 4)
        );
    }

    #[test]
    fn bursty_gaps_are_bimodal() {
        let mut p = OnOffProcess::new(0.05, 10.0, 8, TemplateMix::uniform(2));
        let stream = generate_stream(&mut p, 800, 11);
        let gaps: Vec<f64> = stream
            .windows(2)
            .map(|w| (w[1].arrival - w[0].arrival).as_secs_f64())
            .collect();
        let long = gaps.iter().filter(|&&g| g > 1.0).count();
        let short = gaps.iter().filter(|&&g| g <= 1.0).count();
        // Roughly one long idle gap per 8-query burst; the rest short.
        assert!(long > 50 && short > 500, "long={long} short={short}");
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let p = DiurnalProcess::new(2.0, 0.8, Millis::from_mins(10), TemplateMix::uniform(2));
        let peak = p.rate_at(Millis::from_mins(10) / 4); // sin = 1
        let trough = p.rate_at(Millis::from_mins(10) * 3 / 4); // sin = -1
        assert!(peak > 3.5 && trough < 0.5, "peak={peak} trough={trough}");
        // Empirically: early gaps (high-rate quarter) shorter than late.
        let mut proc = p.clone();
        let stream = generate_stream(&mut proc, 2000, 5);
        assert!(stream.last().unwrap().arrival > Millis::from_secs(60));
    }

    #[test]
    fn drift_moves_the_template_mix() {
        let n = 4;
        let start = TemplateMix::hot(n, 0, 0.9);
        let end = TemplateMix::hot(n, 3, 0.9);
        // 1600 arrivals at 2/s span ~800 s; the drift completes at 400 s,
        // so the last quarter samples the pure end mix.
        let horizon = Millis::from_secs(400);
        let mut p = DriftProcess::new(2.0, start, end, horizon);
        let stream = generate_stream(&mut p, 1600, 13);
        let quarter = stream.len() / 4;
        let hot0_early = stream[..quarter]
            .iter()
            .filter(|a| a.template == TemplateId(0))
            .count();
        let hot0_late = stream[stream.len() - quarter..]
            .iter()
            .filter(|a| a.template == TemplateId(0))
            .count();
        assert!(
            hot0_early > (hot0_late + 1) * 4,
            "template 0 should fade: early={hot0_early} late={hot0_late}"
        );
    }

    #[test]
    fn class_streams_tag_and_merge_in_time_order() {
        let mk = |rate: f64| PoissonProcess::per_second(rate, TemplateMix::uniform(2));
        let gold = generate_class_stream(&mut mk(1.0), 50, 7, TenantId(0));
        let bronze = generate_class_stream(&mut mk(2.0), 80, 8, TenantId(1));
        assert!(gold.iter().all(|a| a.class == TenantId(0)));
        assert!(bronze.iter().all(|a| a.class == TenantId(1)));
        let merged = merge_streams(vec![bronze.clone(), gold.clone()]);
        assert_eq!(merged.len(), 130);
        assert!(merged.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        // Merge order is input-order independent.
        assert_eq!(merged, merge_streams(vec![gold, bronze]));
        // Untagged generation is the default class.
        let plain = generate_stream(&mut mk(1.0), 5, 7);
        assert!(plain.iter().all(|a| a.class == TenantId::DEFAULT));
    }

    #[test]
    fn mix_sampling_respects_weights() {
        let mix = TemplateMix::hot(3, 1, 0.8);
        let mut rng = StdRng::seed_from_u64(17);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[mix.sample(&mut rng).index()] += 1;
        }
        assert!(counts[1] > 2100, "hot template under-drawn: {counts:?}");
        assert!(counts[0] > 100 && counts[2] > 100);
    }

    #[test]
    fn lerp_interpolates_midpoint() {
        let a = TemplateMix::new(vec![1.0, 0.0]);
        let b = TemplateMix::new(vec![0.0, 1.0]);
        let mid = TemplateMix::lerp(&a, &b, 0.5);
        assert!((mid.weights[0] - 0.5).abs() < 1e-12);
    }
}
