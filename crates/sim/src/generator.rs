//! Workload generators: uniform training samples (§4.2), skewed runtime
//! batches (§7.5), and online arrival processes (§7.4).

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wisedb_core::{Millis, TemplateId, Workload, WorkloadSpec};

/// Draws one workload of `m` queries with templates sampled uniformly —
/// the paper's training-time sampling (uniform direct sampling covers both
/// balanced and naturally imbalanced mixes).
pub fn uniform_workload(spec: &WorkloadSpec, m: usize, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    uniform_workload_rng(spec, m, &mut rng)
}

/// Uniform workload from a caller-managed RNG.
pub(crate) fn uniform_workload_rng(spec: &WorkloadSpec, m: usize, rng: &mut StdRng) -> Workload {
    let nt = spec.num_templates() as u32;
    Workload::from_templates((0..m).map(|_| TemplateId(rng.gen_range(0..nt))))
}

/// The training corpus: `n_samples` independent uniform workloads of `m`
/// queries each (the paper uses N = 3000, m = 18).
pub fn sample_workloads(
    spec: &WorkloadSpec,
    n_samples: usize,
    m: usize,
    seed: u64,
) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n_samples)
        .map(|_| uniform_workload_rng(spec, m, &mut rng))
        .collect()
}

/// Draws a workload skewed toward one "hot" template: with probability
/// `skew` a query is the hot template, otherwise uniform. `skew = 0` is
/// the uniform distribution; `skew = 1` yields single-template batches —
/// spanning the χ² range of Figures 20–21.
pub fn skewed_workload(spec: &WorkloadSpec, m: usize, skew: f64, seed: u64) -> Workload {
    assert!((0.0..=1.0).contains(&skew), "skew must be in [0, 1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let nt = spec.num_templates() as u32;
    let hot = TemplateId(rng.gen_range(0..nt));
    Workload::from_templates((0..m).map(|_| {
        if rng.gen_bool(skew) {
            hot
        } else {
            TemplateId(rng.gen_range(0..nt))
        }
    }))
}

/// Inter-arrival time models for online scheduling experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    /// Every query arrives exactly `gap` after the previous one.
    Fixed {
        /// The constant inter-arrival gap.
        gap: Millis,
    },
    /// Gaps are normally distributed (truncated at zero) — the §7.4 setup
    /// uses mean 250 ms, std 125 ms.
    Normal {
        /// Mean gap in seconds.
        mean_secs: f64,
        /// Standard deviation in seconds.
        std_secs: f64,
    },
    /// Gaps are exponentially distributed (Poisson arrivals).
    Poisson {
        /// Mean gap in seconds.
        mean_secs: f64,
    },
}

impl Arrivals {
    /// Generates `n` absolute arrival times starting at zero.
    pub fn times(&self, n: usize, seed: u64) -> Vec<Millis> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Millis::ZERO;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 {
                t += self.gap(&mut rng);
            }
            out.push(t);
        }
        out
    }

    fn gap(&self, rng: &mut StdRng) -> Millis {
        match *self {
            Arrivals::Fixed { gap } => gap,
            Arrivals::Normal {
                mean_secs,
                std_secs,
            } => {
                let g = mean_secs + std_secs * standard_normal(rng);
                Millis::from_secs_f64(g.max(0.0))
            }
            Arrivals::Poisson { mean_secs } => {
                let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                Millis::from_secs_f64(-mean_secs * u.ln())
            }
        }
    }
}

/// A standard normal draw via Box–Muller (keeps us off extra crates).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A reusable Gaussian sampler for noise models.
#[derive(Debug, Clone)]
pub(crate) struct Gaussian {
    mean: f64,
    std: f64,
}

impl Gaussian {
    /// A normal distribution with the given moments.
    pub(crate) fn new(mean: f64, std: f64) -> Self {
        assert!(std >= 0.0, "standard deviation must be non-negative");
        Gaussian { mean, std }
    }
}

impl Distribution<f64> for Gaussian {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::tpch_like;
    use crate::stats;

    #[test]
    fn uniform_workload_covers_templates() {
        let spec = tpch_like(10);
        let w = uniform_workload(&spec, 1000, 7);
        assert_eq!(w.len(), 1000);
        let counts = w.template_counts(10);
        // Every template shows up in a 1000-query uniform draw.
        assert!(counts.iter().all(|&c| c > 0));
        // Roughly uniform: chi-squared confidence should be unremarkable.
        let stat = stats::chi_squared_stat(&counts);
        let conf = stats::chi_squared_confidence(stat, 9);
        assert!(conf < 0.999, "uniform draw looked skewed: conf={conf}");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = tpch_like(5);
        assert_eq!(
            uniform_workload(&spec, 20, 1),
            uniform_workload(&spec, 20, 1)
        );
        assert_ne!(
            uniform_workload(&spec, 20, 1),
            uniform_workload(&spec, 20, 2)
        );
    }

    #[test]
    fn sample_workloads_vary() {
        let spec = tpch_like(5);
        let samples = sample_workloads(&spec, 10, 6, 3);
        assert_eq!(samples.len(), 10);
        assert!(samples.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn skew_parameter_moves_chi_squared() {
        let spec = tpch_like(10);
        let uniform = skewed_workload(&spec, 300, 0.0, 11);
        let heavy = skewed_workload(&spec, 300, 0.95, 11);
        let s_u = stats::chi_squared_stat(&uniform.template_counts(10));
        let s_h = stats::chi_squared_stat(&heavy.template_counts(10));
        assert!(
            s_h > s_u * 5.0,
            "skew should inflate chi-squared: {s_u} vs {s_h}"
        );

        let single = skewed_workload(&spec, 50, 1.0, 11);
        let counts = single.template_counts(10);
        assert_eq!(counts.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn arrival_times_are_sorted_and_start_at_zero() {
        for arrivals in [
            Arrivals::Fixed {
                gap: Millis::from_millis(250),
            },
            Arrivals::Normal {
                mean_secs: 0.25,
                std_secs: 0.125,
            },
            Arrivals::Poisson { mean_secs: 0.25 },
        ] {
            let times = arrivals.times(50, 9);
            assert_eq!(times.len(), 50);
            assert_eq!(times[0], Millis::ZERO);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn fixed_arrivals_are_exact() {
        let times = Arrivals::Fixed {
            gap: Millis::from_secs(1),
        }
        .times(4, 0);
        assert_eq!(
            times,
            vec![
                Millis::ZERO,
                Millis::from_secs(1),
                Millis::from_secs(2),
                Millis::from_secs(3)
            ]
        );
    }

    #[test]
    fn normal_arrivals_have_reasonable_moments() {
        let times = Arrivals::Normal {
            mean_secs: 0.25,
            std_secs: 0.125,
        }
        .times(5000, 42);
        let gaps: Vec<f64> = times
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect();
        let m = stats::mean(&gaps);
        assert!((m - 0.25).abs() < 0.02, "mean gap {m}");
    }
}
