//! Small statistics toolbox: moments and the chi-squared
//! skewness measure used by §7.5.
//!
//! The paper quantifies workload skew by the confidence with which a
//! chi-squared test rejects "templates are uniformly represented". That
//! needs the regularized lower incomplete gamma function `P(s, x)`, which is
//! implemented here from scratch (series expansion for `x < s + 1`,
//! Lentz's continued fraction otherwise, with a Lanczos log-gamma).

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation; 0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Pearson's chi-squared statistic of observed template counts against the
/// uniform null hypothesis.
pub fn chi_squared_stat(observed: &[u32]) -> f64 {
    let total: u64 = observed.iter().map(|&c| c as u64).sum();
    if observed.is_empty() || total == 0 {
        return 0.0;
    }
    let expected = total as f64 / observed.len() as f64;
    observed
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum()
}

/// The confidence `P(X² ≤ stat)` with which the uniform hypothesis is
/// rejected — the paper's x-axis in Figures 20–21 (0 = perfectly uniform,
/// →1 = single-template batches). `dof` is `num_templates - 1`.
pub fn chi_squared_confidence(stat: f64, dof: usize) -> f64 {
    if dof == 0 || stat <= 0.0 {
        return 0.0;
    }
    lower_regularized_gamma(dof as f64 / 2.0, stat / 2.0)
}

/// Regularized lower incomplete gamma `P(s, x) = γ(s, x) / Γ(s)`.
pub(crate) fn lower_regularized_gamma(s: f64, x: f64) -> f64 {
    assert!(s > 0.0, "shape must be positive");
    if x <= 0.0 {
        return 0.0;
    }
    if x < s + 1.0 {
        // Series: P(s,x) = x^s e^-x / Γ(s+1) * Σ x^n Γ(s+1)/Γ(s+1+n)
        let mut term = 1.0 / s;
        let mut sum = term;
        let mut n = 1.0;
        while n < 1000.0 {
            term *= x / (s + n);
            sum += term;
            if term.abs() < sum.abs() * 1e-15 {
                break;
            }
            n += 1.0;
        }
        (sum * (-x + s * x.ln() - ln_gamma(s)).exp()).clamp(0.0, 1.0)
    } else {
        // Continued fraction for Q(s,x) (modified Lentz).
        let mut b = x + 1.0 - s;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..1000 {
            let an = -(i as f64) * (i as f64 - s);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let delta = d * c;
            h *= delta;
            if (delta - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + s * x.ln() - ln_gamma(s)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Natural log of the gamma function (Lanczos approximation, g = 7).
pub(crate) fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain is x > 0");
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    let t = x + 7.5;
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[5.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chi_squared_uniform_is_zero() {
        assert_eq!(chi_squared_stat(&[5, 5, 5, 5]), 0.0);
        assert_eq!(chi_squared_confidence(0.0, 3), 0.0);
    }

    #[test]
    fn chi_squared_skew_increases_confidence() {
        let mild = chi_squared_stat(&[6, 5, 5, 4]);
        let heavy = chi_squared_stat(&[17, 1, 1, 1]);
        assert!(heavy > mild);
        let c_mild = chi_squared_confidence(mild, 3);
        let c_heavy = chi_squared_confidence(heavy, 3);
        assert!(c_heavy > c_mild);
        assert!(c_heavy > 0.99);
        assert!((0.0..=1.0).contains(&c_mild));
    }

    #[test]
    fn ln_gamma_known_values() {
        // Γ(1) = 1, Γ(2) = 1, Γ(5) = 24, Γ(0.5) = sqrt(pi).
        assert!(ln_gamma(1.0).abs() < 1e-10);
        assert!(ln_gamma(2.0).abs() < 1e-10);
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-10);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-10);
    }

    #[test]
    fn regularized_gamma_matches_chi_squared_table() {
        // Chi-squared CDF with k dof at x is P(k/2, x/2).
        // Known: CDF of chi2(1) at 3.841 ≈ 0.95; chi2(9) at 16.919 ≈ 0.95.
        assert!((lower_regularized_gamma(0.5, 3.841 / 2.0) - 0.95).abs() < 1e-3);
        assert!((lower_regularized_gamma(4.5, 16.919 / 2.0) - 0.95).abs() < 1e-3);
        // Exponential special case: P(1, x) = 1 - e^-x.
        for x in [0.1, 1.0, 5.0] {
            assert!((lower_regularized_gamma(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12);
        }
        // Monotone in x.
        assert!(lower_regularized_gamma(2.0, 1.0) < lower_regularized_gamma(2.0, 2.0));
    }
}
