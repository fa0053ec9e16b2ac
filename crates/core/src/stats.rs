//! Statistical tests used by the recommender and validator.
//!
//! * **Welch's t-test** \[42\] — compares execution metrics before/after an
//!   index change without assuming equal variances (§6's validation test,
//!   also used by the experimentation analysis in §7.3).
//! * **Slope hypothesis test** — the MI recommender's statistically-robust
//!   positive-gradient check on a candidate's accumulated impact (§5.2):
//!   a one-sided t-test that the regression slope exceeds a threshold.
//!
//! The Student-t CDF is computed via the regularized incomplete beta
//! function (continued-fraction evaluation), so p-values are exact rather
//! than table-lookups.

/// Natural log of the gamma function (Lanczos approximation).
fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g=7, n=9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized incomplete beta function `I_x(a, b)` via the continued
/// fraction of Numerical Recipes (`betacf`).
pub fn inc_beta(a: f64, b: f64, x: f64) -> f64 {
    if !(0.0..=1.0).contains(&x) {
        return f64::NAN;
    }
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    // Use the symmetry relation for faster convergence.
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + b * (1.0 - x).ln() + a * x.ln()).exp()
            * betacf(b, a, 1.0 - x)
            / b
    }
}

fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 300;
    const EPS: f64 = 3.0e-14;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// CDF of the Student-t distribution with `df` degrees of freedom.
pub fn student_t_cdf(t: f64, df: f64) -> f64 {
    if !t.is_finite() {
        return if t > 0.0 { 1.0 } else { 0.0 };
    }
    if df <= 0.0 {
        return f64::NAN;
    }
    let x = df / (df + t * t);
    let p = 0.5 * inc_beta(df / 2.0, 0.5, x);
    if t >= 0.0 {
        1.0 - p
    } else {
        p
    }
}

/// Summary statistics of one sample (mean/variance/count) — the shape
/// Query Store exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub mean: f64,
    pub variance: f64,
    pub count: u64,
}

impl Sample {
    pub fn from_values(values: &[f64]) -> Sample {
        let n = values.len() as f64;
        if values.is_empty() {
            return Sample {
                mean: 0.0,
                variance: 0.0,
                count: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n;
        let variance = if values.len() < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n - 1.0)
        };
        Sample {
            mean,
            variance,
            count: values.len() as u64,
        }
    }
}

/// Result of a Welch t-test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// t statistic for (b - a): positive when `b` has the larger mean.
    pub t: f64,
    /// Welch–Satterthwaite degrees of freedom.
    pub df: f64,
    /// Two-sided p-value for mean(a) ≠ mean(b).
    pub p_two_sided: f64,
    /// One-sided p-value for mean(b) > mean(a).
    pub p_b_greater: f64,
}

/// Welch's unequal-variances t-test comparing two samples.
///
/// Returns `None` when either side lacks the observations to test
/// (fewer than 2 on either side).
pub fn welch_t_test(a: &Sample, b: &Sample) -> Option<WelchResult> {
    if a.count < 2 || b.count < 2 {
        return None;
    }
    let na = a.count as f64;
    let nb = b.count as f64;
    // Guard zero variance on both sides (deterministic metrics): fall back
    // to an exact comparison with infinite confidence.
    let va = a.variance.max(1e-12 * a.mean.abs().max(1e-12));
    let vb = b.variance.max(1e-12 * b.mean.abs().max(1e-12));
    let se2 = va / na + vb / nb;
    let t = (b.mean - a.mean) / se2.sqrt();
    let df = se2 * se2 / ((va / na) * (va / na) / (na - 1.0) + (vb / nb) * (vb / nb) / (nb - 1.0));
    let df = df.max(1.0);
    let cdf = student_t_cdf(t, df);
    Some(WelchResult {
        t,
        df,
        p_two_sided: 2.0 * cdf.min(1.0 - cdf),
        p_b_greater: 1.0 - cdf,
    })
}

/// Result of the regression-slope hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlopeTest {
    /// Fitted slope (impact units per x unit).
    pub slope: f64,
    /// Standard error of the slope.
    pub se: f64,
    /// t statistic for H1: slope > threshold.
    pub t: f64,
    /// One-sided p-value for slope > threshold.
    pub p_greater: f64,
}

/// One-sided t-test on the least-squares slope of `(x, y)` points being
/// greater than `threshold` (the MI recommender's positive-gradient test,
/// §5.2). Requires ≥ 3 points; returns `None` otherwise.
pub fn slope_above_threshold(points: &[(f64, f64)], threshold: f64) -> Option<SlopeTest> {
    let n = points.len();
    if n < 3 {
        return None;
    }
    let nf = n as f64;
    let mx = points.iter().map(|(x, _)| x).sum::<f64>() / nf;
    let my = points.iter().map(|(_, y)| y).sum::<f64>() / nf;
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = sxy / sxx;
    let sse: f64 = points
        .iter()
        .map(|(x, y)| {
            let pred = my + slope * (x - mx);
            (y - pred) * (y - pred)
        })
        .sum();
    let mse = sse / (nf - 2.0);
    let se = (mse / sxx).sqrt().max(1e-12);
    let t = (slope - threshold) / se;
    let p_greater = 1.0 - student_t_cdf(t, nf - 2.0);
    Some(SlopeTest {
        slope,
        se,
        t,
        p_greater,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_cdf_reference_values() {
        // Symmetry and known quantiles.
        assert!((student_t_cdf(0.0, 10.0) - 0.5).abs() < 1e-9);
        // t=1.812 at df=10 is the 95th percentile.
        assert!((student_t_cdf(1.812, 10.0) - 0.95).abs() < 2e-3);
        // t=2.228 at df=10 is the 97.5th percentile.
        assert!((student_t_cdf(2.228, 10.0) - 0.975).abs() < 2e-3);
        // Large df approaches the normal: Φ(1.96) ≈ 0.975.
        assert!((student_t_cdf(1.96, 10_000.0) - 0.975).abs() < 1e-3);
        // Symmetry.
        let p = student_t_cdf(-1.5, 7.0);
        let q = student_t_cdf(1.5, 7.0);
        assert!((p + q - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inc_beta_bounds() {
        assert_eq!(inc_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(inc_beta(2.0, 3.0, 1.0), 1.0);
        // I_x(1,1) = x (uniform CDF).
        for x in [0.1, 0.35, 0.8] {
            assert!((inc_beta(1.0, 1.0, x) - x).abs() < 1e-10);
        }
        // I_x(2,1) = x^2.
        assert!((inc_beta(2.0, 1.0, 0.6) - 0.36).abs() < 1e-10);
    }

    #[test]
    fn welch_matches_hand_computed_reference() {
        // a = [10,12,14,16,18]: mean 14, s² = 40/4 = 10, n = 5
        // b = [20..=25]:        mean 22.5, s² = 17.5/5 = 3.5, n = 6
        let a = Sample::from_values(&[10.0, 12.0, 14.0, 16.0, 18.0]);
        let b = Sample::from_values(&[20.0, 21.0, 22.0, 23.0, 24.0, 25.0]);
        assert_eq!(a.mean, 14.0);
        assert_eq!(a.variance, 10.0);
        assert_eq!(b.mean, 22.5);
        assert!((b.variance - 3.5).abs() < 1e-12);

        // se² = 10/5 + 3.5/6 = 31/12
        // t   = 8.5 / sqrt(31/12)            = 5.28845…
        // df  = (31/12)² / (1²/4 + (7/12)²/5) = 6.24838…  (Welch–Satterthwaite)
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.t - 8.5 / (31.0f64 / 12.0).sqrt()).abs() < 1e-9);
        let se2 = 31.0f64 / 12.0;
        let df_ref = se2 * se2 / (1.0 + (7.0f64 / 12.0) * (7.0 / 12.0) / 5.0);
        assert!((r.df - df_ref).abs() < 1e-9);
        assert!((r.t - 5.28845).abs() < 1e-4, "t = {}", r.t);
        assert!((r.df - 6.24838).abs() < 1e-4, "df = {}", r.df);
        // Table value: two-sided p for t≈5.29 at df≈6.25 is ≈0.0016.
        assert!(
            (5e-4..3e-3).contains(&r.p_two_sided),
            "p = {}",
            r.p_two_sided
        );
        assert!((r.p_b_greater - r.p_two_sided / 2.0).abs() < 1e-12);
    }

    #[test]
    fn welch_identical_samples_are_a_wash() {
        let a = Sample::from_values(&[3.0, 4.0, 5.0, 6.0]);
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.t, 0.0);
        assert_eq!(r.df, 6.0, "equal n, equal variance → df = 2(n-1)");
        assert!((r.p_two_sided - 1.0).abs() < 1e-9);
        assert!((r.p_b_greater - 0.5).abs() < 1e-9);
    }

    #[test]
    fn welch_detects_clear_difference() {
        let a = Sample::from_values(&[10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4]);
        let b = Sample::from_values(&[15.0, 14.5, 15.5, 15.2, 14.8, 15.1, 14.9, 15.3]);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.t > 5.0, "t = {}", r.t);
        assert!(r.p_two_sided < 0.001);
        assert!(r.p_b_greater < 0.001);
    }

    #[test]
    fn welch_inconclusive_on_overlap() {
        let a = Sample::from_values(&[10.0, 12.0, 9.0, 11.0, 10.5]);
        let b = Sample::from_values(&[10.4, 11.8, 9.2, 11.3, 10.1]);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_two_sided > 0.5, "p = {}", r.p_two_sided);
    }

    #[test]
    fn welch_requires_two_observations() {
        let a = Sample::from_values(&[10.0]);
        let b = Sample::from_values(&[15.0, 16.0]);
        assert!(welch_t_test(&a, &b).is_none());
    }

    #[test]
    fn welch_handles_zero_variance() {
        let a = Sample {
            mean: 100.0,
            variance: 0.0,
            count: 10,
        };
        let b = Sample {
            mean: 150.0,
            variance: 0.0,
            count: 10,
        };
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_two_sided < 1e-6, "deterministic gap must be detected");
    }

    #[test]
    fn welch_direction() {
        let lo = Sample::from_values(&[1.0, 1.1, 0.9, 1.05, 0.95]);
        let hi = Sample::from_values(&[2.0, 2.1, 1.9, 2.05, 1.95]);
        let r = welch_t_test(&lo, &hi).unwrap();
        assert!(r.t > 0.0, "b greater → positive t");
        assert!(r.p_b_greater < 0.01);
        let r2 = welch_t_test(&hi, &lo).unwrap();
        assert!(r2.t < 0.0);
        assert!(r2.p_b_greater > 0.99);
    }

    #[test]
    fn slope_test_detects_growth() {
        // Strong linear growth: impact accumulating over time.
        let pts: Vec<(f64, f64)> = (0..6).map(|i| (i as f64, 100.0 * i as f64 + 3.0)).collect();
        let r = slope_above_threshold(&pts, 10.0).unwrap();
        assert!((r.slope - 100.0).abs() < 1e-6);
        assert!(r.p_greater < 0.01, "p = {}", r.p_greater);
    }

    #[test]
    fn slope_test_rejects_flat_series() {
        let pts: Vec<(f64, f64)> = (0..8)
            .map(|i| (i as f64, 5.0 + if i % 2 == 0 { 0.4 } else { -0.4 }))
            .collect();
        let r = slope_above_threshold(&pts, 10.0).unwrap();
        assert!(r.p_greater > 0.5, "flat series must not pass: {r:?}");
    }

    #[test]
    fn slope_needs_three_points() {
        assert!(slope_above_threshold(&[(0.0, 1.0), (1.0, 2.0)], 0.0).is_none());
        // Degenerate x values.
        assert!(slope_above_threshold(&[(1.0, 1.0), (1.0, 2.0), (1.0, 3.0)], 0.0).is_none());
    }

    #[test]
    fn few_points_suffice_for_high_impact() {
        // The paper's observation: for high-impact indexes a few data
        // points surpass the certainty limit.
        let pts = vec![(0.0, 0.0), (1.0, 1000.0), (2.0, 2000.0), (3.0, 3010.0)];
        let r = slope_above_threshold(&pts, 50.0).unwrap();
        assert!(r.p_greater < 0.05, "p = {}", r.p_greater);
    }
}
