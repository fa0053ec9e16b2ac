//! Statistical analysis of experiment phases (§7.3).
//!
//! Phases of one experiment observe *different numbers of executions* of
//! each query (the B-instance replays uncontrolled traffic), so costs are
//! normalized to **fixed execution counts** taken from the baseline
//! phase. Significance between phases comes from Welch-style tests on the
//! weighted workload totals, with Welch–Satterthwaite degrees of freedom
//! composed across queries.

use autoindex::stats::student_t_cdf;
use sqlmini::clock::Timestamp;
use sqlmini::engine::Database;
use sqlmini::querystore::Metric;

/// A workload-cost estimate over one phase: the fixed-count weighted
/// total, its estimator variance, and effective degrees of freedom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSample {
    pub total: f64,
    pub variance: f64,
    pub df: f64,
    /// Queries contributing.
    pub queries: usize,
}

/// Compute the fixed-count workload cost of `window`, weighting each
/// query by its execution count in `base_window`. Queries that did not
/// execute in both windows are skipped (the paper's "executed before and
/// after" rule).
pub fn workload_cost_fixed_counts(
    db: &Database,
    metric: Metric,
    base_window: (Timestamp, Timestamp),
    window: (Timestamp, Timestamp),
) -> CostSample {
    let qs = db.query_store();
    let mut total = 0.0f64;
    let mut variance = 0.0f64;
    let mut df_num = 0.0f64;
    let mut df_den = 0.0f64;
    let mut queries = 0usize;
    for (qid, _) in qs.known_queries() {
        let base = qs.query_stats(qid, base_window.0, base_window.1);
        let meas = qs.query_stats(qid, window.0, window.1);
        let w = base.metric(metric).count as f64;
        let n = meas.metric(metric).count as f64;
        if w < 1.0 || n < 2.0 {
            continue;
        }
        queries += 1;
        let m = meas.metric(metric);
        total += w * m.mean();
        // Var of (w * sample-mean) = w^2 * var / n.
        let v = w * w * m.variance() / n;
        variance += v;
        if v > 0.0 {
            df_num += v;
            df_den += v * v / (n - 1.0);
        }
    }
    let df = if df_den > 0.0 {
        (df_num * df_num / df_den).max(1.0)
    } else {
        1.0
    };
    CostSample {
        total,
        variance,
        df,
        queries,
    }
}

/// Pool independent workload-cost samples (e.g. one per tenant in a
/// flight cohort) into a single region-level sample: totals and
/// variances add, and the effective degrees of freedom follow the
/// Welch–Satterthwaite combination of the per-sample variances.
pub fn pool_samples(samples: &[CostSample]) -> CostSample {
    let mut total = 0.0f64;
    let mut variance = 0.0f64;
    let mut df_den = 0.0f64;
    let mut queries = 0usize;
    for s in samples {
        total += s.total;
        variance += s.variance;
        queries += s.queries;
        if s.variance > 0.0 {
            df_den += s.variance * s.variance / s.df.max(1.0);
        }
    }
    let df = if df_den > 0.0 {
        (variance * variance / df_den).max(1.0)
    } else {
        1.0
    };
    CostSample {
        total,
        variance,
        df,
        queries,
    }
}

/// Welch-style comparison of two workload-cost samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostComparison {
    t: f64,
    df: f64,
    /// One-sided p-value that `b` is more expensive than `a`.
    pub p_b_greater: f64,
    /// Two-sided p-value.
    p_two_sided: f64,
}

pub fn compare_costs(a: &CostSample, b: &CostSample) -> Option<CostComparison> {
    let se2 = a.variance + b.variance;
    if se2 <= 0.0 {
        return None;
    }
    let t = (b.total - a.total) / se2.sqrt();
    // Compose dfs (conservative: harmonic-style Welch combination).
    let df = (se2 * se2
        / (a.variance * a.variance / a.df.max(1.0) + b.variance * b.variance / b.df.max(1.0)))
    .max(1.0);
    let cdf = student_t_cdf(t, df);
    Some(CostComparison {
        t,
        df,
        p_b_greater: 1.0 - cdf,
        p_two_sided: 2.0 * cdf.min(1.0 - cdf),
    })
}

/// The four slices of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Winner {
    Dta,
    Mi,
    User,
    Comparable,
}

impl std::fmt::Display for Winner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Winner::Dta => "DTA",
            Winner::Mi => "MI",
            Winner::User => "User",
            Winner::Comparable => "Comparable",
        };
        f.write_str(s)
    }
}

/// CPU-cost improvement of `arm` relative to `baseline`, as a fraction
/// of the baseline cost (negative when the arm regressed; `0.0` for a
/// costless baseline). Shared by the winner analysis and the ops
/// dashboards, so both report the same number for the same samples.
fn improvement_fraction(baseline: &CostSample, arm: &CostSample) -> f64 {
    if baseline.total > 0.0 {
        (baseline.total - arm.total) / baseline.total
    } else {
        0.0
    }
}

/// Improvements and the winner for one database's experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct WinnerAnalysis {
    pub winner: Winner,
    /// CPU-time improvement fraction vs baseline per arm (can be < 0).
    pub user_improvement: f64,
    pub mi_improvement: f64,
    pub dta_improvement: f64,
}

/// Decide the winner (§7.3): a recommender wins when its indexes
/// outperformed **both** other alternatives with statistical
/// significance *and* by a practically meaningful margin (a fraction of
/// the baseline cost); otherwise the database counts as Comparable.
pub(crate) fn determine_winner(
    baseline: &CostSample,
    user: &CostSample,
    mi: &CostSample,
    dta: &CostSample,
    alpha: f64,
    margin: f64,
) -> WinnerAnalysis {
    let user_improvement = improvement_fraction(baseline, user);
    let mi_improvement = improvement_fraction(baseline, mi);
    let dta_improvement = improvement_fraction(baseline, dta);

    // X beats Y when X's total is significantly lower and the gap is a
    // meaningful fraction of the baseline workload cost.
    let abs_margin = margin * baseline.total;
    let beats = |x: &CostSample, y: &CostSample| {
        compare_costs(x, y).is_some_and(|c| c.p_b_greater < alpha)
            && (y.total - x.total) > abs_margin
    };
    let arms: [(&CostSample, Winner); 3] =
        [(dta, Winner::Dta), (mi, Winner::Mi), (user, Winner::User)];
    // Evaluate in a fixed precedence order so deterministic ties go to the
    // first strict winner found.
    let mut winner = Winner::Comparable;
    for (s, w) in &arms {
        let others: Vec<&CostSample> = arms
            .iter()
            .filter(|(_, ow)| ow != w)
            .map(|(os, _)| *os)
            .collect();
        if others.iter().all(|o| beats(s, o)) {
            winner = *w;
            break;
        }
    }
    WinnerAnalysis {
        winner,
        user_improvement,
        mi_improvement,
        dta_improvement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(total: f64, var: f64) -> CostSample {
        CostSample {
            total,
            variance: var,
            df: 30.0,
            queries: 5,
        }
    }

    #[test]
    fn clear_winner_detected() {
        let baseline = sample(1000.0, 100.0);
        let user = sample(800.0, 100.0);
        let mi = sample(500.0, 100.0);
        let dta = sample(200.0, 100.0);
        let a = determine_winner(&baseline, &user, &mi, &dta, 0.05, 0.05);
        assert_eq!(a.winner, Winner::Dta);
        assert!((a.dta_improvement - 0.8).abs() < 1e-9);
        assert!((a.user_improvement - 0.2).abs() < 1e-9);
    }

    #[test]
    fn indistinguishable_arms_are_comparable() {
        let baseline = sample(1000.0, 400.0);
        let user = sample(600.0, 400.0);
        let mi = sample(590.0, 400.0);
        let dta = sample(580.0, 400.0);
        let a = determine_winner(&baseline, &user, &mi, &dta, 0.05, 0.05);
        assert_eq!(a.winner, Winner::Comparable);
    }

    #[test]
    fn user_can_win() {
        let baseline = sample(1000.0, 50.0);
        let user = sample(300.0, 50.0);
        let mi = sample(900.0, 50.0);
        let dta = sample(850.0, 50.0);
        let a = determine_winner(&baseline, &user, &mi, &dta, 0.05, 0.05);
        assert_eq!(a.winner, Winner::User);
    }

    #[test]
    fn improvement_fraction_signed_and_guarded() {
        let baseline = sample(1000.0, 1.0);
        assert!((improvement_fraction(&baseline, &sample(750.0, 1.0)) - 0.25).abs() < 1e-12);
        assert!((improvement_fraction(&baseline, &sample(1100.0, 1.0)) + 0.1).abs() < 1e-12);
        // A costless baseline yields 0, not NaN/inf.
        assert_eq!(
            improvement_fraction(&sample(0.0, 1.0), &sample(5.0, 1.0)),
            0.0
        );
    }

    #[test]
    fn compare_costs_direction() {
        let cheap = sample(100.0, 10.0);
        let costly = sample(200.0, 10.0);
        let c = compare_costs(&cheap, &costly).unwrap();
        assert!(c.t > 0.0);
        assert!(c.p_b_greater < 0.01);
        let c2 = compare_costs(&costly, &cheap).unwrap();
        assert!(c2.p_b_greater > 0.99);
    }

    #[test]
    fn pool_samples_hand_computed() {
        // (10, var 4, df 4) + (20, var 9, df 9):
        //   total = 30, variance = 13,
        //   df = 13^2 / (4^2/4 + 9^2/9) = 169 / (4 + 9) = 13.
        let a = CostSample {
            total: 10.0,
            variance: 4.0,
            df: 4.0,
            queries: 2,
        };
        let b = CostSample {
            total: 20.0,
            variance: 9.0,
            df: 9.0,
            queries: 3,
        };
        let p = pool_samples(&[a, b]);
        assert_eq!(p.total, 30.0);
        assert_eq!(p.variance, 13.0);
        assert!((p.df - 13.0).abs() < 1e-12, "df = {}", p.df);
        assert_eq!(p.queries, 5);
        // Pooling a single sample is the identity.
        let solo = pool_samples(&[a]);
        assert_eq!(solo.total, a.total);
        assert_eq!(solo.variance, a.variance);
        assert!((solo.df - a.df).abs() < 1e-12);
        // Empty / zero-variance pools degrade to df = 1.
        let empty = pool_samples(&[]);
        assert_eq!(empty.total, 0.0);
        assert_eq!(empty.df, 1.0);
    }

    #[test]
    fn zero_variance_comparison_is_none() {
        let a = CostSample {
            total: 10.0,
            variance: 0.0,
            df: 1.0,
            queries: 1,
        };
        assert!(compare_costs(&a, &a).is_none());
    }
}
