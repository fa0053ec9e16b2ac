//! Compare two result files of the suite under the directions and
//! bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::spread;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric's rule, from `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Rule {
    pub name: String,
    pub better: Better,
    /// Share of the base's median by which the metric may get worse.
    pub bound: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse than the base by more than the bound.
    Regression,
    /// A side's own spread exceeds the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric from each side's median and repetition samples.
/// `ratio` is `b / a`, with `a` the base.
pub fn judge(rule: &Rule, a: f64, a_samples: &[f64], b: f64, b_samples: &[f64]) -> Verdict {
    if spread(a_samples) > rule.bound || spread(b_samples) > rule.bound {
        return Verdict::Unresolved;
    }
    let worse_by = match rule.better {
        Better::Higher => (a - b) / a.abs(),
        Better::Lower => (b - a) / a.abs(),
    };
    if worse_by > rule.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

/// The end-to-end rules of a `BENCHMARK.json` document.
pub fn rules(spec: &Json) -> Result<Vec<Rule>, String> {
    let metrics = spec
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .items()
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(|n| n.as_str().map(str::to_string))
                .ok_or("an end_to_end metric has no name")?;
            let better = match m.get("better").as_ref().and_then(Json::as_str) {
                Some("higher") => Better::Higher,
                Some("lower") => Better::Lower,
                other => return Err(format!("{name}: better is {other:?}")),
            };
            let bound = m
                .get("bound")
                .and_then(|b| b.as_f64())
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok(Rule {
                name,
                better,
                bound,
            })
        })
        .collect()
}

fn samples_of(metric: &Json) -> Vec<f64> {
    let samples: Vec<f64> = metric
        .get("samples")
        .map(|s| s.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    if samples.is_empty() {
        metric
            .get("value")
            .and_then(|v| v.as_f64())
            .into_iter()
            .collect()
    } else {
        samples
    }
}

/// Flatten a JSON subtree into `path = text` lines for diffing.
fn flatten(prefix: &str, node: &Json, out: &mut Vec<(String, String)>) {
    let entries = node.entries();
    if entries.is_empty() {
        out.push((prefix.to_string(), node.compact()));
    }
    for (key, child) in entries {
        flatten(&format!("{prefix}.{key}"), &child, out);
    }
}

/// A workload's simulation outputs and exact counts, as `path = text`
/// lines: what may differ between two commits without being a failure.
fn informational(workload: &str, side: &Json) -> Vec<(String, String)> {
    let mut flat = Vec::new();
    for mode in ["end_to_end", "traced"] {
        if let Some(sim) = side.at(&[mode, "sim"]) {
            flatten(&format!("{workload}.{mode}.sim"), &sim, &mut flat);
        }
    }
    let traced = side.at(&["traced", "metrics"]).map(|m| m.entries());
    for (name, metric) in traced.unwrap_or_default() {
        if metric.get("unit").as_ref().and_then(Json::as_str) == Some("count") {
            if let Some(v) = metric.get("value") {
                flat.push((format!("{workload}.traced.{name}"), v.compact()));
            }
        }
    }
    flat
}

/// What a comparison found.
#[derive(Debug, Default)]
pub struct Comparison {
    pub table: Vec<String>,
    pub behaviour_changed: Vec<String>,
    pub regressions: usize,
    pub unresolved: usize,
}

impl Comparison {
    pub fn failed(&self) -> bool {
        self.regressions > 0
    }
}

/// Compare result file `b` against base `a`.
pub fn compare(spec: &Json, a: &Json, b: &Json) -> Result<Comparison, String> {
    let rules = rules(spec)?;
    let mut out = Comparison::default();
    out.table.push(format!(
        "{:<15} {:<20} {:>14} {:>8} {:>14} {:>8} {:>9}  {}",
        "workload", "metric", "A median", "A spread", "B median", "B spread", "B/A", "verdict"
    ));
    let workloads_a = a.get("workloads").ok_or("A has no workloads")?;
    let workloads_b = b.get("workloads").ok_or("B has no workloads")?;
    for (workload, wa) in workloads_a.entries() {
        let Some(wb) = workloads_b.get(&workload) else {
            return Err(format!("B has no workload {workload}"));
        };
        let metrics_a = wa.at(&["end_to_end", "metrics"]).ok_or("A: no metrics")?;
        let metrics_b = wb.at(&["end_to_end", "metrics"]).ok_or("B: no metrics")?;
        for rule in &rules {
            let (Some(ma), Some(mb)) = (metrics_a.get(&rule.name), metrics_b.get(&rule.name))
            else {
                continue;
            };
            let (sa, sb) = (samples_of(&ma), samples_of(&mb));
            let va = ma
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or("A: no value")?;
            let vb = mb
                .get("value")
                .and_then(|v| v.as_f64())
                .ok_or("B: no value")?;
            let verdict = judge(rule, va, &sa, vb, &sb);
            match verdict {
                Verdict::Regression => out.regressions += 1,
                Verdict::Unresolved => out.unresolved += 1,
                Verdict::Ok => {}
            }
            out.table.push(format!(
                "{:<15} {:<20} {:>14.4} {:>7.2}% {:>14.4} {:>7.2}% {:>9.4}  {} (base A, bound {:.0}%)",
                workload,
                rule.name,
                va,
                spread(&sa) * 100.0,
                vb,
                spread(&sb) * 100.0,
                vb / va,
                verdict.label(),
                rule.bound * 100.0
            ));
        }
        // Any rise in the share of failed operations is a regression.
        let failed = |m: &Json| {
            m.at(&["failed_share", "value"])
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        let (fa, fb) = (failed(&metrics_a), failed(&metrics_b));
        let rose = fb > fa;
        if rose {
            out.regressions += 1;
        }
        out.table.push(format!(
            "{:<15} {:<20} {:>14.6} {:>8} {:>14.6} {:>8} {:>9}  {} (any increase fails)",
            workload,
            "failed_share",
            fa,
            "-",
            fb,
            "-",
            "-",
            if rose { "REGRESSION" } else { "ok" }
        ));

        // Simulation outputs and exact counts: information, not failure.
        let fa = informational(&workload, &wa);
        let fb = informational(&workload, &wb);
        for (path, va) in &fa {
            match fb.iter().find(|(p, _)| p == path) {
                Some((_, vb)) if vb == va => {}
                Some((_, vb)) => out.behaviour_changed.push(format!("{path}: {va} -> {vb}")),
                None => out
                    .behaviour_changed
                    .push(format!("{path}: {va} -> (absent)")),
            }
        }
        for (path, vb) in &fb {
            if !fa.iter().any(|(p, _)| p == path) {
                out.behaviour_changed
                    .push(format!("{path}: (absent) -> {vb}"));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule() -> Rule {
        Rule {
            name: "tenant_ticks_per_s".into(),
            better: Better::Higher,
            bound: 0.10,
        }
    }

    #[test]
    fn flags_a_twelve_percent_drop_and_passes_a_two_percent_one() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let drop12: Vec<f64> = a.iter().map(|v| v * 0.88).collect();
        let drop2: Vec<f64> = a.iter().map(|v| v * 0.98).collect();
        assert_eq!(
            judge(&rule(), 100.0, &a, 88.0, &drop12),
            Verdict::Regression
        );
        assert_eq!(judge(&rule(), 100.0, &a, 98.0, &drop2), Verdict::Ok);
        // A gain is never a regression.
        assert_eq!(judge(&rule(), 88.0, &drop12, 100.0, &a), Verdict::Ok);
    }

    #[test]
    fn lower_is_better_metrics_regress_upward() {
        let rule = Rule {
            name: "setup_s".into(),
            better: Better::Lower,
            bound: 0.10,
        };
        assert_eq!(judge(&rule, 1.0, &[1.0], 1.2, &[1.2]), Verdict::Regression);
        assert_eq!(judge(&rule, 1.0, &[1.0], 0.5, &[0.5]), Verdict::Ok);
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_unchanged() {
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        let calm = [100.0, 101.0, 99.0, 100.5, 99.5];
        assert_eq!(
            judge(&rule(), 100.0, &noisy, 100.0, &calm),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compares_whole_documents() {
        let spec = Json::parse(
            r#"{"end_to_end":[{"name":"tenant_ticks_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let doc = |value: f64, digest: &str| {
            Json::parse(&format!(
                r#"{{"workloads":{{"w":{{"end_to_end":{{"metrics":{{
                    "tenant_ticks_per_s":{{"value":{value},"unit":"1/s","samples":[{value},{value},{value}]}},
                    "failed_share":{{"value":0.0,"unit":"ratio"}}}},
                    "sim":{{"digest":"{digest}"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        let same = compare(&spec, &doc(100.0, "aa"), &doc(98.0, "aa")).unwrap();
        assert!(!same.failed() && same.behaviour_changed.is_empty());
        let worse = compare(&spec, &doc(100.0, "aa"), &doc(80.0, "bb")).unwrap();
        assert!(worse.failed());
        assert_eq!(worse.behaviour_changed.len(), 1);
    }
}
