//! What one run of one workload reports: named metrics with units, the
//! output checks, and the simulation facts, as a JSON document and as
//! the one-line result the driver reads.

use crate::json::{arr, num, obj, text, uint};
use crate::stats::{summarize, Summary};
use serde::Value;

/// The end-to-end metrics `BENCHMARK.json` declares; the result line of
/// an untraced run carries exactly these.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("tenant_ticks_per_s", "1/s"),
    ("statements_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `BENCHMARK.json` declares: the ones every
/// workload can measure. The result line of a traced run carries
/// exactly these; the run's own file carries the workload-specific ones
/// as well.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("workload.fleet.hydrate_busy_s", "s"),
    ("workload.fleet.hydrate_us", "us"),
    ("workload.fleet.hydrate_count", "count"),
    ("workload.runner.slice_busy_s", "s"),
    ("workload.runner.stmt_us", "us"),
    ("workload.runner.statements", "count"),
    ("sqlmini.engine.execute_point_us", "us"),
    ("sqlmini.engine.execute_scan_us", "us"),
    ("sqlmini.engine.execute_write_us", "us"),
    ("sqlmini.engine.plan_cache_hits", "count"),
    ("sqlmini.engine.plan_cache_misses", "count"),
    ("sqlmini.engine.plan_cache_invalidations", "count"),
    ("sqlmini.engine.what_if_cost_us", "us"),
    ("sqlmini.engine.create_index_us", "us"),
    ("sqlmini.parser.parse_template_us", "us"),
    ("autoindex.mi.recommend_us", "us"),
    ("autoindex.dta.tune_us", "us"),
    ("autoindex.dta.whatif_issued", "count"),
    ("autoindex.dta.whatif_saved", "count"),
    ("autoindex.validator.validate_us", "us"),
    ("autoindex.drops.recommend_us", "us"),
    ("controlplane.plane.tick_busy_s", "s"),
    ("controlplane.plane.tick_count", "count"),
    ("controlplane.plane.tick_us", "us"),
    ("controlplane.store.recover_us", "us"),
    ("controlplane.store.journal_writes", "count"),
    ("controlplane.store.journal_bytes", "count"),
    ("controlplane.driver.run_1t_s", "s"),
    ("controlplane.driver.overhead_s", "s"),
    ("controlplane.driver.passes_executed", "count"),
    ("controlplane.driver.passes_skipped", "count"),
    ("controlplane.metrics.inc_ns", "ns"),
    ("controlplane.telemetry.emit_ns", "ns"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
];

/// One named measurement. `samples` holds what the value summarizes
/// (repetitions or span durations); it is empty for a count or a sum.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// Per-repetition values, kept only for end-to-end metrics.
    pub samples: Vec<f64>,
}

impl Metric {
    /// A single value: a count, a sum or a ratio.
    pub fn single(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            summary: None,
            samples: Vec::new(),
        }
    }

    /// The median of a sample, with its range and highest percentile.
    pub fn median_of(name: impl Into<String>, unit: &'static str, values: &[f64]) -> Metric {
        let summary = summarize(values);
        Metric {
            name: name.into(),
            unit,
            value: summary.median,
            summary: Some(summary),
            samples: Vec::new(),
        }
    }

    /// Like [`median_of`](Self::median_of), keeping the sample itself.
    pub fn median_of_reps(name: &str, unit: &'static str, values: &[f64]) -> Metric {
        Metric {
            samples: values.to_vec(),
            ..Metric::median_of(name, unit, values)
        }
    }

    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("value".to_string(), num(self.value)),
            ("unit".to_string(), text(self.unit)),
        ];
        if let Some(s) = &self.summary {
            fields.push(("min".into(), num(s.min)));
            fields.push(("max".into(), num(s.max)));
            fields.push(("n".into(), uint(s.n as u64)));
            if let Some((p, v)) = s.high {
                fields.push(("high_percentile".into(), num(p)));
                fields.push(("high".into(), num(v)));
            }
        }
        if !self.samples.is_empty() {
            fields.push(("samples".into(), arr(self.samples.iter().map(|&v| num(v)))));
        }
        Value::Object(fields)
    }

    fn print(&self) {
        match &self.summary {
            Some(s) => {
                let high = s
                    .high
                    .map(|(p, v)| format!(", p{p} {v:.4}"))
                    .unwrap_or_default();
                println!(
                    "  {:<46} {:>14.4} {:<6} (median of {}; min {:.4}, max {:.4}{high})",
                    self.name, self.value, self.unit, s.n, s.min, s.max
                );
            }
            None => println!("  {:<46} {:>14.4} {}", self.name, self.value, self.unit),
        }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub quick: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Run facts: sizes, threads, how the timed region is delimited,
    /// per-repetition walls.
    pub facts: Vec<(String, Value)>,
    /// Simulation outputs, recorded as information.
    pub sim: Vec<(String, Value)>,
    pub notes: Vec<String>,
}

impl RunReport {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "{} ({}, seed {}{})",
            self.workload,
            if self.traced { "traced" } else { "end to end" },
            self.seed,
            if self.quick { ", quick" } else { "" }
        );
        for m in &self.metrics {
            m.print();
        }
        println!(
            "  checks: attempted {}, failed {}, {}",
            self.attempted,
            self.failed,
            if self.correct() {
                "correct"
            } else {
                "NOT CORRECT"
            }
        );
        for v in &self.violations {
            println!("  violated: {v}");
        }
        for n in &self.notes {
            println!("  note: {n}");
        }
    }

    /// The full document written under `out/`.
    pub fn to_value(&self) -> Value {
        let mut fields = vec![
            ("workload".to_string(), text(self.workload)),
            (
                "mode".to_string(),
                text(if self.traced { "traced" } else { "end_to_end" }),
            ),
            ("seed".to_string(), uint(self.seed)),
            ("quick".to_string(), Value::Bool(self.quick)),
        ];
        fields.extend(self.facts.iter().cloned());
        fields.push(("correct".into(), Value::Bool(self.correct())));
        fields.push(("attempted".into(), uint(self.attempted)));
        fields.push(("failed".into(), uint(self.failed)));
        fields.push(("violations".into(), arr(self.violations.iter().map(text))));
        fields.push((
            "metrics".into(),
            obj(self.metrics.iter().map(|m| (m.name.clone(), m.to_value()))),
        ));
        fields.push(("sim".into(), Value::Object(self.sim.clone())));
        fields.push(("notes".into(), arr(self.notes.iter().map(text))));
        Value::Object(fields)
    }

    /// The one-line result: exactly the metrics `BENCHMARK.json` declares
    /// for this kind of run.
    pub fn result_line(&self) -> Result<String, String> {
        let declared: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::with_capacity(declared.len());
        for &(name, unit) in declared {
            let m = self
                .metric(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !m.value.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            debug_assert_eq!(m.unit, unit, "{name}");
            metrics.push((
                name.to_string(),
                obj([("value", num(m.value)), ("unit", text(unit))]),
            ));
        }
        let line = obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", uint(self.attempted.max(1))),
            ("failed", uint(self.failed)),
            ("metrics", Value::Object(metrics)),
        ]);
        Ok(crate::json::Json(line).compact())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    /// `BENCHMARK.json` and the binary must declare the same workloads
    /// and metrics, with the same units.
    #[test]
    fn benchmark_json_declares_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::read(std::path::Path::new(path)).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
        let workloads: Vec<String> = spec
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
