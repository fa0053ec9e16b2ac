//! Workload execution: drives a [`Database`] from a [`WorkloadModel`],
//! advancing the simulated clock, and optionally records a trace that can
//! be replayed against a B-instance (the TDS-fork analogue, §7.1).

use crate::gen::ZipfCache;
use crate::model::WorkloadModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;
use sqlmini::schema::TableId;
use sqlmini::types::Value;
use std::collections::BTreeMap;

/// Summary of one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    pub statements: u64,
    pub errors: u64,
    pub rows_returned: u64,
}

impl RunSummary {
    fn merge(&mut self, other: &RunSummary) {
        self.statements += other.statements;
        self.errors += other.errors;
        self.rows_returned += other.rows_returned;
    }
}

/// One recorded statement execution.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    pub at: Timestamp,
    pub template_index: usize,
    pub params: Vec<Value>,
}

/// A recorded workload trace (the TDS stream analogue).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub events: Vec<TraceEvent>,
}

/// Drives statements against one database.
#[derive(Debug, Clone)]
pub struct WorkloadRunner {
    rng: StdRng,
    next_pk: BTreeMap<TableId, i64>,
    zipf: ZipfCache,
}

impl WorkloadRunner {
    pub fn new(seed: u64) -> WorkloadRunner {
        WorkloadRunner {
            rng: StdRng::seed_from_u64(seed ^ 0x52554e),
            next_pk: BTreeMap::new(),
            zipf: ZipfCache::default(),
        }
    }

    /// Initialize fresh-pk counters from current table sizes.
    fn sync_pk_counters(&mut self, db: &Database) {
        for (t, _) in db.catalog().tables() {
            let n = db.table_rows(t) as i64;
            let e = self.next_pk.entry(t).or_insert(n);
            *e = (*e).max(n);
        }
    }

    fn draw_params(&mut self, model: &WorkloadModel, idx: usize) -> Vec<Value> {
        let spec = &model.templates[idx];
        let mut params: Vec<Value> = Vec::with_capacity(spec.param_gens.len());
        for g in &spec.param_gens {
            let next_pk = &mut self.next_pk;
            let mut fresh = |t: TableId| {
                let c = next_pk.entry(t).or_insert(0);
                let v = *c;
                *c += 1;
                v
            };
            let v = g.draw(&mut self.rng, &params, &mut fresh, &mut self.zipf);
            params.push(v);
        }
        params
    }

    /// Run the workload for `dur` of simulated time, advancing the
    /// database's clock. Statement count follows the model's (diurnal)
    /// rate.
    pub fn run(&mut self, db: &mut Database, model: &WorkloadModel, dur: Duration) -> RunSummary {
        let (summary, _) = self.run_inner(db, model, dur, false);
        summary
    }

    /// One fleet-driver tick: run the workload for `slice` of simulated
    /// time and fold the result into `total`. Extracted so the fleet
    /// driver's inner loop and workload-level tests share the exact
    /// same slicing semantics.
    pub fn run_slice_into(
        &mut self,
        db: &mut Database,
        model: &WorkloadModel,
        slice: Duration,
        total: &mut RunSummary,
    ) {
        let summary = self.run(db, model, slice);
        total.merge(&summary);
    }

    /// Like [`run`](Self::run) but records every executed statement.
    pub fn run_traced(
        &mut self,
        db: &mut Database,
        model: &WorkloadModel,
        dur: Duration,
    ) -> (RunSummary, Trace) {
        let (summary, trace) = self.run_inner(db, model, dur, true);
        (summary, trace.expect("tracing enabled"))
    }

    fn run_inner(
        &mut self,
        db: &mut Database,
        model: &WorkloadModel,
        dur: Duration,
        traced: bool,
    ) -> (RunSummary, Option<Trace>) {
        self.sync_pk_counters(db);
        let mut summary = RunSummary::default();
        let mut trace = if traced { Some(Trace::default()) } else { None };
        let start = db.clock().now();
        let end = start + dur;
        // Hour-by-hour slices follow the diurnal curve.
        let mut t = start;
        while t < end {
            let slice_end = (t + Duration::from_hours(1)).min(end);
            let slice = slice_end.since(t);
            let rate = model.rate_at(t);
            let n = ((rate * slice.millis() as f64 / 3_600_000.0).round() as u64).max(1);
            let step = Duration(slice.millis() / n.max(1));
            for _ in 0..n {
                db.clock().advance(step.max(Duration(1)));
                let now = db.clock().now();
                if now >= end {
                    break;
                }
                let Some(idx) = model.sample_template(now, &mut self.rng) else {
                    continue;
                };
                let params = self.draw_params(model, idx);
                if let Some(tr) = trace.as_mut() {
                    tr.events.push(TraceEvent {
                        at: now,
                        template_index: idx,
                        params: params.clone(),
                    });
                }
                self.execute_one(db, model, idx, &params, &mut summary);
            }
            t = slice_end;
            db.clock().advance_to(t);
        }
        (summary, trace)
    }

    fn execute_one(
        &mut self,
        db: &mut Database,
        model: &WorkloadModel,
        idx: usize,
        params: &[Value],
        summary: &mut RunSummary,
    ) {
        let spec = &model.templates[idx];
        match db.execute(&spec.template, params) {
            Ok(out) => {
                summary.statements += 1;
                summary.rows_returned += out.metrics.rows_returned;
            }
            Err(_) => {
                summary.errors += 1;
            }
        }
    }
}

/// Replay fidelity knobs for a B-instance: the fork is best-effort, so
/// events can be dropped or locally reordered (§7.1).
#[derive(Debug, Clone, Copy)]
pub struct ReplayFidelity {
    pub drop_prob: f64,
    /// Maximum distance an event can be swapped forward.
    pub reorder_window: usize,
    pub seed: u64,
}

impl Default for ReplayFidelity {
    fn default() -> ReplayFidelity {
        ReplayFidelity {
            drop_prob: 0.01,
            reorder_window: 4,
            seed: 0,
        }
    }
}

/// Summary of a replay.
#[derive(Debug, Clone, Default)]
pub struct ReplaySummary {
    pub replayed: u64,
    pub dropped: u64,
    pub errors: u64,
    pub total_cpu_us: f64,
}

/// Replay a trace against a database (the B-instance side of the fork).
/// The clock is advanced monotonically to each event's timestamp.
pub fn replay(
    db: &mut Database,
    model: &WorkloadModel,
    trace: &Trace,
    fidelity: ReplayFidelity,
) -> ReplaySummary {
    let mut rng = StdRng::seed_from_u64(fidelity.seed ^ 0x5245504c4159);
    let mut events: Vec<&TraceEvent> = trace.events.iter().collect();
    // Local reordering: random forward swaps within the window.
    if fidelity.reorder_window > 1 {
        let n = events.len();
        for i in 0..n {
            let j = (i + rng.random_range(0..fidelity.reorder_window)).min(n - 1);
            events.swap(i, j);
        }
    }
    let mut summary = ReplaySummary::default();
    for e in events {
        if rng.random::<f64>() < fidelity.drop_prob {
            summary.dropped += 1;
            continue;
        }
        db.clock().advance_to(e.at);
        match db.execute(&model.templates[e.template_index].template, &e.params) {
            Ok(out) => {
                summary.replayed += 1;
                summary.total_cpu_us += out.metrics.cpu_us;
            }
            Err(_) => summary.errors += 1,
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{generate_tenant, TenantConfig};
    use sqlmini::engine::ServiceTier;
    use sqlmini::query::Statement;

    fn small_tenant(seed: u64) -> crate::fleet::Tenant {
        let mut cfg = TenantConfig::new("t", seed, ServiceTier::Standard);
        cfg.schema.min_tables = 2;
        cfg.schema.max_tables = 2;
        cfg.schema.min_rows = 1_000;
        cfg.schema.max_rows = 3_000;
        cfg.workload.base_rate_per_hour = 120.0;
        generate_tenant(&cfg)
    }

    #[test]
    fn run_advances_clock_and_executes() {
        let mut t = small_tenant(1);
        let before = t.db.clock().now();
        let summary = t.runner.run(&mut t.db, &t.model, Duration::from_hours(4));
        assert!(summary.statements > 100, "got {}", summary.statements);
        assert_eq!(summary.errors, 0);
        assert!(t.db.clock().now().since(before) >= Duration::from_hours(4));
        // Query Store saw everything.
        let total = t.db.query_store().total_resources(
            sqlmini::querystore::Metric::CpuTime,
            before,
            t.db.clock().now(),
        );
        assert!(total > 0.0);
    }

    #[test]
    fn traced_run_records_events() {
        let mut t = small_tenant(2);
        let (summary, trace) = t
            .runner
            .run_traced(&mut t.db, &t.model, Duration::from_hours(2));
        assert_eq!(
            trace.events.len() as u64,
            summary.statements + summary.errors
        );
        // Events are time-ordered.
        for w in trace.events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn replay_on_fork_approximates_original() {
        let mut t = small_tenant(3);
        // Warm up and trace.
        let (_, trace) = t
            .runner
            .run_traced(&mut t.db, &t.model, Duration::from_hours(3));
        let mut b = t.db.fork("b", 12345);
        let summary = replay(&mut b, &t.model, &trace, ReplayFidelity::default());
        assert!(summary.replayed > 0);
        let total = trace.events.len() as u64;
        assert!(
            summary.dropped < total / 10,
            "dropped {} of {total}",
            summary.dropped
        );
        // Replayed statements ran on the fork.
        assert!(b.total_cpu_us > 0.0);
    }

    #[test]
    fn replay_with_heavy_drops() {
        let mut t = small_tenant(4);
        let (_, trace) = t
            .runner
            .run_traced(&mut t.db, &t.model, Duration::from_hours(1));
        let mut b = t.db.fork("b", 1);
        let summary = replay(
            &mut b,
            &t.model,
            &trace,
            ReplayFidelity {
                drop_prob: 0.5,
                reorder_window: 8,
                seed: 9,
            },
        );
        let total = trace.events.len() as u64;
        assert!(summary.dropped > total / 4, "{summary:?}");
        assert_eq!(summary.replayed + summary.dropped + summary.errors, total);
    }

    #[test]
    fn fresh_pk_counters_never_collide() {
        // Every INSERT and bulk load takes its key from the table's
        // fresh-pk counter. Over two runs no key is drawn twice, and none
        // reuses a key the generator loaded (0..rows).
        let mut t = small_tenant(5);
        let loaded: BTreeMap<TableId, i64> = t
            .table_ids
            .iter()
            .map(|&table| (table, t.db.table_rows(table) as i64))
            .collect();
        let mut drawn = std::collections::BTreeSet::new();
        for _ in 0..2 {
            let (_, trace) = t
                .runner
                .run_traced(&mut t.db, &t.model, Duration::from_hours(2));
            for e in &trace.events {
                let (Statement::Insert { table, .. } | Statement::BulkInsert { table, .. }) =
                    t.model.templates[e.template_index].template.statement
                else {
                    continue;
                };
                let Value::Int(pk) = e.params[0] else {
                    panic!("fresh pk is an integer: {:?}", e.params[0]);
                };
                assert!(pk >= loaded[&table], "{table:?}: fresh pk {pk} was loaded");
                assert!(drawn.insert((table, pk)), "{table:?}: pk {pk} drawn twice");
            }
        }
        assert!(drawn.len() > 1, "the runs drew {} fresh keys", drawn.len());
    }
}
