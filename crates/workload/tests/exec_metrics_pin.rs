//! A direct witness of the executor's accounting.
//!
//! The fleet digests prove that `ActualMetrics` are stable only through
//! Query Store aggregates and control-plane decisions; `cpu_us` is an
//! ordered `f64` sum, so a change in the *order* of the executor's
//! `add_*` calls can move its low bits without moving any digest. This
//! test folds every statement's metrics, bit for bit, into one constant.

use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, Tenant, TenantConfig};
use workload::model::TemplateKind;
use workload::runner::Trace;

/// A Standard tenant (seed chosen so that six hours run all twelve
/// template kinds, the join and the report among them); small enough
/// that the replay takes well under a second.
fn pinned_tenant() -> Tenant {
    let mut cfg = TenantConfig::new("pin", 19, ServiceTier::Standard);
    cfg.schema.min_tables = 3;
    cfg.schema.max_tables = 3;
    cfg.schema.min_rows = 1_000;
    cfg.schema.max_rows = 4_000;
    cfg.workload.base_rate_per_hour = 400.0;
    generate_tenant(&cfg)
}

/// Six hours of the tenant's own statement stream, recorded on a copy
/// that is then dropped.
fn recorded_trace() -> Trace {
    let mut recorder = pinned_tenant();
    let (summary, trace) =
        recorder
            .runner
            .run_traced(&mut recorder.db, &recorder.model, Duration::from_hours(6));
    assert_eq!(summary.errors, 0);
    trace
}

fn fnv1a(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Two folds, so that a change to index *storage* can be told from a
/// change to what a statement *computes*. `rows_returned` and
/// `rows_examined` depend only on the data and the plan: no B+tree
/// layout may move them. `logical_reads`, `logical_writes` and `cpu_us`
/// count tree pages, so they move whenever an index's shape does; that
/// half is re-pinned when (and only when) the shape changes on purpose,
/// with the sums written beside it so the size of the move is visible.
#[test]
fn replayed_statement_metrics_are_pinned_bit_for_bit() {
    let trace = recorded_trace();
    let mut replica = pinned_tenant();
    let mut kinds = std::collections::BTreeSet::new();
    let mut shape_free: u64 = 0xcbf2_9ce4_8422_2325;
    let mut shape_dependent: u64 = 0xcbf2_9ce4_8422_2325;
    let (mut reads, mut writes, mut cpu_us) = (0u64, 0u64, 0.0f64);
    for event in &trace.events {
        let spec = &replica.model.templates[event.template_index];
        kinds.insert(spec.kind);
        replica.db.clock().advance_to(event.at);
        let m = replica
            .db
            .execute(&spec.template, &event.params)
            .expect("clean replay")
            .metrics;
        for word in [m.rows_returned, m.rows_examined] {
            fnv1a(&mut shape_free, word);
        }
        for word in [m.logical_reads, m.logical_writes, m.cpu_us.to_bits()] {
            fnv1a(&mut shape_dependent, word);
        }
        reads += m.logical_reads;
        writes += m.logical_writes;
        cpu_us += m.cpu_us;
    }
    assert_eq!(kinds.len(), 12, "trace misses a template kind: {kinds:?}");
    assert!(kinds.contains(&TemplateKind::JoinQuery) && kinds.contains(&TemplateKind::Report));
    assert_eq!(trace.events.len(), 1369, "statement count");
    assert_eq!(
        shape_free, 0xe3da_1e12_e814_d544,
        "rows returned/examined hash {shape_free:#018x}"
    );
    // Bulk-built trees (`BTree::from_columns` at `BUILD_FILL`). With every
    // index inserted row by row, as before: 0x3412112781e8bd75 and
    // (13_322, 1_278, "286989.27", 1_581_056).
    let sums = (
        reads,
        writes,
        format!("{cpu_us:.2}"),
        replica.db.storage_bytes(),
    );
    assert_eq!(
        shape_dependent, 0x5d1d_5bb7_4179_4be2,
        "reads/writes/cpu hash {shape_dependent:#018x}, sums {sums:?}"
    );
    assert_eq!(sums, (13_337, 1_262, "286956.15".to_string(), 1_540_096));
}

/// `Database::execute` (count only) and `Database::query` (rows too) are
/// one kernel: over the same trace, two clones of one database end up
/// indistinguishable in everything the control plane can observe.
#[test]
fn execute_and_query_leave_identical_databases() {
    use sqlmini::querystore::Metric;

    let trace = recorded_trace();
    let tenant = pinned_tenant();
    let (mut counted, mut queried) = (tenant.db.clone(), tenant.db.clone());
    counted.detach_clock();
    queried.detach_clock();
    let start = counted.clock().now();
    let mut rows_built = 0u64;
    for event in &trace.events {
        let spec = &tenant.model.templates[event.template_index];
        counted.clock().advance_to(event.at);
        queried.clock().advance_to(event.at);
        let a = counted.execute(&spec.template, &event.params).unwrap();
        let (b, rows) = queried.query(&spec.template, &event.params).unwrap();
        assert_eq!(a.metrics.cpu_us.to_bits(), b.metrics.cpu_us.to_bits());
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.duration_us.to_bits(), b.duration_us.to_bits());
        assert_eq!((a.query_id, a.plan_id), (b.query_id, b.plan_id));
        if !spec.kind.is_write() {
            assert_eq!(rows.len() as u64, b.metrics.rows_returned);
        }
        rows_built += rows.len() as u64;
    }
    assert!(rows_built > 0, "query never returned a row");

    let end = counted.clock().now();
    for metric in [Metric::CpuTime, Metric::LogicalReads, Metric::Duration] {
        let a = counted.query_store().total_resources(metric, start, end);
        let b = queried.query_store().total_resources(metric, start, end);
        assert_eq!(a.to_bits(), b.to_bits(), "{metric:?}");
    }
    assert_eq!(
        counted.total_cpu_us.to_bits(),
        queried.total_cpu_us.to_bits()
    );
    assert_eq!(counted.storage_bytes(), queried.storage_bytes());
    assert_eq!(counted.mi_dmv().snapshot(), queried.mi_dmv().snapshot());
    let usage = |db: &sqlmini::engine::Database| -> Vec<_> {
        db.usage_dmv().all().map(|(id, u)| (id, *u)).collect()
    };
    assert_eq!(usage(&counted), usage(&queried));
    assert!(!usage(&counted).is_empty());
}
