//! What a hydrated tenant's storage holds does not depend on how it was
//! put there: statistics are the stable sort's, and a bulk-built index is
//! entry for entry the one row-by-row inserts would have made.

use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use sqlmini::index::SecondaryIndex;
use sqlmini::stats::{ColumnStats, TableStats};
use workload::fleet::{generate_tenant, Tenant, TenantConfig};

/// Fifty tenants as a fleet generates them, Basic and Standard mixed.
fn tenants() -> impl Iterator<Item = Tenant> {
    (0..50u64).map(|seed| {
        let tier = if seed % 5 == 0 {
            ServiceTier::Standard
        } else {
            ServiceTier::Basic
        };
        generate_tenant(&TenantConfig::new(format!("t{seed}"), 9_000 + seed, tier))
    })
}

/// `ColumnStats::build` sorts unstably. Over generated data (no negative
/// zero) that must not move one bit of any table's statistics, so compare
/// `Debug` renderings, which tell `-0.0` from `0.0`, against statistics
/// assembled from stably sorted columns.
#[test]
fn statistics_are_the_stable_sorts_bit_for_bit() {
    let (mut tables, mut columns) = (0, 0);
    for tenant in tenants() {
        for (table, def) in tenant.db.catalog().tables() {
            let heap = tenant.db.heap(table).expect("table has a heap");
            let got = TableStats::build_full(heap);
            assert_eq!(got.row_count as usize, heap.len());
            assert_eq!(got.columns.len(), def.columns.len());
            for (c, got) in got.columns.iter().enumerate() {
                let mut positions: Vec<f64> = heap
                    .live_ids()
                    .map(|rid| heap.value(rid, c))
                    .filter(|v| !v.is_null())
                    .map(|v| v.as_f64())
                    .collect();
                let nulls = heap.len() - positions.len();
                positions.sort_by(|a, b| a.partial_cmp(b).expect("no NaN is generated"));
                let want = ColumnStats::of_sorted(&positions, nulls, 1.0);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "{}.{}",
                    tenant.name,
                    def.columns[c].name
                );
                columns += 1;
            }
            tables += 1;
        }
    }
    assert!(
        tables >= 100 && columns >= 400,
        "{tables} tables, {columns} columns"
    );
}

/// Every index a tenant is hydrated with (bulk-built) is well formed and
/// lists exactly what an index filled by `insert_row` lists, in order.
#[test]
fn bulk_built_indexes_equal_insert_built_ones() {
    let entries = |ix: &SecondaryIndex| -> Vec<_> {
        let all = ix.scan_all().entries.into_iter();
        all.map(|e| (e.rid, e.key_vals, e.included_vals)).collect()
    };
    let mut indexes = 0;
    for tenant in tenants() {
        let catalog = tenant.db.catalog();
        for (id, def) in catalog.indexes() {
            let live = tenant
                .db
                .secondary_index(id)
                .expect("index is materialized");
            live.check_invariants()
                .unwrap_or_else(|e| panic!("{}.{}: {e}", tenant.name, def.name));
            let tdef = catalog.table(def.table).expect("indexed table exists");
            let heap = tenant.db.heap(def.table).expect("table has a heap");
            let mut inserted = SecondaryIndex::new(def.clone(), tdef);
            for rid in heap.live_ids() {
                inserted.insert_row(rid, &heap.row(rid).expect("a listed row is live"));
            }
            assert_eq!(live.len(), heap.len());
            assert!(
                entries(live) == entries(&inserted),
                "{}.{} differs from its insert-built twin",
                tenant.name,
                def.name
            );
            indexes += 1;
        }
    }
    assert!(indexes >= 100, "{indexes} indexes");
}

/// The tenant shapes the repository benchmark drives (the tier presets
/// of `benchmark/src/presets.rs`, its write-heavy Premium and its
/// provably idle tenant), as `TenantConfig`s.
fn benchmark_shapes(seed: u64) -> Vec<TenantConfig> {
    let preset = |tier, tables: Option<(usize, usize)>, rows: (u64, u64), rate, writes| {
        let mut cfg = TenantConfig::new(format!("b{seed}"), seed, tier);
        if let Some((lo, hi)) = tables {
            cfg.schema.min_tables = lo;
            cfg.schema.max_tables = hi;
        }
        (cfg.schema.min_rows, cfg.schema.max_rows) = rows;
        cfg.workload.base_rate_per_hour = rate;
        cfg.workload.write_fraction = writes;
        cfg
    };
    let basic = preset(ServiceTier::Basic, None, (1_000, 4_000), 50.0, 0.12);
    let mut standard = preset(
        ServiceTier::Standard,
        Some((2, 4)),
        (2_000, 10_000),
        150.0,
        0.12,
    );
    standard.db.cpu_noise_sigma = 0.25;
    let premium = |rate, writes| {
        let mut cfg = preset(
            ServiceTier::Premium,
            Some((3, 5)),
            (5_000, 15_000),
            rate,
            writes,
        );
        cfg.workload.reads_per_table = 6;
        cfg.db.cpu_noise_sigma = 0.20;
        cfg
    };
    let mut idle = preset(ServiceTier::Basic, Some((1, 1)), (50, 100), 0.0, 0.0);
    idle.workload.reads_per_table = 0;
    idle.workload.with_joins = false;
    idle.workload.with_report = false;
    vec![
        basic,
        standard,
        premium(250.0, 0.12),
        premium(20.0, 0.5),
        idle,
    ]
}

/// Generators write only values that fit: a tenant of every shape the
/// benchmark drives, generated and then run for six hours of its own
/// statements, has every write accepted. The engine refuses a write whose
/// value does not fit its column's declared type (`ExecError::TypeMismatch`,
/// counted in `summary.errors`), and a load of one panics, so a generator
/// or parameter change that drew a value of the wrong type fails here
/// before it moves the benchmark.
#[test]
fn benchmark_tenants_write_only_values_that_fit() {
    let mut statements = 0;
    for seed in [42, 7, 1234] {
        for cfg in benchmark_shapes(seed) {
            let mut tenant = generate_tenant(&cfg);
            let summary =
                (tenant.runner).run(&mut tenant.db, &tenant.model, Duration::from_hours(6));
            assert_eq!(summary.errors, 0, "{:?} {:?}", cfg.name, cfg.tier);
            statements += summary.statements;
        }
    }
    assert!(statements > 1_000, "{statements} statements");
}
