//! What a hydrated tenant's storage holds does not depend on how it was
//! put there: statistics are the stable sort's, and a bulk-built index is
//! entry for entry the one row-by-row inserts would have made.

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
                let want = ColumnStats::from_sorted(&positions, nulls, 1.0);
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
