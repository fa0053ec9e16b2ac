//! Recommender integration over generated tenants: MI and DTA operating
//! on realistic multi-table workloads rather than hand-built fixtures.

use autoindex::classifier::ImpactClassifier;
use autoindex::coverage::{mi_coverage, workload_coverage};
use autoindex::drops::{recommend_drops, DropConfig};
use autoindex::dta::{tune, DtaConfig};
use autoindex::mi::{recommend, MiConfig, MiSnapshotStore};
use autoindex::RecoAction;
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::ServiceTier;
use sqlmini::querystore::Metric;
use workload::{generate_tenant, TenantConfig};

fn tenant(seed: u64) -> workload::Tenant {
    let mut cfg = TenantConfig::new(format!("ri{seed}"), seed, ServiceTier::Standard);
    cfg.schema.min_tables = 2;
    cfg.schema.max_tables = 3;
    cfg.schema.min_rows = 3_000;
    cfg.schema.max_rows = 8_000;
    cfg.workload.base_rate_per_hour = 200.0;
    cfg.user_indexes.n_useful = 0;
    cfg.user_indexes.n_duplicate = 0;
    cfg.user_indexes.n_unused = 0;
    generate_tenant(&cfg)
}

#[test]
fn mi_pipeline_on_generated_workload() {
    let mut t = tenant(1);
    let mut store = MiSnapshotStore::new();
    for _ in 0..8 {
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(1));
        store.take_snapshot(&t.db);
    }
    assert!(
        store.tracked() > 0,
        "generated workload must create MI demand"
    );
    let analysis = recommend(
        &t.db,
        &store,
        &MiConfig::default(),
        &ImpactClassifier::default(),
    );
    assert!(
        !analysis.recommendations.is_empty(),
        "untuned tenant must yield MI recommendations: {analysis:?}"
    );
    // Every recommendation is well-formed: auto origin, non-empty keys,
    // positive size estimate, and names are unique.
    let mut names = Vec::new();
    for r in &analysis.recommendations {
        let RecoAction::CreateIndex { def } = &r.action else {
            panic!("MI only creates");
        };
        assert!(!def.key_columns.is_empty());
        assert!(r.estimated_size_bytes > 0);
        assert!(r.estimated_benefit > 0.0);
        names.push(def.name.clone());
    }
    names.sort();
    names.dedup();
    assert_eq!(names.len(), analysis.recommendations.len());
}

#[test]
fn dta_session_on_generated_workload_reports_coverage() {
    let mut t = tenant(2);
    t.runner.run(&mut t.db, &t.model, Duration::from_hours(10));
    let report = tune(
        &mut t.db,
        &DtaConfig {
            window: Duration::from_hours(10),
            optimizer_call_budget: 100_000,
            ..DtaConfig::default()
        },
    );
    assert!(!report.aborted);
    assert!(
        report.coverage > 0.5,
        "top-25 selection must cover most resources: {}",
        report.coverage
    );
    assert!(report.baseline_cost > 0.0);
    assert!(report.final_cost <= report.baseline_cost);
    // The coverage function agrees when recomputed externally.
    let now = t.db.clock().now();
    let recomputed = workload_coverage(
        &t.db,
        &report.analyzed,
        Metric::CpuTime,
        Timestamp(
            now.millis()
                .saturating_sub(Duration::from_hours(10).millis()),
        ),
        now,
    );
    assert!((recomputed - report.coverage).abs() < 1e-9);
}

#[test]
fn mi_and_dta_converge_on_the_same_hot_tables() {
    let mut t = tenant(3);
    let mut store = MiSnapshotStore::new();
    for _ in 0..10 {
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(1));
        store.take_snapshot(&t.db);
    }
    let mi = recommend(
        &t.db,
        &store,
        &MiConfig::default(),
        &ImpactClassifier::default(),
    );
    let dta = tune(
        &mut t.db,
        &DtaConfig {
            window: Duration::from_hours(10),
            optimizer_call_budget: 100_000,
            ..DtaConfig::default()
        },
    );
    if mi.recommendations.is_empty() || dta.recommendations.is_empty() {
        return; // nothing to compare on this seed
    }
    let tables = |rs: &[autoindex::Recommendation]| -> Vec<u32> {
        let mut v: Vec<u32> = rs
            .iter()
            .filter_map(|r| match &r.action {
                RecoAction::CreateIndex { def } => Some(def.table.0),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let mi_tables = tables(&mi.recommendations);
    let dta_tables = tables(&dta.recommendations);
    assert!(
        mi_tables.iter().any(|t| dta_tables.contains(t)),
        "complementary recommenders should at least agree on a hot table: MI {mi_tables:?}, DTA {dta_tables:?}"
    );
}

#[test]
fn implementing_dta_recommendations_improves_estimated_workload() {
    let mut t = tenant(4);
    t.runner.run(&mut t.db, &t.model, Duration::from_hours(8));
    let report = tune(
        &mut t.db,
        &DtaConfig {
            window: Duration::from_hours(8),
            optimizer_call_budget: 100_000,
            ..DtaConfig::default()
        },
    );
    if report.recommendations.is_empty() {
        return;
    }
    for r in &report.recommendations {
        if let RecoAction::CreateIndex { def } = &r.action {
            t.db.create_index(def.clone()).unwrap();
        }
    }
    // Re-tuning immediately after implementation finds little left.
    let second = tune(
        &mut t.db,
        &DtaConfig {
            window: Duration::from_hours(8),
            optimizer_call_budget: 100_000,
            ..DtaConfig::default()
        },
    );
    assert!(
        second.improvement_frac() < report.improvement_frac() + 1e-9,
        "second pass must not find more than the first: {} vs {}",
        second.improvement_frac(),
        report.improvement_frac()
    );
}

#[test]
fn drop_analysis_on_generated_tenant_with_cruft() {
    let mut cfg = TenantConfig::new("cruft", 5, ServiceTier::Standard);
    cfg.schema.min_tables = 2;
    cfg.schema.max_tables = 2;
    cfg.schema.min_rows = 2_000;
    cfg.schema.max_rows = 4_000;
    cfg.user_indexes.n_useful = 2;
    cfg.user_indexes.n_duplicate = 2;
    cfg.user_indexes.n_unused = 2;
    cfg.user_indexes.hint_prob = 0.0;
    let mut t = generate_tenant(&cfg);
    let start = t.db.clock().now();
    t.runner.run(&mut t.db, &t.model, Duration::from_hours(12));
    t.db.clock().advance(Duration::from_days(60));
    let props = recommend_drops(&t.db, &DropConfig::default(), start);
    assert!(
        !props.is_empty(),
        "duplicates and unused indexes must be flagged"
    );
    // Proposals never exceed the index population and never repeat.
    let mut ids: Vec<String> = props.iter().map(|r| format!("{:?}", r.action)).collect();
    let before = ids.len();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), before, "no duplicate drop proposals");
    assert!(props.len() <= t.db.catalog().n_indexes());
}

#[test]
fn mi_coverage_reflects_write_fraction() {
    let mut heavy = TenantConfig::new("wh", 6, ServiceTier::Standard);
    heavy.workload.write_fraction = 0.6;
    heavy.schema.min_tables = 2;
    heavy.schema.max_tables = 2;
    heavy.schema.min_rows = 2_000;
    heavy.schema.max_rows = 4_000;
    let mut t = generate_tenant(&heavy);
    t.runner.run(&mut t.db, &t.model, Duration::from_hours(6));
    let now = t.db.clock().now();
    let cov = mi_coverage(&t.db, Metric::CpuTime, Timestamp::EPOCH, now + Duration(1));
    assert!(
        cov < 0.999,
        "a write-heavy workload cannot be fully MI-covered: {cov}"
    );
    assert!(cov > 0.2, "reads still dominate CPU: {cov}");
}
