//! Observability-layer invariants, spanning crates.
//!
//! The metrics registry's merge must be a commutative monoid — that is
//! the algebraic fact that lets the fleet driver merge shard-owned
//! registries in fleet order and still promise byte-identical results
//! for any thread count. The dashboard snapshot is a pure function of
//! the merged telemetry counts and the merged registry, so the §8.1 ops
//! table inherits the same parallel-equals-serial guarantee; and turning tracing on must never
//! perturb the canonical fleet state.

use controlplane::{
    FleetDriver, FleetDriverConfig, Histogram, MetricsRegistry, PlanePolicy, Tracer,
};
use proptest::prelude::*;
use sqlmini::clock::Duration;
use workload::fleet::{generate_fleet, TierMix};

// ---------------------------------------------------------------------
// Registry algebra
// ---------------------------------------------------------------------

/// One random mutation of a registry: a counter bump, a gauge move, or
/// a histogram observation — over a small key space so merges collide.
#[derive(Debug, Clone)]
enum MetricOp {
    Inc(u8, u16),
    Gauge(u8, i16),
    Observe(u8, u32),
}

fn metric_op() -> impl Strategy<Value = MetricOp> {
    prop_oneof![
        (any::<u8>(), any::<u16>()).prop_map(|(k, v)| MetricOp::Inc(k % 5, v)),
        (any::<u8>(), any::<i16>()).prop_map(|(k, v)| MetricOp::Gauge(k % 3, v)),
        (any::<u8>(), any::<u32>()).prop_map(|(k, v)| MetricOp::Observe(k % 2, v)),
    ]
}

fn registry_from(ops: &[MetricOp]) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    for op in ops {
        match op {
            MetricOp::Inc(k, v) => m.add(&format!("c{k}"), *v as u64),
            MetricOp::Gauge(k, v) => m.gauge_add(&format!("g{k}"), *v as i64),
            MetricOp::Observe(k, v) => {
                m.observe_with(&format!("h{k}"), *v as u64, &Histogram::count_bounds())
            }
        }
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge is commutative: a ⊕ b == b ⊕ a for random registries.
    #[test]
    fn metrics_merge_commutes(
        a in proptest::collection::vec(metric_op(), 0..40),
        b in proptest::collection::vec(metric_op(), 0..40),
    ) {
        let (ra, rb) = (registry_from(&a), registry_from(&b));
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        prop_assert_eq!(ab, ba);
    }

    /// merge is associative: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), and the empty
    /// registry is the identity on both sides.
    #[test]
    fn metrics_merge_associates_with_identity(
        a in proptest::collection::vec(metric_op(), 0..30),
        b in proptest::collection::vec(metric_op(), 0..30),
        c in proptest::collection::vec(metric_op(), 0..30),
    ) {
        let (ra, rb, rc) = (registry_from(&a), registry_from(&b), registry_from(&c));
        let mut left = ra.clone();
        left.merge(&rb);
        left.merge(&rc);
        let mut bc = rb.clone();
        bc.merge(&rc);
        let mut right = ra.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);

        let mut with_empty = ra.clone();
        with_empty.merge(&MetricsRegistry::new());
        prop_assert_eq!(&with_empty, &ra);
        let mut empty = MetricsRegistry::new();
        empty.merge(&ra);
        prop_assert_eq!(&empty, &ra);
    }
}

// ---------------------------------------------------------------------
// Fleet-level determinism of the dashboard
// ---------------------------------------------------------------------

fn observability_driver(fault_seed: u64) -> FleetDriver {
    FleetDriver::new(FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        fault_seed: Some(fault_seed),
        fault_transient_prob: 0.1,
        fault_fatal_prob: 0.01,
        auto_fraction: Some(0.5),
        ..FleetDriverConfig::default()
    })
}

fn basic_fleet(n: usize, seed: u64) -> Vec<workload::fleet::Tenant> {
    generate_fleet(
        n,
        TierMix {
            basic: 1.0,
            standard: 0.0,
            premium: 0.0,
        },
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// For random fleets, seeds, and thread counts, the parallel run's
    /// merged metrics and §8.1 snapshot are identical to the serial
    /// run's — the observability layer obeys the same determinism
    /// contract as the fleet state itself.
    #[test]
    fn parallel_dashboard_matches_serial(
        n_tenants in 2usize..=5,
        ticks in 2u32..=5,
        threads in 2usize..=4,
        seed in any::<u16>(),
    ) {
        let driver = observability_driver(seed as u64 ^ 0x0B5E7);
        let serial = driver.run(basic_fleet(n_tenants, seed as u64), ticks, 1);
        let parallel = driver.run(basic_fleet(n_tenants, seed as u64), ticks, threads);
        prop_assert_eq!(serial.metrics.clone(), parallel.metrics.clone());
        prop_assert_eq!(serial.dashboard(), parallel.dashboard());
        prop_assert_eq!(serial.dashboard().render(), parallel.dashboard().render());
    }
}

#[test]
fn tracing_does_not_perturb_fleet_state() {
    // Every tenant of a fleet under its own faulted control plane,
    // tracing off vs on: the journal, the telemetry counters, the
    // metrics and the final indexes must not move by a byte, while the
    // traced planes really record a span per pass.
    use controlplane::plane::{ControlPlane, ManagedDb};
    use controlplane::{counters_line, DbSettings, FaultInjector, ServerSettings};
    let drive = |tenant: workload::fleet::Tenant, traced: bool| {
        let workload::fleet::Tenant {
            mut db,
            model,
            mut runner,
            ..
        } = tenant;
        db.detach_clock();
        let mut mdb = ManagedDb::new(db, DbSettings::all_on(), ServerSettings::default());
        let mut plane = ControlPlane::new(PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        })
        .with_faults(FaultInjector::uniform(0xFEED, 0.1, 0.01));
        if traced {
            plane = plane.with_tracing();
        }
        for _ in 0..6 {
            let hour = Duration::from_hours(1);
            runner.run_slice_into(&mut mdb.db, &model, hour, &mut Default::default());
            plane.tick(&mut mdb);
        }
        let indexes: Vec<String> = mdb
            .db
            .catalog()
            .indexes()
            .map(|(_, d)| d.name.clone())
            .collect();
        let state = (
            plane.store.journal_lines().to_vec(),
            counters_line(&plane.telemetry),
            plane.metrics,
            indexes,
        );
        (state, plane.tracer.roots().len())
    };
    for (a, b) in basic_fleet(4, 99).into_iter().zip(basic_fleet(4, 99)) {
        let (plain, no_spans) = drive(a, false);
        let (traced, spans) = drive(b, true);
        assert_eq!(plain, traced);
        assert_eq!((no_spans, spans), (0, 6), "one root span per traced pass");
    }
}

#[test]
fn dashboard_foots_with_telemetry() {
    use controlplane::EventKind;
    let report = observability_driver(0xACE).run(basic_fleet(5, 7), 5, 3);
    let dash = report.dashboard();
    assert_eq!(dash.databases, 5);
    // The identities between records that stay independent: the
    // per-action split foots with the event count it splits...
    assert_eq!(
        dash.implemented_creates + dash.implemented_drops,
        report.telemetry.count(EventKind::ImplementSucceeded),
        "metrics and telemetry must agree on implemented actions"
    );
    // ...and revert causes and sources each decompose the revert total.
    assert_eq!(dash.revert_causes.values().sum::<u64>(), dash.reverts);
    assert_eq!(dash.reverts_by_source.values().sum::<u64>(), dash.reverts);
    // The auto-fraction gauge summed over shards stays within the fleet.
    assert!(dash.auto_databases <= dash.databases);
}

#[test]
fn trace_spans_cover_the_tick_pipeline() {
    use controlplane::plane::{ControlPlane, ManagedDb};
    use controlplane::{DbSettings, ServerSettings};
    use sqlmini::clock::SimClock;
    use sqlmini::engine::{Database, DbConfig};
    use sqlmini::schema::{ColumnDef, TableDef};
    use sqlmini::types::ValueType;

    let mut db = Database::new("tracedb", DbConfig::default(), SimClock::new());
    db.create_table(TableDef::new(
        "t",
        vec![ColumnDef::new("id", ValueType::Int)],
    ))
    .unwrap();
    let mut mdb = ManagedDb::new(db, DbSettings::all_on(), ServerSettings::default());
    let mut plane = ControlPlane::new(PlanePolicy::default()).with_tracing();
    mdb.db.clock().advance(Duration::from_hours(1));
    plane.tick(&mut mdb);
    let roots = plane.tracer.roots();
    assert_eq!(roots.len(), 1, "one root span per tick");
    let tick = &roots[0];
    assert_eq!(tick.name, "tick");
    assert!(tick.attr("db_hash").is_some(), "tick is tagged anonymously");
    let phases: Vec<&str> = tick.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        phases,
        [
            "recommend",
            "retry",
            "implement",
            "validate",
            "expire",
            "health"
        ],
        "pipeline phases in execution order"
    );
    // Spans are sim-clock timestamped and exportable.
    let json = plane.tracer.export_json();
    assert!(json.contains("\"recommend\""), "{json}");
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::disabled();
    t.start("x", sqlmini::clock::Timestamp(0));
    t.end(sqlmini::clock::Timestamp(5));
    assert!(t.roots().is_empty());
    assert!(!t.is_enabled());
}

// ---------------------------------------------------------------------
// Flight verdict aggregation (§7 policy A/B → §8.1 dashboard)
// ---------------------------------------------------------------------
//
// Hand-computed references for the region-level ship/no-ship rule:
// per-tenant Welch verdicts compose across the cohort, a single
// regression vetoes everything, and the dashboard flight block foots
// with the tallies.

mod flight_verdicts {
    use controlplane::{
        region_decision, tenant_verdict, DashboardSnapshot, FlightDecision, MetricsRegistry,
        Telemetry, TenantVerdict,
    };
    use experiment::{pool_samples, CostSample};
    use sqlmini::clock::Duration;

    fn s(total: f64, variance: f64, df: f64) -> CostSample {
        CostSample {
            total,
            variance,
            df,
            queries: 10,
        }
    }

    /// Welch t hand-check: control 1000±10 vs candidate 800±10.
    /// t = (800 − 1000) / √(100 + 100) = −14.14 with Welch df
    /// (100+100)² / (100²/30 + 100²/30) = 60 — overwhelming evidence
    /// the candidate is cheaper, and 200 ≫ the 1% margin (10).
    #[test]
    fn hand_computed_improvement() {
        let (v, p) = tenant_verdict(&s(1000.0, 100.0, 30.0), &s(800.0, 100.0, 30.0), 0.05, 0.01);
        assert_eq!(v, TenantVerdict::Improved);
        assert!(p.unwrap() > 0.999, "p_b_greater = {:?}", p);
    }

    /// Welch t hand-check near the null: control 100, var 16, df 8 vs
    /// candidate 106, var 9, df 8. t = 6/√25 = 1.2, Welch df
    /// 25² / (16²/8 + 9²/8) = 625/42.125 ≈ 14.8; one-sided
    /// p(candidate costlier) ≈ 0.124 — not significant at α=0.05, so a
    /// 6% cost increase is (correctly) a wash, not a regression.
    #[test]
    fn hand_computed_insignificant_regression_is_wash() {
        let (v, p) = tenant_verdict(&s(100.0, 16.0, 8.0), &s(106.0, 9.0, 8.0), 0.05, 0.01);
        assert_eq!(v, TenantVerdict::Wash);
        let p = p.unwrap();
        assert!((0.10..0.15).contains(&p), "p_b_greater = {p}");
    }

    /// The practical-significance margin is strict: a statistically
    /// overwhelming 1.0% improvement does not clear a 1% margin
    /// (10.0 > 10.0 is false) — verdicts require *more* than margin.
    #[test]
    fn margin_boundary_is_strict() {
        let (v, p) = tenant_verdict(&s(1000.0, 0.01, 30.0), &s(990.0, 0.01, 30.0), 0.05, 0.01);
        assert_eq!(v, TenantVerdict::Wash);
        assert!(p.unwrap() > 0.999, "significance was never in doubt");
        // One epsilon past the margin flips it.
        let (v, _) = tenant_verdict(&s(1000.0, 0.01, 30.0), &s(989.9, 0.01, 30.0), 0.05, 0.01);
        assert_eq!(v, TenantVerdict::Improved);
    }

    /// All-wash composition: a cohort where no tenant moved must abort
    /// — shipping requires positive evidence, not absence of harm.
    #[test]
    fn all_wash_cohort_aborts() {
        let verdicts = [TenantVerdict::Wash; 8];
        assert_eq!(region_decision(verdicts.iter()), FlightDecision::Abort);
    }

    /// Single-tenant-dominates composition, both directions: one
    /// improvement among washes ships; one regression among many
    /// improvements vetoes the ship.
    #[test]
    fn single_tenant_dominates() {
        let mut mostly_wash = vec![TenantVerdict::Wash; 7];
        mostly_wash.push(TenantVerdict::Improved);
        assert_eq!(region_decision(mostly_wash.iter()), FlightDecision::Ship);

        let mut mostly_improved = vec![TenantVerdict::Improved; 7];
        mostly_improved.push(TenantVerdict::Regressed);
        assert_eq!(
            region_decision(mostly_improved.iter()),
            FlightDecision::Abort
        );
    }

    /// Discarded tenants are evidence-free: they neither ship nor veto.
    #[test]
    fn discarded_tenants_are_neutral() {
        use TenantVerdict::*;
        assert_eq!(
            region_decision([Discarded, Discarded].iter()),
            FlightDecision::Abort
        );
        assert_eq!(
            region_decision([Improved, Discarded].iter()),
            FlightDecision::Ship
        );
    }

    /// Pooling per-tenant samples (Welch–Satterthwaite composition)
    /// then comparing pooled arms agrees with the hand computation:
    /// (10, var 4, df 4) + (20, var 9, df 9) pools to
    /// total 30, var 13, df 13² /(4²/4 + 9²/9) = 169/13 = 13.
    #[test]
    fn pooled_samples_compose_hand_checked() {
        let pooled = pool_samples(&[
            CostSample {
                total: 10.0,
                variance: 4.0,
                df: 4.0,
                queries: 3,
            },
            CostSample {
                total: 20.0,
                variance: 9.0,
                df: 9.0,
                queries: 4,
            },
        ]);
        assert_eq!(pooled.total, 30.0);
        assert_eq!(pooled.variance, 13.0);
        assert!((pooled.df - 13.0).abs() < 1e-9);
        assert_eq!(pooled.queries, 7);
        // A pooled region-level comparison yields the same verdict
        // machinery as any per-tenant one.
        let control = pool_samples(&[s(500.0, 50.0, 15.0), s(500.0, 50.0, 15.0)]);
        let candidate = pool_samples(&[s(400.0, 50.0, 15.0), s(400.0, 50.0, 15.0)]);
        let (v, _) = tenant_verdict(&control, &candidate, 0.05, 0.01);
        assert_eq!(v, TenantVerdict::Improved);
    }

    /// The dashboard flight block foots with the verdict tallies and
    /// renders the ship/abort label verbatim.
    #[test]
    fn dashboard_flight_block_foots() {
        let empty = || {
            DashboardSnapshot::new(
                &Telemetry::new(),
                &MetricsRegistry::new(),
                Duration::from_hours(1),
            )
        };
        let dash = empty().with_flight(12, 3, 0, 8, 1, "ship");
        let rendered = dash.render();
        for needle in [
            "flight (\u{a7}7 policy A/B)",
            "cohort tenants",
            "      12",
            "ship",
        ] {
            assert!(rendered.contains(needle), "missing {needle:?}:\n{rendered}");
        }
        // Absent a flight, the block stays out of the dashboard.
        assert!(!empty().render().contains("flight ("));
    }
}

// ---------------------------------------------------------------------
// Single-source pin
// ---------------------------------------------------------------------
//
// Two seeded chaos fleets on which every §8.1 dashboard line, every
// verdict and every recovery path is non-zero. What an operator reads —
// the rendered dashboard, the counters line, the canonical digest, and
// the registry's counters, gauges and histograms — is pinned byte for
// byte, serial and on 3 threads, so a change to *where* a number is kept
// can be told from a change to the number.

mod single_source_pin {
    use super::basic_fleet;
    use autoindex::dta::DtaConfig;
    use autoindex::validator::ValidatorConfig;
    use controlplane::plane::{ControlPlane, ManagedDb};
    use controlplane::store::CompactionPolicy;
    use controlplane::{
        counters_line, DbSettings, EventKind, FaultKind, FaultPoint, FleetDriver,
        FleetDriverConfig, FleetReport, MetricsRegistry, PlanePolicy, RecoState, RecommenderPolicy,
        ServerSettings, TenantScript,
    };
    use sqlmini::clock::Duration;
    use std::collections::BTreeSet;

    /// Faults at 0.1 / 0.01, half the fleet on auto, a two-tick breaker,
    /// compaction every few frames, and scripts arming two journal tears
    /// (consecutive, so the breaker trips on them), two torn checkpoints
    /// and one worker panic.
    fn chaos_driver(policy: PlanePolicy, fault_seed: u64) -> FleetDriver {
        let script = |tenant, point, count, at_tick| TenantScript {
            tenant,
            point,
            count,
            kind: FaultKind::Transient,
            at_tick,
        };
        FleetDriver::new(FleetDriverConfig {
            policy: PlanePolicy {
                analysis_interval: Duration::from_hours(2),
                validation_min_wait: Duration::from_hours(1),
                reco_expiry: Duration::from_hours(6),
                journal: CompactionPolicy {
                    enabled: true,
                    min_frames: 4,
                    garbage_ratio: 0.5,
                },
                ..policy
            },
            fault_seed: Some(fault_seed),
            fault_transient_prob: 0.1,
            fault_fatal_prob: 0.01,
            auto_fraction: Some(0.5),
            quarantine_threshold: 2,
            quarantine_cooldown: 2,
            scripts: vec![
                script(0, FaultPoint::JournalTear, 1, 5),
                script(0, FaultPoint::JournalTear, 1, 6),
                script(1, FaultPoint::CheckpointTear, 2, 0),
                script(2, FaultPoint::TenantPanic, 1, 9),
            ],
            ..FleetDriverConfig::default()
        })
    }

    /// Fleet A: the default validator, so all four verdicts occur, and a
    /// validation wait short enough for no-data and inconclusive ones.
    fn fleet_a(threads: usize) -> FleetReport {
        let policy = PlanePolicy {
            validation_max_wait: Duration::from_hours(4),
            ..PlanePolicy::default()
        };
        chaos_driver(policy, 0x51D1).run(basic_fleet(16, 7), 48, threads)
    }

    /// Fleet B: DTA for everyone on a 60-call what-if budget (so sessions
    /// abort on budget *and* on injected faults), a validator that calls
    /// every change a regression (so every implemented action reverts and
    /// reverts fail), one retry, and a stuck horizon shorter than the
    /// validation wait (so the health stage closes what validation would
    /// have).
    fn fleet_b(threads: usize) -> FleetReport {
        let policy = PlanePolicy {
            recommender: RecommenderPolicy::DtaOnly,
            dta: DtaConfig {
                optimizer_call_budget: 60,
                ..DtaConfig::default()
            },
            validator: ValidatorConfig {
                alpha: 1.0,
                min_executions: 2,
                regression_threshold: -10.0,
                min_resource_frac: 0.0,
                ..ValidatorConfig::default()
            },
            validation_max_wait: Duration::from_hours(6),
            stuck_horizon: Duration::from_hours(4),
            max_retry_attempts: 1,
            ..PlanePolicy::default()
        };
        chaos_driver(policy, 0x51D5).run(basic_fleet(16, 3), 48, threads)
    }

    /// Every counter (each the only record of its fact), every gauge and
    /// every histogram (count and sum), on one line.
    fn registry_line(m: &MetricsRegistry) -> String {
        let counters: Vec<String> = m
            .counters()
            .iter()
            .map(|(name, n)| format!("{name}={n}"))
            .collect();
        let gauges: Vec<String> = m.gauges().iter().map(|(k, v)| format!("{k}={v}")).collect();
        let histograms: Vec<String> = m
            .histograms()
            .iter()
            .map(|(k, h)| format!("{k}={}/{}", h.count(), h.sum()))
            .collect();
        format!(
            "{} | {} | {}",
            counters.join(" "),
            gauges.join(" "),
            histograms.join(" ")
        )
    }

    struct Pin {
        dashboard: &'static str,
        counters: &'static str,
        digest: u64,
        registry: &'static str,
    }

    fn check(name: &str, run: fn(usize) -> FleetReport, pin: &Pin) -> BTreeSet<EventKind> {
        let serial = run(1);
        for (threads, report) in [(1, &serial), (3, &run(3))] {
            let tag = format!("fleet {name}, {threads} thread(s)");
            assert_eq!(
                report.dashboard_with_scheduler().render(),
                pin.dashboard,
                "{tag}"
            );
            assert_eq!(counters_line(&report.telemetry), pin.counters, "{tag}");
            assert_eq!(report.canonical_digest(), pin.digest, "{tag}");
            assert_eq!(registry_line(&report.metrics), pin.registry, "{tag}");
        }
        serial.telemetry.counters().keys().copied().collect()
    }

    /// The two recovery events no fleet run can produce: a tick-boundary
    /// tear removes the schedule or checkpoint frame that closed the
    /// tick, never a mid-flight upsert, and no fault point damages a
    /// frame in the middle of a journal. Driven here through
    /// `ControlPlane::recover_store` on a journal damaged by hand.
    fn recovery_of_a_hand_damaged_journal() -> BTreeSet<EventKind> {
        let tenant = basic_fleet(1, 7).remove(0);
        let mut mdb = ManagedDb::new(tenant.db, DbSettings::default(), ServerSettings::default());
        let mut runner = tenant.runner;
        let mut plane = ControlPlane::new(PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            ..PlanePolicy::default()
        });
        for _ in 0..6 {
            runner.run(&mut mdb.db, &tenant.model, Duration::from_hours(1));
            plane.tick(&mut mdb);
        }
        let now = mdb.db.clock().now();
        let id = plane
            .store
            .all()
            .find(|r| r.state == RecoState::Active)
            .map(|r| r.id)
            .expect("a recommend-only tenant keeps its recommendations Active");
        plane.store.update(id, |r| {
            r.transition(RecoState::Implementing, now, "caught mid-flight")
                .expect("Active -> Implementing");
        });
        plane.store.corrupt_journal_frame(1);
        let report = plane.recover_store(&mdb.db.name, now);
        assert_eq!((report.reparked.len(), report.corrupt_mid), (1, 1));
        plane.telemetry.counters().keys().copied().collect()
    }

    #[test]
    fn dashboard_counters_and_digest_are_pinned_on_two_chaos_fleets() {
        let mut seen = check("A", fleet_a, &PIN_A);
        seen.extend(check("B", fleet_b, &PIN_B));
        seen.extend(recovery_of_a_hand_damaged_journal());
        // Every `EventKind`: each has an emit site that the two chaos
        // fleets or the hand-damaged journal reach. (A flight emits none:
        // its outcome is its report's decision and journaled record.) A
        // variant that drops out of this set has lost its last emit site;
        // a new variant belongs here.
        use EventKind::*;
        let expected = BTreeSet::from([
            AnalysisStarted,
            AnalysisCompleted,
            RecommendationCreated,
            RecommendationExpired,
            ImplementStarted,
            ImplementSucceeded,
            ImplementFailedTransient,
            ImplementFailedFatal,
            ValidationStarted,
            ValidationImproved,
            ValidationInconclusive,
            ValidationRegressed,
            ValidationNoData,
            RevertStarted,
            RevertSucceeded,
            RevertFailedTransient,
            IncidentRaised,
            DtaSessionAborted,
            StoreRecovered,
            JournalEntryTruncated,
            RecommendationReparked,
            RetryBackoffWait,
            TenantQuarantined,
            TenantPoisoned,
            CheckpointRestored,
            CheckpointFallback,
            JournalFrameCorrupt,
        ]);
        assert_eq!(seen, expected);
    }

    const PIN_A: Pin = Pin {
        dashboard: "== operational statistics (§8.1) ==
databases under management            16
  auto-implement enabled               9  (56.2% of fleet)
simulated horizon                   0.29 weeks
outstanding recommendations
  CREATE INDEX                        10
  DROP INDEX                           1  (0.1x create backlog)
implemented actions
  creates                             20  (70.00/week)
  drops                                9  (31.50/week)
reverted actions                       3  (10.3% of implemented)
  cause validation_regression          3
  source MissingIndex                  3
expired recommendations              107
workload impact
  queries improved >=2x               24  (of 156 measured)
  databases with CPU halved            1
fleet scheduler
  control passes executed            396
  control passes skipped             330  (45.5% provably idle)
plan cache
  hits                             32303  (99.5% hit rate)
  misses (compilations)              158
  invalidations                      225
journal / recovery
  checkpoints written                133
  frames compacted                   739
  bytes reclaimed                 140848
  fallback recoveries                  3
chaos: recoveries 3 / quarantines 2 / poisoned 1 / incidents 6
",
        counters: "counters: AnalysisStarted=364 AnalysisCompleted=364 RecommendationCreated=147 RecommendationExpired=107 ImplementStarted=32 ImplementSucceeded=29 ImplementFailedTransient=3 ValidationStarted=29 ValidationImproved=16 ValidationInconclusive=2 ValidationRegressed=3 ValidationNoData=6 RevertStarted=3 RevertSucceeded=3 IncidentRaised=6 StoreRecovered=3 JournalEntryTruncated=3 RetryBackoffWait=10 TenantQuarantined=2 TenantPoisoned=1 CheckpointRestored=1 CheckpointFallback=3\n",
        digest: 1589037578550113274,
        registry: "fleet.quarantined_ticks=4 implement.succeeded.create_index=20 implement.succeeded.drop_index=9 reco.created.create_index=100 reco.created.drop_index=47 reco.created.source.DropAnalysis=47 reco.created.source.MissingIndex=100 recovery.entries_replayed=17 recovery.torn_tail=3 retry.resumed=10 revert.action.create_index=3 revert.cause.validation_regression=3 revert.source.MissingIndex=3 validate.failed.fatal=2 validate.failed.transient=7 workload.dbs_cpu_halved=1 workload.queries_improved_2x=24 workload.queries_measured=156 | fleet.auto_tenants=9 fleet.tenants=16 outstanding.create=10 outstanding.drop=1 | recovery.frame_reads=3/23 recovery.journal_bytes=3/1711 recovery.replayed_per_run=3/17 retry.delay_ms=10/32147800 validation.wait_ms=27/252000000",
    };

    const PIN_B: Pin = Pin {
        dashboard: "== operational statistics (§8.1) ==
databases under management            16
  auto-implement enabled               9  (56.2% of fleet)
simulated horizon                   0.29 weeks
outstanding recommendations
  CREATE INDEX                         8
  DROP INDEX                           1  (0.1x create backlog)
implemented actions
  creates                             15  (52.50/week)
  drops                              103  (360.50/week)
reverted actions                     100  (84.7% of implemented)
  cause validation_regression        101
  source DropAnalysis                 92
  source Dta                           8
expired recommendations              107
workload impact
  queries improved >=2x                1  (of 180 measured)
  databases with CPU halved            0
DTA what-if budget (§5.3.1)
  sessions                           312  (57 aborted on budget)
  optimizer calls issued            9737
  calls saved (cache/pruning)      17652  (3112 / 14540, 64.4% avoided, hit rate 24.2%)
fleet scheduler
  control passes executed            463
  control passes skipped             249  (35.0% provably idle)
plan cache
  hits                             31197  (99.4% hit rate)
  misses (compilations)              182
  invalidations                     1307
journal / recovery
  checkpoints written                187
  frames compacted                  1404
  bytes reclaimed                 451484
  fallback recoveries                  3
chaos: recoveries 3 / quarantines 9 / poisoned 1 / incidents 18
",
        counters: "counters: AnalysisStarted=359 AnalysisCompleted=359 RecommendationCreated=235 RecommendationExpired=107 ImplementStarted=129 ImplementSucceeded=118 ImplementFailedTransient=10 ImplementFailedFatal=1 ValidationStarted=118 ValidationRegressed=101 ValidationNoData=3 RevertStarted=101 RevertSucceeded=100 RevertFailedTransient=6 IncidentRaised=18 DtaSessionAborted=104 StoreRecovered=3 JournalEntryTruncated=3 RetryBackoffWait=35 TenantQuarantined=9 TenantPoisoned=1 CheckpointRestored=1 CheckpointFallback=3\n",
        digest: 15908436902197358217,
        registry: "dta.sessions=312 dta.sessions.aborted=57 dta.whatif.issued=9737 dta.whatif.saved.cache=3112 dta.whatif.saved.pruning=14540 fleet.quarantined_ticks=18 health.stuck_closed=6 implement.succeeded.create_index=15 implement.succeeded.drop_index=103 reco.created.create_index=97 reco.created.drop_index=138 reco.created.source.DropAnalysis=138 reco.created.source.Dta=97 recovery.entries_replayed=22 recovery.torn_tail=3 retry.exhausted=4 retry.resumed=35 revert.action.create_index=8 revert.action.drop_index=92 revert.cause.validation_regression=101 revert.failed.fatal=1 revert.source.DropAnalysis=92 revert.source.Dta=8 validate.failed.fatal=2 validate.failed.transient=23 workload.queries_improved_2x=1 workload.queries_measured=180 | fleet.auto_tenants=9 fleet.tenants=16 outstanding.create=8 outstanding.drop=1 | recovery.frame_reads=3/28 recovery.journal_bytes=3/3326 recovery.replayed_per_run=3/22 retry.delay_ms=35/108869302 validation.wait_ms=104/586800000",
    };
}
