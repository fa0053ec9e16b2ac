//! Property test pinning the tentpole invariant of the event-driven
//! scheduler: for any fleet, seed, activity skew, fault rate, and
//! thread count, a sparse (due-time-indexed) run is **byte-identical**
//! to the dense per-tick oracle — same canonical fleet report, same
//! merged metrics registry, same rendered §8.1 dashboard.
//!
//! Only stochastic (uniform) fault injection is exercised here: the
//! stochastic injector draws RNG exclusively on executed stage work,
//! which lands on the same ticks in both modes. Scripted
//! `JournalTear` is keyed by `(tenant, tick)` at the driver's
//! tick-boundary probe — also mode-independent — and is covered in
//! `tests/chaos.rs`.

use controlplane::{FleetDriver, FleetDriverConfig, PlanePolicy, SchedulingMode};
use proptest::prelude::*;
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, Tenant, TenantConfig};

/// One randomized fleet scenario.
#[derive(Debug, Clone)]
struct FleetSpec {
    seed: u64,
    tenants: usize,
    ticks: u32,
    /// Fraction of tenants generated with a zero-rate workload, so the
    /// sparse scheduler has genuinely idle databases to skip.
    idle_fraction: f64,
    threads: usize,
    transient_prob: f64,
    fatal_prob: f64,
}

fn fleet_spec() -> impl Strategy<Value = FleetSpec> {
    (
        any::<u64>(),
        2usize..=5,
        6u32..=14,
        0.0f64..0.9,
        prop_oneof![Just(1usize), Just(2usize), Just(4usize)],
        0.0f64..0.25,
    )
        .prop_map(
            |(seed, tenants, ticks, idle_fraction, threads, transient_prob)| FleetSpec {
                seed,
                tenants,
                ticks,
                idle_fraction,
                threads,
                transient_prob,
                // Keep a small fatal rate in the mix: fatal stage faults
                // park in Error and must be mode-equivalent too.
                fatal_prob: transient_prob / 10.0,
            },
        )
}

/// splitmix64 — stable per-tenant randomness derived from the case seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Returns the fleet plus how many tenants rolled idle.
fn build_fleet(spec: &FleetSpec) -> (Vec<Tenant>, usize) {
    let mut idle = 0;
    let fleet = (0..spec.tenants)
        .map(|i| {
            let s = mix(spec.seed ^ (i as u64 + 1));
            let mut cfg = TenantConfig::new(format!("prop{i:02}"), s, ServiceTier::Basic);
            cfg.schema.min_tables = 1;
            cfg.schema.max_tables = 2;
            cfg.schema.min_rows = 500;
            cfg.schema.max_rows = 2_000;
            // Activity skew: idle tenants issue no statements at all;
            // active ones get a rate spread across an order of magnitude.
            let roll = (mix(s) % 1_000) as f64 / 1_000.0;
            cfg.workload.base_rate_per_hour = if roll < spec.idle_fraction {
                idle += 1;
                0.0
            } else {
                30.0 + (mix(s ^ 0xA5A5) % 240) as f64
            };
            generate_tenant(&cfg)
        })
        .collect();
    (fleet, idle)
}

fn config(spec: &FleetSpec, scheduling: SchedulingMode) -> FleetDriverConfig {
    FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        fault_seed: Some(spec.seed),
        fault_transient_prob: spec.transient_prob,
        fault_fatal_prob: spec.fatal_prob,
        scheduling,
        ..FleetDriverConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn sparse_equals_dense_for_any_fleet(spec in fleet_spec()) {
        let (fleet, idle_tenants) = build_fleet(&spec);
        let ticks = spec.ticks;
        let dense = FleetDriver::new(config(&spec, SchedulingMode::Dense))
            .run(fleet.clone(), ticks, spec.threads);
        let sparse = FleetDriver::new(config(&spec, SchedulingMode::Sparse))
            .run(fleet.clone(), ticks, spec.threads);

        prop_assert!(
            dense.canonical_string() == sparse.canonical_string(),
            "canonical fleet report diverged for {:?}",
            spec
        );
        prop_assert!(
            dense.metrics == sparse.metrics,
            "merged metrics diverged for {:?}",
            spec
        );
        prop_assert!(
            dense.dashboard().render() == sparse.dashboard().render(),
            "rendered dashboard diverged for {:?}",
            spec
        );
        // Scheduler accounting: dense never skips, and sparse never
        // executes more control passes than the dense oracle. (A busy or
        // mid-validation fleet may legitimately have work due on every
        // tick, so `skipped > 0` is NOT a property of arbitrary fleets —
        // the deterministic test below pins actual skipping.)
        let _ = idle_tenants;
        prop_assert_eq!(dense.control_ticks_skipped(), 0);
        prop_assert!(
            sparse.control_ticks_executed() <= dense.control_ticks_executed(),
            "sparse executed more control passes than dense for {:?}",
            spec
        );

        // Sparse itself replays identically across thread counts (which
        // pool worker claims which tenant must not matter).
        if spec.threads > 1 {
            let serial = FleetDriver::new(config(&spec, SchedulingMode::Sparse))
                .run(fleet, ticks, 1);
            prop_assert!(
                serial.canonical_string() == sparse.canonical_string(),
                "sparse serial vs {} threads diverged for {:?}",
                spec.threads,
                spec
            );
        }
    }
}

/// Deterministic companion to the property test: once a quiet tenant's
/// only lifecycle (the drop of its never-used index) times out of its
/// validation window, nothing is due except the 2-hourly analysis —
/// the sparse scheduler must actually skip the gaps.
#[test]
fn idle_fleet_goes_quiet_after_validation_window() {
    let spec = FleetSpec {
        seed: 99,
        tenants: 3,
        ticks: 16,
        idle_fraction: 1.0,
        threads: 1,
        transient_prob: 0.0,
        fatal_prob: 0.0,
    };
    let (fleet, idle) = build_fleet(&spec);
    assert_eq!(idle, 3);
    let mut cfg = config(&spec, SchedulingMode::Sparse);
    // Close NoData validations fast so the fleet can go fully quiet.
    cfg.policy.validation_max_wait = Duration::from_hours(2);
    let sparse = FleetDriver::new(cfg.clone()).run(fleet.clone(), spec.ticks, 1);
    assert!(
        sparse.control_ticks_skipped() > 0,
        "a quiet fleet must skip provably-idle control passes \
         (executed {}, skipped {})",
        sparse.control_ticks_executed(),
        sparse.control_ticks_skipped()
    );
    // And skipping changed nothing observable.
    cfg.scheduling = SchedulingMode::Dense;
    let dense = FleetDriver::new(cfg).run(fleet, spec.ticks, 1);
    assert_eq!(dense.canonical_string(), sparse.canonical_string());
    assert_eq!(dense.dashboard().render(), sparse.dashboard().render());
}
