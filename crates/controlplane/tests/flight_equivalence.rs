//! Flight determinism oracle (§7 wired into §4).
//!
//! The headline contract for fleet-scale policy flighting: a flight's
//! cohort, per-tenant Welch verdicts, and region-level ship/no-ship
//! decision are **byte-identical** across thread counts and with the
//! tenants' plan caches off. Thread interleaving and the plan-selection
//! cache are performance knobs — neither may leak into an A/B verdict,
//! or the same candidate would ship in one region and abort in another.
//!
//! Alongside the property sweep, the seeded end-to-end acceptance runs:
//! a genuinely better candidate (tunes a fleet the control never
//! touches) must ship, and the reverse flight must abort with the
//! regression attributed to the candidate.

use controlplane::{FlightConfig, FlightDecision, FlightDriver, PlanePolicy, TenantVerdict};
use proptest::prelude::*;
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, Tenant, TenantConfig};

fn small_fleet(n: usize, seed: u64) -> Vec<Tenant> {
    (0..n)
        .map(|i| {
            let s = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 + 1);
            let mut cfg = TenantConfig::new(format!("flt{i:02}"), s, ServiceTier::Basic);
            cfg.schema.min_tables = 1;
            cfg.schema.max_tables = 2;
            cfg.schema.min_rows = 1_000;
            cfg.schema.max_rows = 3_000;
            cfg.workload.base_rate_per_hour = 120.0;
            generate_tenant(&cfg)
        })
        .collect()
}

/// A copy of `fleet` with every tenant's plan cache off: the arms fork
/// the tenant's engine configuration, so both recompile every statement.
fn without_plan_cache(fleet: &[Tenant]) -> Vec<Tenant> {
    fleet
        .iter()
        .map(|t| {
            let mut t = t.clone();
            t.db.config.plan_cache = false;
            t
        })
        .collect()
}

/// A policy that tunes aggressively within a short flight window.
fn fast_policy() -> PlanePolicy {
    PlanePolicy {
        analysis_interval: Duration::from_hours(2),
        validation_min_wait: Duration::from_hours(1),
        ..PlanePolicy::default()
    }
}

/// A policy that never gets around to analyzing during the flight —
/// the do-nothing incumbent.
fn idle_policy() -> PlanePolicy {
    PlanePolicy {
        analysis_interval: Duration::from_hours(100_000),
        ..PlanePolicy::default()
    }
}

fn flight_config(seed: u64, control: PlanePolicy, candidate: PlanePolicy) -> FlightConfig {
    FlightConfig {
        id: format!("flt-{seed:04x}"),
        seed,
        cohort_fraction: 1.0,
        control,
        candidate,
        baseline_ticks: 4,
        measure_ticks: 12,
        ..FlightConfig::default()
    }
}

// ---------------------------------------------------------------------
// Seeded end-to-end acceptance: ship the good one, abort the bad one.
// ---------------------------------------------------------------------

/// A candidate that auto-indexes a fleet whose control policy never
/// tunes must produce at least one measurable per-tenant improvement,
/// zero regressions, and a region-level **ship**.
#[test]
fn good_candidate_ships() {
    let fleet = small_fleet(4, 42);
    let driver = FlightDriver::new(flight_config(42, idle_policy(), fast_policy()));
    let report = driver.run(&fleet, 1);
    assert_eq!(
        report.decision,
        FlightDecision::Ship,
        "tuning candidate vs idle control must ship:\n{}",
        report.canonical_string()
    );
    assert!(report.improved >= 1);
    assert_eq!(report.regressed, 0);
    assert!(report.replayed_events > 0, "arms actually replayed traffic");
}

/// The mirror flight — idle candidate vs tuning control — must abort,
/// with at least one tenant verdict pinned on the candidate regressing.
#[test]
fn regressive_candidate_aborts() {
    let fleet = small_fleet(4, 42);
    let driver = FlightDriver::new(flight_config(42, fast_policy(), idle_policy()));
    let report = driver.run(&fleet, 1);
    assert_eq!(
        report.decision,
        FlightDecision::Abort,
        "idle candidate vs tuning control must abort:\n{}",
        report.canonical_string()
    );
    assert!(report.regressed >= 1);
}

/// The two seeded flights above, re-run on three threads and with the
/// plan cache off, stay byte-identical — the acceptance criterion in one
/// test.
#[test]
fn seeded_flights_identical_across_modes() {
    let fleet = small_fleet(4, 42);
    for (control, candidate) in [
        (idle_policy(), fast_policy()),
        (fast_policy(), idle_policy()),
    ] {
        let driver = FlightDriver::new(flight_config(42, control, candidate));
        let baseline = driver.run(&fleet, 1).canonical_string();
        assert_eq!(
            baseline,
            driver.run(&fleet, 3).canonical_string(),
            "verdict drifted on 3 threads"
        );
        assert_eq!(
            baseline,
            driver
                .run(&without_plan_cache(&fleet), 1)
                .canonical_string(),
            "verdict drifted with the plan cache off"
        );
    }
}

// ---------------------------------------------------------------------
// Property sweep: random fleets, seeds, fractions, thread counts.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cohort membership, every per-tenant Welch verdict, and the
    /// rendered dashboard flight block are byte-identical across thread
    /// count and plan-cache setting.
    #[test]
    fn flight_reports_equal_across_modes(
        n in 2usize..=4,
        seed in any::<u16>(),
        frac_idx in 0usize..3,
        threads in 2usize..=4,
    ) {
        let fraction = [0.34, 0.67, 1.0][frac_idx];
        let fleet = small_fleet(n, seed as u64);
        let base_cfg = FlightConfig {
            id: format!("prop-{seed:04x}"),
            seed: seed as u64,
            cohort_fraction: fraction,
            control: idle_policy(),
            candidate: fast_policy(),
            baseline_ticks: 2,
            measure_ticks: 5,
            ..FlightConfig::default()
        };
        let driver = FlightDriver::new(base_cfg.clone());
        let baseline = driver.run(&fleet, 1);
        prop_assert_eq!(&baseline.record.cohort, &base_cfg.cohort(fleet.len()));

        for report in [driver.run(&fleet, threads), driver.run(&without_plan_cache(&fleet), threads)] {
            prop_assert_eq!(baseline.canonical_string(), report.canonical_string());
            prop_assert_eq!(baseline.dashboard().render(), report.dashboard().render());
        }
        // No verdict category escapes the tally.
        let tallied = baseline.improved + baseline.regressed
            + baseline.washed + baseline.discarded;
        prop_assert_eq!(tallied as usize, baseline.record.cohort.len());
        // Non-cohort tenants never acquire verdicts.
        for index in baseline.record.verdicts.keys() {
            prop_assert!(baseline.record.cohort.contains(index));
        }
        // Discarded tenants carry no cost evidence.
        for v in baseline.record.verdicts.values() {
            if v.verdict == TenantVerdict::Discarded {
                prop_assert_eq!(v.control_cost, 0.0);
                prop_assert_eq!(v.candidate_cost, 0.0);
            }
        }
    }
}
