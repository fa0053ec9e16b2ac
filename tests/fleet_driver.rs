//! Integration tests for the parallel fleet driver
//! (`controlplane::fleet_driver`).
//!
//! The scenarios the module's unit tests can't cover: a skewed fleet
//! where one whale tenant pins a worker while the rest of the fleet is
//! stolen and drained by its peers, fault injection running *during* a
//! parallel run, and the revert machinery firing under parallelism —
//! all while holding the determinism contract (parallel end-of-run
//! state byte-identical to serial).

use autoindex::validator::ValidatorConfig;
use bench::{sparse_fleet, SparseFleetSpec};
use controlplane::{
    EventKind, FleetDriver, FleetDriverConfig, PlanePolicy, RegionConfig, RegionCoordinator,
    SchedulingMode, ShardConcurrency,
};
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, Tenant, TenantConfig, TierMix};

fn fast_policy() -> PlanePolicy {
    PlanePolicy {
        analysis_interval: Duration::from_hours(2),
        validation_min_wait: Duration::from_hours(1),
        ..PlanePolicy::default()
    }
}

/// A daily analysis pass over hourly ticks: the cadence §4 describes,
/// and the regime where a dense sweep spends 95%+ of its control passes
/// on provably idle tenants.
fn daily_policy() -> PlanePolicy {
    PlanePolicy {
        analysis_interval: Duration::from_hours(24),
        validation_min_wait: Duration::from_hours(2),
        ..PlanePolicy::default()
    }
}

/// A validator that treats *any* statistically detectable change as a
/// regression: alpha 1.0 accepts every Welch result, the negative
/// regression threshold counts improvements as "worse", and the zero
/// resource floor lets even tiny statements trigger. Every implemented
/// index must therefore march `Validating → Reverting → Reverted`,
/// which is exactly the machinery this test wants to see survive a
/// parallel run.
fn paranoid_validator() -> ValidatorConfig {
    ValidatorConfig {
        alpha: 1.0,
        min_executions: 2,
        regression_threshold: -10.0,
        min_resource_frac: 0.0,
        ..ValidatorConfig::default()
    }
}

/// One premium whale plus `n_small` basic minnows. The whale's workload
/// rate is ~30x a minnow's, so under 4 workers it pins one thread for
/// most of the run and the shared-cursor pool must rebalance the rest.
fn skewed_fleet(n_small: usize, seed: u64) -> Vec<Tenant> {
    let mut fleet = vec![generate_tenant(&TenantConfig::new(
        "whale",
        seed,
        ServiceTier::Premium,
    ))];
    for i in 0..n_small {
        let s = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(i as u64 + 1);
        fleet.push(generate_tenant(&TenantConfig::new(
            format!("minnow{i:02}"),
            s,
            ServiceTier::Basic,
        )));
    }
    fleet
}

fn basic_fleet(n: usize, seed: u64) -> Vec<Tenant> {
    workload::fleet::generate_fleet(
        n,
        TierMix {
            basic: 1.0,
            standard: 0.0,
            premium: 0.0,
        },
        seed,
    )
}

#[test]
fn skewed_fleet_rebalances_and_replays_deterministically() {
    let driver = FleetDriver::new(FleetDriverConfig {
        policy: fast_policy(),
        ..FleetDriverConfig::default()
    });

    let parallel = driver.run(skewed_fleet(6, 31), 4, 4);
    assert_eq!(parallel.tenants.len(), 7, "every tenant driven once");
    for t in &parallel.tenants {
        assert!(t.statements > 0, "{} ran no statements", t.name);
    }
    // The whale really is skewed: it dwarfs every minnow.
    let whale = &parallel.tenants[0];
    assert_eq!(whale.name, "whale");
    for minnow in &parallel.tenants[1..] {
        assert!(
            whale.statements > 3 * minnow.statements,
            "whale {} vs {} {}",
            whale.statements,
            minnow.name,
            minnow.statements
        );
    }
    // Determinism contract: the same fleet run serially is byte-identical.
    let serial = driver.run(skewed_fleet(6, 31), 4, 1);
    assert_eq!(serial.canonical_string(), parallel.canonical_string());
    assert_eq!(serial.by_state, parallel.by_state);
    assert_eq!(serial.telemetry.counters(), parallel.telemetry.counters());
}

#[test]
fn faults_injected_during_parallel_run_do_not_deadlock_and_reverts_fire() {
    // Paranoid validator: every implemented index must be reverted.
    // Stochastic faults (per-tenant-seeded) hit implement and revert
    // paths while four workers churn; the run must still terminate with
    // reverts on the books and replay byte-identically.
    let driver = FleetDriver::new(FleetDriverConfig {
        policy: PlanePolicy {
            validator: paranoid_validator(),
            ..fast_policy()
        },
        fault_seed: Some(0xFA17),
        fault_transient_prob: 0.2,
        fault_fatal_prob: 0.02,
        ..FleetDriverConfig::default()
    });

    let parallel = driver.run(basic_fleet(6, 1203), 14, 4);

    let regressed = parallel.telemetry.count(EventKind::ValidationRegressed);
    let reverted = parallel.telemetry.count(EventKind::RevertSucceeded);
    assert!(
        regressed >= 1,
        "paranoid validator must flag regressions: {}",
        parallel.telemetry.export_json()
    );
    assert!(
        reverted >= 1,
        "reverts must fire during the parallel run: {}",
        parallel.telemetry.export_json()
    );
    let fault_hits = parallel
        .telemetry
        .count(EventKind::ImplementFailedTransient)
        + parallel.telemetry.count(EventKind::ImplementFailedFatal)
        + parallel.telemetry.count(EventKind::RevertFailedTransient);
    assert!(
        fault_hits >= 1,
        "injector was configured hot enough to fire: {}",
        parallel.telemetry.export_json()
    );
    assert!(
        parallel.by_state.contains_key("Reverted"),
        "some recommendation must end Reverted: {:?}",
        parallel.by_state
    );

    let serial = driver.run(basic_fleet(6, 1203), 14, 1);
    assert_eq!(serial.canonical_string(), parallel.canonical_string());
}

#[test]
fn every_thread_count_replays_the_same_fleet_state() {
    let driver = FleetDriver::new(FleetDriverConfig {
        policy: fast_policy(),
        fault_seed: Some(7),
        fault_transient_prob: 0.15,
        fault_fatal_prob: 0.0,
        ..FleetDriverConfig::default()
    });
    let reference = driver.run(basic_fleet(5, 88), 4, 1).canonical_string();
    for threads in [2usize, 4, 8] {
        let run = driver.run(basic_fleet(5, 88), 4, threads);
        assert_eq!(
            run.canonical_string(),
            reference,
            "threads={threads} diverged from serial"
        );
    }
}

#[test]
fn sparse_scheduling_cuts_control_passes_fivefold_on_a_mostly_idle_fleet() {
    let (tenants, ticks) = (256usize, 48u32);
    let run = |scheduling| {
        FleetDriver::new(FleetDriverConfig {
            policy: daily_policy(),
            scheduling,
            ..FleetDriverConfig::default()
        })
        .run(sparse_fleet(tenants, 0.05, 42), ticks, 1)
    };
    let dense = run(SchedulingMode::Dense);
    let sparse = run(SchedulingMode::Sparse);
    assert_eq!(sparse.canonical_string(), dense.canonical_string());

    let tenant_ticks = tenants as u64 * ticks as u64;
    assert_eq!(dense.control_ticks_skipped(), 0, "dense skips nothing");
    assert_eq!(dense.control_ticks_executed(), tenant_ticks);
    assert_eq!(
        sparse.control_ticks_executed() + sparse.control_ticks_skipped(),
        tenant_ticks,
        "scheduler accounting must cover every tenant-tick"
    );
    assert!(
        dense.control_ticks_executed() >= 5 * sparse.control_ticks_executed(),
        "sparse ran {} control passes, dense {}",
        sparse.control_ticks_executed(),
        dense.control_ticks_executed()
    );
}

/// The million-tenant bounded-memory run (several minutes in release):
/// `cargo test -p bench --release --test fleet_driver -- --ignored --nocapture`.
#[test]
#[ignore]
fn million_tenant_region_runs_at_peak_residency_one() {
    let spec = SparseFleetSpec::new(1_000_000, 0.05, 42);
    let start = std::time::Instant::now();
    let report = RegionCoordinator::new(RegionConfig {
        driver: FleetDriverConfig {
            policy: daily_policy(),
            ..FleetDriverConfig::default()
        },
        shards: 16,
        threads_per_shard: 1,
        shard_concurrency: ShardConcurrency::Sequential,
        retain_outcomes: false,
        ..RegionConfig::default()
    })
    .run(&spec, 1);
    let secs = start.elapsed().as_secs_f64();
    println!(
        "{} tenants x {} tick in {secs:.1}s: {:.0} tenant-ticks/s, {} statements, digest {}",
        report.tenants,
        report.ticks,
        (report.tenants as u64 * report.ticks as u64) as f64 / secs,
        report.statements,
        report.digest
    );
    assert_eq!(
        report.tenants, 1_000_000,
        "every tenant driven exactly once"
    );
    assert_eq!(report.peak_hydrated, 1, "tenant-major hydration holds one");
    assert_eq!(report.poisoned, 0, "a clean run poisons no tenant");
    assert_eq!(report.errors, 0);
    assert_eq!(report.statements, 1_200_648);
    assert_eq!(report.digest, 6702885311560702367);
}
