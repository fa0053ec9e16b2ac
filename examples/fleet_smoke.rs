//! Fleet-driver smoke run: the CI guard for the parallel control loop.
//!
//! Default shape: 64 mixed-tier tenants for 4 ticks on 4 worker
//! threads, then a serial replay of the same fleet, checking the
//! end-of-run state is byte-identical — the determinism contract,
//! exercised at a fleet size big enough to keep every pool worker busy,
//! small enough to finish well inside CI's two-minute budget.
//!
//! Flags reshape the run for scheduler smokes (CI drives a
//! 2048-tenant, 95%-idle sparse sweep through these):
//!
//! ```text
//! cargo run -p bench --release --example fleet_smoke
//! cargo run -p bench --release --example fleet_smoke -- \
//!     --tenants 2048 --active-pct 0.05 --sparse --ticks 6 --threads 4
//! ```
//!
//! `--tenants N` / `--active-pct P` switch to the mostly-idle
//! scheduler-bench fleet; `--sparse` / `--dense` pin the scheduling
//! mode (default: the driver's default mode). `--crash-every K`
//! crash-recovers every tenant's journaled store at the start of every
//! K-th tick — the chaos smoke: recovery (checkpoint + tail replay
//! under the default compaction policy) must be invisible in the
//! determinism check.
//!
//! `--shards N` routes the run through the sharded region driver
//! (coordinator → shard workers, lazy hydration) instead of the
//! monolithic loop, then replays unsharded and asserts the canonical
//! digests match — the sharding-is-invisible contract. CI drives
//! `{1, 4, 16}` shards through this flag:
//!
//! ```text
//! cargo run -p bench --release --example fleet_smoke -- \
//!     --shards 16 --tenants 2048 --active-pct 0.05 --sparse
//! ```

use bench::{sparse_fleet, Args, SparseFleetSpec};
use controlplane::{
    FleetDriver, FleetDriverConfig, PlanePolicy, RegionConfig, RegionCoordinator, SchedulingMode,
};
use sqlmini::clock::Duration;
use workload::fleet::{generate_fleet, FleetSpec, MixedFleetSpec, Tenant, TierMix};

/// Run `f` and return its result with the wall time it took. The drivers
/// read no clock: what this example prints it measures itself (printed,
/// never asserted — claims go through `benchmark/`).
fn timed<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// `"1.23s (456.7 tenant-ticks/s)"`.
fn pace(wall: std::time::Duration, tenants: usize, ticks: u32) -> String {
    let rate = (tenants as u64 * ticks as u64) as f64 / wall.as_secs_f64();
    format!("{wall:.2?} ({rate:.1} tenant-ticks/s)")
}

fn main() {
    let args = Args::parse();
    let ticks = args.get_or::<u64>("ticks", 4) as u32;
    let threads = args.get_or::<usize>("threads", 4);
    let seed = args.get_or::<u64>("seed", 7);
    let scheduling = if args.has("sparse") {
        SchedulingMode::Sparse
    } else if args.has("dense") {
        SchedulingMode::Dense
    } else {
        SchedulingMode::default()
    };
    let crash_every = args.get_or::<u64>("crash-every", 0) as u32;

    // `--tenants`/`--active-pct` select the mostly-idle scheduler fleet;
    // the default remains the original mixed-tier 64-tenant smoke.
    let scheduler_fleet = args.has("tenants") || args.has("active-pct");
    let tenants = args.get_or::<usize>("tenants", 64);
    let active_pct = args.get_or::<f64>("active-pct", 0.05);
    let fleet = |s: u64| -> Vec<Tenant> {
        if scheduler_fleet {
            sparse_fleet(tenants, active_pct, s)
        } else {
            generate_fleet(
                tenants,
                TierMix {
                    basic: 0.9,
                    standard: 0.1,
                    premium: 0.0,
                },
                s,
            )
        }
    };
    let driver_config = FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        fault_seed: Some(2024),
        fault_transient_prob: 0.1,
        fault_fatal_prob: 0.01,
        scheduling,
        crash_every_ticks: (crash_every > 0).then_some(crash_every),
        ..FleetDriverConfig::default()
    };

    if args.has("shards") {
        let shards = args.get_or::<usize>("shards", 4);
        let spec: Box<dyn FleetSpec> = if scheduler_fleet {
            Box::new(SparseFleetSpec::new(tenants, active_pct, seed))
        } else {
            Box::new(MixedFleetSpec::new(
                tenants,
                TierMix {
                    basic: 0.9,
                    standard: 0.1,
                    premium: 0.0,
                },
                seed,
            ))
        };
        let coordinator = RegionCoordinator::new(RegionConfig {
            driver: driver_config.clone(),
            shards,
            threads_per_shard: threads,
            ..RegionConfig::default()
        });
        let (region, wall) = timed(|| coordinator.run(spec.as_ref(), ticks));
        println!(
            "sharded: {} tenants across {} shards x {} ticks in {}",
            region.tenants,
            region.shards,
            region.ticks,
            pace(wall, region.tenants, region.ticks),
        );
        println!("fleet states: {:?}", region.by_state);
        println!(
            "scheduler ({:?}): {} control passes executed, {} skipped",
            scheduling,
            region.control_ticks_executed(),
            region.control_ticks_skipped(),
        );
        println!(
            "peak hydrated tenants: {} (fleet size {})",
            region.peak_hydrated, region.tenants,
        );

        // Sharding-is-invisible contract: the monolithic loop over the
        // same spec must produce the same canonical digest.
        let oracle = FleetDriver::new(driver_config).run(spec.materialize(), ticks, threads);
        assert_eq!(
            region.digest,
            oracle.canonical_digest(),
            "sharded region digest must match the unsharded oracle"
        );
        if let Some(canonical) = &region.canonical {
            assert_eq!(
                canonical,
                &oracle.canonical_string(),
                "sharded canonical string must match the unsharded oracle"
            );
        }
        assert_eq!(region.poisoned, 0, "a clean run poisons no tenant");
        println!("determinism check: {shards} shards == unsharded, byte for byte");
        return;
    }

    let driver = FleetDriver::new(driver_config);
    let (parallel, wall) = timed(|| driver.run(fleet(seed), ticks, threads));
    println!(
        "parallel: {} tenants x {} ticks on {} threads in {}",
        parallel.tenants.len(),
        parallel.ticks,
        parallel.threads,
        pace(wall, parallel.tenants.len(), parallel.ticks),
    );
    println!("fleet states: {:?}", parallel.by_state);
    println!(
        "scheduler ({:?}): {} control passes executed, {} skipped",
        scheduling,
        parallel.control_ticks_executed(),
        parallel.control_ticks_skipped(),
    );
    if crash_every > 0 {
        println!(
            "chaos (--crash-every {}): {} store recoveries, {} checkpoints written, \
             {} frames compacted, {} journal bytes retained",
            crash_every,
            parallel.store_recoveries(),
            parallel.checkpoints_written(),
            parallel.frames_compacted(),
            parallel.journal_bytes(),
        );
    }
    if !scheduler_fleet {
        println!("telemetry:\n{}", parallel.telemetry.export_json());
    }

    let (serial, wall) = timed(|| driver.run(fleet(seed), ticks, 1));
    println!(
        "serial replay in {}",
        pace(wall, serial.tenants.len(), serial.ticks)
    );
    assert_eq!(
        serial.canonical_string(),
        parallel.canonical_string(),
        "parallel fleet state must replay byte-identically in serial mode"
    );
    assert_eq!(parallel.poisoned, 0, "a clean run poisons no tenant");
    println!("determinism check: parallel == serial, byte for byte");
}
