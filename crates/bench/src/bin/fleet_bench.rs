//! Fleet-scheduler benchmark: control-pass counts and wall time for the
//! dense (every tenant, every tick) oracle vs the event-driven sparse
//! scheduler, on a mostly-idle fleet — the shape §8 of the paper runs
//! at: millions of databases, most of them quiet at any given hour.
//!
//! The full matrix is {dense, sparse} x {1, 4 threads} x {plan cache
//! on, off}. All eight runs drive the *same* seeded fleet and must end
//! byte-identical (the tentpole invariant): the sparse scheduler may
//! only skip provably-idle control passes, and the plan-selection cache
//! may only change wall-clock. The sparse run must additionally execute
//! at least 5x fewer control passes, and the cached run must serve at
//! least 80% of statement executions from memoized plans. Results are
//! written to `BENCH_fleet.json` to seed the scaling table in
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p bench --release --bin fleet_bench               # full (2048 tenants)
//! cargo run -p bench --release --bin fleet_bench -- --smoke    # 256 tenants (CI)
//! cargo run -p bench --release --bin fleet_bench -- --out PATH --seed 7
//! ```

use bench::{sparse_fleet, Args};
use controlplane::{FleetDriver, FleetDriverConfig, FleetReport, PlanePolicy, SchedulingMode};
use sqlmini::clock::Duration;
use std::time::Instant;

struct Scenario {
    tenants: usize,
    active_pct: f64,
    ticks: u32,
    seed: u64,
}

fn config(scheduling: SchedulingMode, plan_cache: bool) -> FleetDriverConfig {
    FleetDriverConfig {
        policy: PlanePolicy {
            // A daily analysis pass over hourly ticks: the cadence §4
            // describes, and the regime where dense sweeps waste 95%+ of
            // their control passes on provably-idle tenants.
            analysis_interval: Duration::from_hours(24),
            validation_min_wait: Duration::from_hours(2),
            ..PlanePolicy::default()
        },
        scheduling,
        plan_cache,
        ..FleetDriverConfig::default()
    }
}

fn timed_run(
    sc: &Scenario,
    mode: SchedulingMode,
    threads: usize,
    plan_cache: bool,
) -> (FleetReport, f64) {
    let fleet = sparse_fleet(sc.tenants, sc.active_pct, sc.seed);
    let t0 = Instant::now();
    let report = FleetDriver::new(config(mode, plan_cache)).run(fleet, sc.ticks, threads);
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

#[derive(serde::Serialize)]
struct BenchResult {
    tenants: usize,
    active_pct: f64,
    ticks: u32,
    seed: u64,
    dense_control_passes: u64,
    sparse_control_passes: u64,
    sparse_skipped_passes: u64,
    pass_reduction: f64,
    // Headline walls: plan cache ON (the shipping configuration).
    wall_ms_dense_1t: f64,
    wall_ms_dense_4t: f64,
    wall_ms_sparse_1t: f64,
    wall_ms_sparse_4t: f64,
    // Differential-oracle walls: plan cache OFF (recompile everything).
    wall_ms_dense_1t_nocache: f64,
    wall_ms_dense_4t_nocache: f64,
    wall_ms_sparse_1t_nocache: f64,
    wall_ms_sparse_4t_nocache: f64,
    speedup_1t: f64,
    speedup_4t: f64,
    /// Cache-off over cache-on wall, sparse single-thread.
    cache_speedup_1t: f64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    plan_cache_invalidations: u64,
    plan_cache_hit_rate: f64,
    identical_end_state: bool,
}

fn main() {
    let args = Args::parse();
    let smoke = args.has("smoke");
    let sc = Scenario {
        tenants: args.get_usize("tenants", if smoke { 256 } else { 2048 }),
        active_pct: args.get_f64("active-pct", 0.05),
        ticks: args.get_u64("ticks", if smoke { 48 } else { 168 }) as u32,
        seed: args.get_u64("seed", 42),
    };
    let out_path = args.get_str("out", "BENCH_fleet.json");

    println!(
        "== fleet scheduler benchmark: {} tenants, {:.0}% active, {} hourly ticks (seed {}) ==",
        sc.tenants,
        sc.active_pct * 100.0,
        sc.ticks,
        sc.seed
    );

    let (dense_1, wall_dense_1) = timed_run(&sc, SchedulingMode::Dense, 1, true);
    let (dense_4, wall_dense_4) = timed_run(&sc, SchedulingMode::Dense, 4, true);
    let (sparse_1, wall_sparse_1) = timed_run(&sc, SchedulingMode::Sparse, 1, true);
    let (sparse_4, wall_sparse_4) = timed_run(&sc, SchedulingMode::Sparse, 4, true);
    let (dense_1_nc, wall_dense_1_nc) = timed_run(&sc, SchedulingMode::Dense, 1, false);
    let (dense_4_nc, wall_dense_4_nc) = timed_run(&sc, SchedulingMode::Dense, 4, false);
    let (sparse_1_nc, wall_sparse_1_nc) = timed_run(&sc, SchedulingMode::Sparse, 1, false);
    let (sparse_4_nc, wall_sparse_4_nc) = timed_run(&sc, SchedulingMode::Sparse, 4, false);

    // The tentpole invariant, enforced at benchmark scale: every mode,
    // thread count, and cache setting converges to the same canonical
    // fleet state.
    let canon = dense_1.canonical_string();
    let identical = [
        &dense_4,
        &sparse_1,
        &sparse_4,
        &dense_1_nc,
        &dense_4_nc,
        &sparse_1_nc,
        &sparse_4_nc,
    ]
    .iter()
    .all(|r| r.canonical_string() == canon);
    assert!(
        identical,
        "sparse/dense, serial/parallel, or cache-on/off end states diverged"
    );

    assert_eq!(dense_1.poisoned, 0, "a clean run poisons no tenant");

    let dense_passes = dense_1.control_ticks_executed();
    let sparse_passes = sparse_1.control_ticks_executed();
    let reduction = dense_passes as f64 / sparse_passes.max(1) as f64;
    assert_eq!(
        sparse_passes + sparse_1.control_ticks_skipped(),
        dense_passes + dense_1.control_ticks_skipped(),
        "scheduler accounting must cover every tenant-tick"
    );
    // The headline acceptance bars presume a mostly-idle fleet; a run
    // explicitly asked for a busy one (`--active-pct 0.5`) measures
    // without asserting.
    if sc.active_pct <= 0.10 {
        assert!(
            reduction >= 5.0,
            "sparse scheduling must cut control passes >=5x on a {:.0}%-idle fleet, got {reduction:.2}x",
            (1.0 - sc.active_pct) * 100.0
        );
    }
    let hit_rate = sparse_1.plan_cache_hit_rate();
    assert!(
        hit_rate >= 0.80,
        "steady-state plan-cache hit rate must be >=80%, got {:.1}%",
        hit_rate * 100.0
    );
    assert_eq!(
        sparse_1_nc.plan_cache_hits(),
        0,
        "the cache-off oracle must never consult a cache"
    );

    println!("{:>22} {:>12} {:>12}", "", "dense", "sparse");
    println!(
        "{:>22} {:>12} {:>12}   ({reduction:.1}x fewer)",
        "control passes", dense_passes, sparse_passes
    );
    println!(
        "{:>22} {:>10.0}ms {:>10.0}ms   ({:.2}x)",
        "wall, 1 thread",
        wall_dense_1,
        wall_sparse_1,
        wall_dense_1 / wall_sparse_1.max(1e-9)
    );
    println!(
        "{:>22} {:>10.0}ms {:>10.0}ms   ({:.2}x)",
        "wall, 4 threads",
        wall_dense_4,
        wall_sparse_4,
        wall_dense_4 / wall_sparse_4.max(1e-9)
    );
    println!(
        "{:>22} {:>10.0}ms {:>10.0}ms   (cache off, 1 thread)",
        "wall, no plan cache", wall_dense_1_nc, wall_sparse_1_nc
    );
    println!(
        "plan cache: {:.1}% hit rate ({} hits / {} misses / {} invalidations), \
         {:.2}x vs recompile-every-statement",
        hit_rate * 100.0,
        sparse_1.plan_cache_hits(),
        sparse_1.plan_cache_misses(),
        sparse_1.plan_cache_invalidations(),
        wall_sparse_1_nc / wall_sparse_1.max(1e-9)
    );
    println!("end states: byte-identical across modes, thread counts, and cache settings");

    let result = BenchResult {
        tenants: sc.tenants,
        active_pct: sc.active_pct,
        ticks: sc.ticks,
        seed: sc.seed,
        dense_control_passes: dense_passes,
        sparse_control_passes: sparse_passes,
        sparse_skipped_passes: sparse_1.control_ticks_skipped(),
        pass_reduction: reduction,
        wall_ms_dense_1t: wall_dense_1,
        wall_ms_dense_4t: wall_dense_4,
        wall_ms_sparse_1t: wall_sparse_1,
        wall_ms_sparse_4t: wall_sparse_4,
        wall_ms_dense_1t_nocache: wall_dense_1_nc,
        wall_ms_dense_4t_nocache: wall_dense_4_nc,
        wall_ms_sparse_1t_nocache: wall_sparse_1_nc,
        wall_ms_sparse_4t_nocache: wall_sparse_4_nc,
        speedup_1t: wall_dense_1 / wall_sparse_1.max(1e-9),
        speedup_4t: wall_dense_4 / wall_sparse_4.max(1e-9),
        cache_speedup_1t: wall_sparse_1_nc / wall_sparse_1.max(1e-9),
        plan_cache_hits: sparse_1.plan_cache_hits(),
        plan_cache_misses: sparse_1.plan_cache_misses(),
        plan_cache_invalidations: sparse_1.plan_cache_invalidations(),
        plan_cache_hit_rate: hit_rate,
        identical_end_state: identical,
    };
    let json = serde_json::to_string_pretty(&result).expect("result serializes");
    std::fs::write(out_path, json).expect("write BENCH_fleet.json");
    println!("wrote {out_path}");
}
