//! Sharded-region benchmark: the determinism matrix plus the
//! million-tenant bounded-memory run.
//!
//! Phase 1 (the matrix): a moderate fleet driven through every
//! execution shape the sharded region supports — {1, 4, 16 shards} x
//! {sequential, parallel shards} x {dense, sparse scheduling} x {plan
//! cache on, off} — asserting every run lands on the same canonical
//! digest as the unsharded `FleetDriver` oracle. Sharding, shard
//! concurrency, the scheduler, and the plan cache may only change
//! wall-clock, never state.
//!
//! Phase 2 (the scale run): a 1,000,000-tenant, 95%-idle fleet driven
//! lazily through 16 shards. Tenants are hydrated tenant-major — built,
//! ticked to completion, folded into the shard digest, dropped — so
//! peak resident tenants is bounded by worker count, independent of
//! fleet size. The run asserts `peak_hydrated <= cap` (a small static
//! constant) and writes `BENCH_region.json`.
//!
//! ```text
//! cargo run -p bench --release --bin region_bench                  # both phases
//! cargo run -p bench --release --bin region_bench -- --skip-matrix # scale run only
//! cargo run -p bench --release --bin region_bench -- \
//!     --tenants 100000 --ticks 2 --cap 8 --out BENCH_region.json
//! ```

use bench::{Args, SparseFleetSpec};
use controlplane::{
    FleetDriver, FleetDriverConfig, PlanePolicy, RegionConfig, RegionCoordinator, RegionReport,
    SchedulingMode, ShardConcurrency,
};
use sqlmini::clock::Duration;
use std::time::Instant;
use workload::fleet::FleetSpec;

fn config(scheduling: SchedulingMode, plan_cache: bool) -> FleetDriverConfig {
    FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(24),
            validation_min_wait: Duration::from_hours(2),
            ..PlanePolicy::default()
        },
        scheduling,
        plan_cache,
        ..FleetDriverConfig::default()
    }
}

fn region_run(
    spec: &SparseFleetSpec,
    ticks: u32,
    shards: usize,
    concurrency: ShardConcurrency,
    scheduling: SchedulingMode,
    plan_cache: bool,
    retain_outcomes: bool,
) -> (RegionReport, f64) {
    let coordinator = RegionCoordinator::new(RegionConfig {
        driver: config(scheduling, plan_cache),
        shards,
        threads_per_shard: 1,
        shard_concurrency: concurrency,
        retain_outcomes,
        event_retention: 1000,
        ..RegionConfig::default()
    });
    let t0 = Instant::now();
    let report = coordinator.run(spec, ticks);
    (report, t0.elapsed().as_secs_f64() * 1e3)
}

#[derive(serde::Serialize)]
struct BenchResult {
    tenants: usize,
    active_pct: f64,
    ticks: u32,
    seed: u64,
    shards: usize,
    peak_resident_tenants: usize,
    resident_cap: usize,
    wall_ms: f64,
    tenant_ticks_per_s: f64,
    passes_executed: u64,
    passes_skipped: u64,
    statements: u64,
    errors: u64,
    digest: u64,
    matrix_runs: usize,
    matrix_identical: bool,
}

fn main() {
    let args = Args::parse();
    let seed = args.get_u64("seed", 42);
    let out_path = args.get_str("out", "BENCH_region.json");

    // -- Phase 1: the determinism matrix -----------------------------
    let mut matrix_runs = 0usize;
    if !args.has("skip-matrix") {
        let m_tenants = args.get_usize("matrix-tenants", 256);
        let m_ticks = args.get_u64("matrix-ticks", 6) as u32;
        let spec = SparseFleetSpec::new(m_tenants, 0.05, seed);
        println!(
            "== determinism matrix: {m_tenants} tenants, 5% active, {m_ticks} ticks (seed {seed}) =="
        );
        let oracle = FleetDriver::new(config(SchedulingMode::Sparse, true)).run(
            spec.materialize(),
            m_ticks,
            1,
        );
        let want = oracle.canonical_digest();
        for &shards in &[1usize, 4, 16] {
            for &conc in &[ShardConcurrency::Sequential, ShardConcurrency::Parallel] {
                for &mode in &[SchedulingMode::Dense, SchedulingMode::Sparse] {
                    for &cache in &[true, false] {
                        let (r, wall) = region_run(&spec, m_ticks, shards, conc, mode, cache, true);
                        matrix_runs += 1;
                        assert_eq!(r.poisoned, 0, "a clean run poisons no tenant");
                        assert_eq!(
                            r.digest, want,
                            "digest diverged at shards={shards} {conc:?} {mode:?} cache={cache}"
                        );
                        assert_eq!(
                            r.canonical.as_deref(),
                            Some(oracle.canonical_string().as_str()),
                            "canonical string diverged at shards={shards} {conc:?} {mode:?} cache={cache}"
                        );
                        println!(
                            "  shards={shards:>2} {conc:?} {mode:?} cache={cache:<5} \
                             {wall:>7.0}ms  digest {:016x}  ok",
                            r.digest
                        );
                    }
                }
            }
        }
        println!(
            "matrix: {matrix_runs} runs, all byte-identical to the unsharded oracle ({:016x})",
            want
        );
    }

    // -- Phase 2: the million-tenant bounded-memory run ---------------
    let tenants = args.get_usize("tenants", 1_000_000);
    let active_pct = args.get_f64("active-pct", 0.05);
    let ticks = args.get_u64("ticks", 1) as u32;
    let shards = args.get_usize("shards", 16);
    // The static residency cap: independent of fleet size. With one
    // worker per shard and sequential shard dispatch, tenant-major
    // hydration holds exactly one tenant at a time; the cap leaves room
    // for parallel-shard configurations up to 8 concurrent workers.
    let cap = args.get_usize("cap", 8);
    let spec = SparseFleetSpec::new(tenants, active_pct, seed);

    println!(
        "== scale run: {tenants} tenants, {:.0}% active, {ticks} tick(s), {shards} shards, \
         lazy hydration (seed {seed}) ==",
        active_pct * 100.0
    );
    let (report, wall_ms) = region_run(
        &spec,
        ticks,
        shards,
        ShardConcurrency::Sequential,
        SchedulingMode::Sparse,
        true,
        false,
    );
    let tps = (report.tenants as f64 * report.ticks as f64) / (wall_ms / 1e3).max(1e-9);
    println!(
        "drove {} tenants x {} ticks in {:.1}s ({:.0} tenant-ticks/s)",
        report.tenants,
        report.ticks,
        wall_ms / 1e3,
        tps
    );
    println!(
        "peak resident tenants: {} (cap {cap}, fleet {})",
        report.peak_hydrated, report.tenants
    );
    println!(
        "scheduler: {} control passes executed, {} skipped",
        report.control_ticks_executed(),
        report.control_ticks_skipped()
    );
    assert!(
        report.peak_hydrated <= cap,
        "lazy hydration must bound resident tenants: peak {} > cap {cap}",
        report.peak_hydrated
    );
    assert_eq!(
        report.tenants, tenants,
        "every tenant must be driven exactly once"
    );
    assert_eq!(report.poisoned, 0, "a clean run poisons no tenant");

    let result = BenchResult {
        tenants,
        active_pct,
        ticks,
        seed,
        shards,
        peak_resident_tenants: report.peak_hydrated,
        resident_cap: cap,
        wall_ms,
        tenant_ticks_per_s: tps,
        passes_executed: report.control_ticks_executed(),
        passes_skipped: report.control_ticks_skipped(),
        statements: report.statements,
        errors: report.errors,
        digest: report.digest,
        matrix_runs,
        matrix_identical: true,
    };
    let json = serde_json::to_string_pretty(&result).expect("result serializes");
    std::fs::write(out_path, json).expect("write BENCH_region.json");
    println!("wrote {out_path}");
}
