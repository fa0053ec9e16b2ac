//! Fleet-driver scaling benchmark: tenant-ticks per second for the
//! pooled parallel driver at 1/2/4/8 worker threads over the
//! same fleet. On a multi-core box the speedup at 4 threads should be
//! near-linear (>= 2.5x); the determinism contract means the parallel
//! runs it times produce byte-identical fleet state to the serial run.
//!
//! Fleet size defaults to 64 tenants so the bench stays quick; set
//! `FLEET_BENCH_TENANTS=1000` for the paper-scale run.

use controlplane::{FleetDriver, FleetDriverConfig, PlanePolicy};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use sqlmini::clock::Duration;
use std::hint::black_box;
use workload::fleet::{generate_fleet, Tenant, TierMix};

const TICKS: u32 = 2;

fn bench_fleet(n: usize) -> Vec<Tenant> {
    generate_fleet(
        n,
        TierMix {
            basic: 1.0,
            standard: 0.0,
            premium: 0.0,
        },
        42,
    )
}

fn driver() -> FleetDriver {
    FleetDriver::new(FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        ..FleetDriverConfig::default()
    })
}

fn bench_scaling(c: &mut Criterion) {
    let n: usize = std::env::var("FLEET_BENCH_TENANTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let fleet = bench_fleet(n);
    let d = driver();

    let mut g = c.benchmark_group("fleet_parallel");
    g.sample_size(10);
    for threads in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::from_parameter(format!("{n}t/{threads}thr")),
            &threads,
            |b, &threads| {
                b.iter_batched(
                    || fleet.clone(),
                    |fleet| black_box(d.run(fleet, TICKS, threads).statements),
                    BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();

    // One explicit throughput + speedup report, since per-iteration
    // times above include nothing but the drive loop.
    let serial = d.run(fleet.clone(), TICKS, 1);
    let parallel = d.run(fleet.clone(), TICKS, 4);
    assert_eq!(
        serial.canonical_string(),
        parallel.canonical_string(),
        "bench runs must satisfy the determinism contract"
    );
    eprintln!(
        "fleet_parallel: {n} tenants x {TICKS} ticks  serial {:.1} t-ticks/s, 4 threads {:.1} t-ticks/s, speedup {:.2}x ({} cores visible)",
        serial.throughput(),
        parallel.throughput(),
        parallel.throughput() / serial.throughput(),
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1),
    );
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
