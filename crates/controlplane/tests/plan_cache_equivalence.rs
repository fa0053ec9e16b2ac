//! Property test pinning the tentpole invariant of the plan-selection
//! cache: for any fleet, seed, activity skew, fault rate, scheduling
//! mode, and thread count, a cache-on run is **byte-identical** to the
//! cache-off oracle that recompiles every statement — same canonical
//! fleet report, same merged metrics registry, same rendered §8.1
//! dashboard. The cache may only change wall-clock.
//!
//! The sibling `tests/plan_cache_invalidation.rs` (sqlmini) proves the
//! comparison can fail: freezing catalog epochs makes the cached engine
//! detectably diverge from this same oracle.

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
    /// cache sees both hot and cold tenants.
    idle_fraction: f64,
    threads: usize,
    scheduling: SchedulingMode,
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
                // Both scheduling modes must be cache-equivalent; fold
                // the mode choice into the seed.
                scheduling: if seed & 1 == 0 {
                    SchedulingMode::Dense
                } else {
                    SchedulingMode::Sparse
                },
                transient_prob,
                // Fatal faults park recommendations in Error — the
                // cache must be equivalent through those paths too.
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

/// The scenario's fleet, every tenant engine's plan cache on or off
/// (off recompiles every statement: the oracle).
fn build_fleet(spec: &FleetSpec, plan_cache: bool) -> Vec<Tenant> {
    (0..spec.tenants)
        .map(|i| {
            let s = mix(spec.seed ^ (i as u64 + 1));
            let mut cfg = TenantConfig::new(format!("pc{i:02}"), s, ServiceTier::Basic);
            cfg.schema.min_tables = 1;
            cfg.schema.max_tables = 2;
            cfg.schema.min_rows = 500;
            cfg.schema.max_rows = 2_000;
            let roll = (mix(s) % 1_000) as f64 / 1_000.0;
            cfg.workload.base_rate_per_hour = if roll < spec.idle_fraction {
                0.0
            } else {
                30.0 + (mix(s ^ 0xA5A5) % 240) as f64
            };
            cfg.db.plan_cache = plan_cache;
            generate_tenant(&cfg)
        })
        .collect()
}

fn config(spec: &FleetSpec) -> FleetDriverConfig {
    FleetDriverConfig {
        policy: PlanePolicy {
            analysis_interval: Duration::from_hours(2),
            validation_min_wait: Duration::from_hours(1),
            ..PlanePolicy::default()
        },
        fault_seed: Some(spec.seed),
        fault_transient_prob: spec.transient_prob,
        fault_fatal_prob: spec.fatal_prob,
        scheduling: spec.scheduling,
        ..FleetDriverConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn cache_on_equals_cache_off_for_any_fleet(spec in fleet_spec()) {
        let ticks = spec.ticks;
        let driver = FleetDriver::new(config(&spec));
        let on = driver.run(build_fleet(&spec, true), ticks, spec.threads);
        let off = driver.run(build_fleet(&spec, false), ticks, spec.threads);

        prop_assert!(
            on.canonical_string() == off.canonical_string(),
            "canonical fleet report diverged for {:?}",
            spec
        );
        prop_assert!(
            on.metrics == off.metrics,
            "merged metrics diverged for {:?}",
            spec
        );
        prop_assert!(
            on.dashboard().render() == off.dashboard().render(),
            "rendered dashboard diverged for {:?}",
            spec
        );
        // Bookkeeping sanity: the oracle never consults a cache; the
        // cached run records every execution as hit, miss, or
        // invalidation.
        prop_assert_eq!(off.plan_cache_hits(), 0);
        prop_assert!(
            on.plan_cache_hits() + on.plan_cache_misses()
                + on.plan_cache_invalidations()
                >= off.plan_cache_misses(),
            "cache accounting lost executions for {:?}",
            spec
        );

        // The cached run itself replays identically across thread
        // counts (cache state is per-tenant, never shared).
        if spec.threads > 1 {
            let serial = driver.run(build_fleet(&spec, true), ticks, 1);
            prop_assert!(
                serial.canonical_string() == on.canonical_string(),
                "cache-on serial vs {} threads diverged for {:?}",
                spec.threads,
                spec
            );
        }
    }
}

/// Deterministic companion: a busy fleet must actually exercise the
/// cache (steady-state hit rate well above zero), and the full
/// {dense, sparse} × {on, off} square of one scenario must agree.
#[test]
fn steady_state_hits_and_full_mode_square_agree() {
    let spec = FleetSpec {
        seed: 4242,
        tenants: 4,
        ticks: 16,
        idle_fraction: 0.0,
        threads: 1,
        scheduling: SchedulingMode::Sparse,
        transient_prob: 0.0,
        fatal_prob: 0.0,
    };
    let mut canonicals = Vec::new();
    let mut cached_hit_rate = 0.0;
    for scheduling in [SchedulingMode::Dense, SchedulingMode::Sparse] {
        for plan_cache in [true, false] {
            let mut cfg = config(&spec);
            cfg.scheduling = scheduling;
            let report = FleetDriver::new(cfg).run(build_fleet(&spec, plan_cache), spec.ticks, 1);
            if plan_cache && scheduling == SchedulingMode::Sparse {
                cached_hit_rate = report.plan_cache_hit_rate();
                // The driver bookkeeping surfaces on the ops dashboard.
                let rendered = report.dashboard_with_scheduler().render();
                assert!(
                    rendered.contains("plan cache"),
                    "dashboard must render the plan-cache block:\n{rendered}"
                );
            }
            canonicals.push(report.canonical_string());
        }
    }
    assert!(
        canonicals.iter().all(|c| c == &canonicals[0]),
        "the four {{mode}}x{{cache}} runs must be byte-identical"
    );
    assert!(
        cached_hit_rate >= 0.8,
        "steady-state hit rate must be >=80%, got {cached_hit_rate}"
    );
}
