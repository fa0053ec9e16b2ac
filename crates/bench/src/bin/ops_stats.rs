//! Regenerates the **operational statistics** of §8.1 — the paper's
//! fleet-level snapshot of the running service — from the fleet
//! driver's merged metrics registry:
//!
//! * create vs drop recommendations outstanding (paper: ~250K creates vs
//!   ~3.4M drops — drops dominate by an order of magnitude);
//! * actions implemented per week on the auto-implement fraction of the
//!   fleet (~a quarter of databases; creates outnumber drops weekly);
//! * the **revert rate** of automated actions (paper: ~11%), broken down
//!   by trigger and by recommender source;
//! * queries whose CPU time improved by ≥2×, and databases whose
//!   aggregate CPU consumption at least halved.
//!
//! The harness doubles as the observability determinism check: the fleet
//! is generated and driven **twice** — once parallel, once serial — and
//! the two rendered dashboards must be bit-for-bit identical, because
//! the snapshot is a pure function of the merged (shard-owned,
//! thread-independent) registries.
//!
//! ```text
//! cargo run -p bench --release --bin ops_stats -- --seed 42
//! cargo run -p bench --release --bin ops_stats -- --databases 40 --weeks 3
//! ```

use bench::Args;
use controlplane::{FleetDriver, FleetDriverConfig, PlanePolicy};
use sqlmini::clock::Duration;
use workload::fleet::{generate_fleet, TierMix};

fn main() {
    let args = Args::parse();
    let n_dbs = args.get_or::<usize>("databases", 12);
    let weeks = args.get_or::<u64>("weeks", 2);
    let seed = args.get_or::<u64>("seed", 42);
    let threads = args.get_or::<usize>("threads", 4).max(2);
    let auto_frac = args.get_or::<f64>("auto-frac", 0.25);

    // Scale the drop-analysis observation window to the simulation length
    // (the paper's 60 days of telemetry would never elapse in a short run).
    let mut policy = PlanePolicy {
        analysis_interval: Duration::from_hours(6),
        validation_min_wait: Duration::from_hours(3),
        ..PlanePolicy::default()
    };
    policy.drops.observation_window = Duration::from_days((weeks * 7 / 2).max(2));
    let driver = FleetDriver::new(FleetDriverConfig {
        policy,
        tick_interval: Duration::from_hours(3),
        auto_fraction: Some(auto_frac),
        ..FleetDriverConfig::default()
    });
    let ticks = (weeks * 7 * 24 / 3) as u32;

    println!(
        "== \u{a7}8.1 ops harness: {n_dbs} databases, {weeks} weeks, \
         {:.0}% auto-implement, seed {seed} ==\n",
        auto_frac * 100.0
    );

    // Basic-only mix: standard/premium tenants run 10–33x the statement
    // rate over 6–12x the rows, which turns a quick ops snapshot into an
    // hour-long soak. The §8.1 *shape* (drop backlog, revert rate,
    // auto-fraction) is tier-independent.
    let mix = TierMix {
        basic: 1.0,
        standard: 0.0,
        premium: 0.0,
    };

    // Same fleet, regenerated from the same seed, driven twice.
    let mut renders = Vec::new();
    for pass_threads in [threads, 1] {
        let fleet = generate_fleet(n_dbs, mix, seed);
        let report = driver.run(fleet, ticks, pass_threads);
        let label = if pass_threads > 1 {
            format!("parallel, {pass_threads} threads")
        } else {
            "serial replay".to_string()
        };
        println!("-- pass: {label} --");
        let rendered = report.dashboard().render();
        println!("{rendered}");
        renders.push(rendered);
    }

    assert_eq!(
        renders[0], renders[1],
        "parallel and serial replays must render bit-identical dashboards"
    );
    println!("determinism check: both passes rendered bit-identical \u{a7}8.1 tables");
}
