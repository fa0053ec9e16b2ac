//! Regenerates the **workload-coverage** analysis of §5.1.2 / §5.3.2:
//! how the automatically-selected workload's coverage (fraction of total
//! resource consumption analyzed) varies with the top-K statement budget
//! and the look-back window N, and how incomplete-text statements cap
//! DTA's achievable coverage while MI's per-statement nature keeps its
//! coverage high.
//!
//! The paper's target is > 80% coverage; this sweep shows where the knee
//! of the K curve sits.
//!
//! ```text
//! cargo run -p bench --release --bin coverage_sweep
//! ```

use autoindex::coverage::mi_coverage;
use autoindex::dta::{tune, DtaConfig};
use bench::{harness_tenant, Args};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::ServiceTier;
use sqlmini::querystore::Metric;
use workload::generate_tenant;

fn main() {
    let args = Args::parse();
    let seed = args.get_or::<u64>("seed", 11);
    let n_dbs = args.get_or::<usize>("databases", 8);
    let hours = args.get_or::<u64>("hours", 24);

    println!("== Workload coverage sweep (§5.1.2): {n_dbs} databases, {hours}h of history ==\n");

    // Prepare tenants with history.
    let mut tenants = Vec::new();
    for i in 0..n_dbs {
        let tseed = seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(i as u64);
        let mut cfg = harness_tenant(format!("cov{i:02}"), tseed, ServiceTier::Standard);
        cfg.workload.incomplete_text_frac = 0.15;
        let mut t = generate_tenant(&cfg);
        t.runner
            .run(&mut t.db, &t.model, Duration::from_hours(hours));
        tenants.push(t);
    }

    println!("-- DTA coverage vs top-K statement budget (window = {hours}h) --");
    println!(
        "{:>6} {:>12} {:>14} {:>14}",
        "K", "coverage", "skipped", "optimizer calls"
    );
    for k in [1usize, 2, 5, 10, 25, 50] {
        let mut cov = 0.0;
        let mut skipped = 0usize;
        let mut calls = 0u64;
        for t in tenants.iter_mut() {
            let cfg = DtaConfig {
                top_k: k,
                window: Duration::from_hours(hours),
                optimizer_call_budget: 100_000,
                ..DtaConfig::default()
            };
            let report = tune(&mut t.db, &cfg);
            cov += report.coverage;
            skipped += report.skipped.len();
            calls += report.optimizer_calls;
        }
        println!(
            "{k:>6} {:>11.1}% {:>14} {:>14}",
            cov / tenants.len() as f64 * 100.0,
            skipped,
            calls / tenants.len() as u64
        );
    }

    println!("\n-- DTA coverage vs look-back window N (K = 25) --");
    println!("{:>8} {:>12}", "N hours", "coverage");
    for n in [2u64, 6, 12, 24] {
        let mut cov = 0.0;
        for t in tenants.iter_mut() {
            let cfg = DtaConfig {
                top_k: 25,
                window: Duration::from_hours(n),
                optimizer_call_budget: 100_000,
                ..DtaConfig::default()
            };
            cov += tune(&mut t.db, &cfg).coverage;
        }
        println!("{n:>8} {:>11.1}%", cov / tenants.len() as f64 * 100.0);
    }

    println!("\n-- MI coverage (everything except inserts; §5.2) --");
    let mut cov = 0.0;
    for t in &tenants {
        let now = t.db.clock().now();
        cov += mi_coverage(&t.db, Metric::CpuTime, Timestamp::EPOCH, now);
    }
    println!(
        "  average MI coverage: {:.1}%",
        cov / tenants.len() as f64 * 100.0
    );
    println!("\npaper target: > 80% coverage for the analyzed workload");
}
