//! Regenerates **Figure 6** of the paper (§7.3): experimentation at scale
//! comparing the MI recommender, the DTA recommender, and emulated user
//! tuning across a population of databases in one service tier.
//!
//! For each sampled database a phased experiment runs on a B-instance
//! (drop k beneficial user indexes → baseline → MI arm → DTA arm → User
//! arm), costs are normalized to fixed execution counts, and the winner
//! is the arm that outperforms both others with statistical significance
//! (otherwise "Comparable"). The harness prints the pie-slice percentages
//! of Figure 6a/6b plus the in-text average CPU-time improvements
//! (paper: DTA ≈ 82%, MI ≈ 72%, User ≈ 35%).
//!
//! ```text
//! cargo run -p bench --release --bin fig6 -- --tier premium --databases 30
//! cargo run -p bench --release --bin fig6 -- --tier standard --databases 30
//! ```

use bench::{harness_tenant, render_share, Args};
use experiment::{run_phased_experiment, ExperimentConfig, Winner};
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use std::collections::BTreeMap;
use workload::generate_tenant;

fn run_tier(tier: ServiceTier, databases: usize, seed: u64, phase_hours: u64, verbose: bool) {
    let tier_name = format!("{tier:?}").to_lowercase();
    println!("== Figure 6 ({tier_name} tier): {databases} databases, phases of {phase_hours}h ==");

    let mut wins: BTreeMap<Winner, usize> = BTreeMap::new();
    let mut improvements: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut completed = 0usize;
    let mut infeasible = 0usize;

    for i in 0..databases {
        let tseed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64);
        let mut cfg = harness_tenant(format!("{tier_name}{i:03}"), tseed, tier);
        // Experiments need user indexes to emulate tuning against.
        cfg.user_indexes.n_useful = 4;
        let mut tenant = generate_tenant(&cfg);
        // Warm usage statistics so user-index selection has signal.
        tenant
            .runner
            .run(&mut tenant.db, &tenant.model, Duration::from_hours(6));

        let exp_cfg = ExperimentConfig {
            n_user_indexes: 20,
            k: 5,
            phase_duration: Duration::from_hours(phase_hours),
            seed: tseed,
            ..ExperimentConfig::default()
        };
        let out = run_phased_experiment(&tenant, &exp_cfg);
        if !out.run.succeeded() {
            infeasible += 1;
            if verbose {
                println!(
                    "  {}: infeasible ({})",
                    tenant.name,
                    out.run.error.unwrap_or_default()
                );
            }
            continue;
        }
        completed += 1;
        let a = out.analysis.expect("analysis on success");
        *wins.entry(a.winner).or_default() += 1;
        improvements
            .entry("User")
            .or_default()
            .push(a.user_improvement);
        improvements.entry("MI").or_default().push(a.mi_improvement);
        improvements
            .entry("DTA")
            .or_default()
            .push(a.dta_improvement);
        if verbose {
            println!(
                "  {}: winner={} user={:+.1}% mi={:+.1}% dta={:+.1}% divergence={:.1}%",
                tenant.name,
                a.winner,
                a.user_improvement * 100.0,
                a.mi_improvement * 100.0,
                a.dta_improvement * 100.0,
                out.divergence * 100.0
            );
        }
    }

    println!("\ncompleted {completed} experiments ({infeasible} infeasible)\n");
    println!("-- Winner shares (Figure 6 pie) --");
    for w in [Winner::Dta, Winner::Comparable, Winner::User, Winner::Mi] {
        let n = wins.get(&w).copied().unwrap_or(0);
        let pct = 100.0 * n as f64 / completed.max(1) as f64;
        println!("{}", render_share(&w.to_string(), pct, 40));
    }
    println!("\n-- Average workload CPU-time improvement (§7.3 in-text) --");
    for arm in ["DTA", "MI", "User"] {
        let vals = improvements.get(arm).cloned().unwrap_or_default();
        let avg = if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        };
        println!("{arm:>6}: {:+.1}%", avg * 100.0);
    }
    println!();
}

fn main() {
    let args = Args::parse();
    let databases = args.get_or::<usize>("databases", 30);
    let seed = args.get_or::<u64>("seed", 42);
    let phase_hours = args.get_or::<u64>("phase-hours", 26);
    let verbose = args.has("verbose");
    let tiers: Vec<ServiceTier> = match args.get_str("tier", "both") {
        "premium" => vec![ServiceTier::Premium],
        "standard" => vec![ServiceTier::Standard],
        _ => vec![ServiceTier::Premium, ServiceTier::Standard],
    };
    for tier in tiers {
        run_tier(tier, databases, seed, phase_hours, verbose);
    }
    println!(
        "Paper reference shapes — premium: DTA largest winner (~42%), big Comparable slice,\n\
         User > MI among the rest; standard: Comparable largest (~45%), DTA ~27%, User ~10%, MI ~6%.\n\
         In-text averages: DTA ~82%, MI ~72%, User ~35% CPU-time improvement."
    );
}
