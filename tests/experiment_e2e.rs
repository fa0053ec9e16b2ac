//! Cross-crate integration: B-instance experimentation (§7) end to end —
//! trace fork → replay on a clone → phased recommender comparison →
//! statistically justified winner.

use experiment::{create_b_instance, run_phased_experiment, ExperimentConfig, Winner};
use sqlmini::clock::Duration;
use sqlmini::engine::ServiceTier;
use workload::{generate_tenant, replay, ReplayFidelity, TenantConfig};

fn tenant(seed: u64) -> workload::Tenant {
    let mut cfg = TenantConfig::new(format!("e2e{seed}"), seed, ServiceTier::Standard);
    cfg.schema.min_tables = 2;
    cfg.schema.max_tables = 3;
    cfg.schema.min_rows = 3_000;
    cfg.schema.max_rows = 8_000;
    cfg.workload.base_rate_per_hour = 200.0;
    generate_tenant(&cfg)
}

#[test]
fn fork_replay_preserves_read_results() {
    let mut t = tenant(1);
    let (_, trace) = t
        .runner
        .run_traced(&mut t.db, &t.model, Duration::from_hours(3));
    // Perfect-fidelity replay of the same trace on a fork created
    // *before* those writes would diverge; create the fork after, then
    // replay only as load (results exercised via divergence bounds).
    let mut b = create_b_instance(&t.db, 99);
    let summary = replay(
        &mut b,
        &t.model,
        &trace,
        ReplayFidelity {
            drop_prob: 0.0,
            reorder_window: 1,
            seed: 0,
        },
    );
    assert_eq!(summary.dropped, 0);
    assert_eq!(summary.errors, 0);
    assert!(summary.replayed as usize == trace.events.len());
}

#[test]
fn phased_experiment_produces_consistent_verdict() {
    let mut t = tenant(2);
    t.runner.run(&mut t.db, &t.model, Duration::from_hours(6));
    let cfg = ExperimentConfig {
        n_user_indexes: 5,
        k: 3,
        phase_duration: Duration::from_hours(8),
        seed: 2,
        ..ExperimentConfig::default()
    };
    let out = run_phased_experiment(&t, &cfg);
    assert!(out.run.succeeded(), "{}", out.run);
    let a = out.analysis.expect("analysis");
    // Consistency: the winner's improvement is the (weak) maximum.
    let best = a
        .user_improvement
        .max(a.mi_improvement)
        .max(a.dta_improvement);
    match a.winner {
        Winner::User => assert!((a.user_improvement - best).abs() < 1e-9),
        Winner::Mi => assert!((a.mi_improvement - best).abs() < 1e-9),
        Winner::Dta => assert!((a.dta_improvement - best).abs() < 1e-9),
        Winner::Comparable => {}
    }
    // Phase windows are disjoint and ordered.
    let order = ["baseline", "mi", "dta", "user"];
    for w in order.windows(2) {
        let (a0, a1) = out.windows[w[0]];
        let (b0, _) = out.windows[w[1]];
        assert!(a0 < a1 && a1 <= b0, "windows out of order");
    }
}

#[test]
fn experiment_is_deterministic_given_seed() {
    let make = || {
        let mut t = tenant(3);
        t.runner.run(&mut t.db, &t.model, Duration::from_hours(4));
        let cfg = ExperimentConfig {
            n_user_indexes: 5,
            k: 2,
            phase_duration: Duration::from_hours(6),
            seed: 7,
            ..ExperimentConfig::default()
        };
        run_phased_experiment(&t, &cfg)
    };
    let a = make();
    let b = make();
    assert_eq!(a.winner(), b.winner());
    let (x, y) = (a.analysis.unwrap(), b.analysis.unwrap());
    assert!((x.dta_improvement - y.dta_improvement).abs() < 1e-12);
    assert!((x.mi_improvement - y.mi_improvement).abs() < 1e-12);
}
