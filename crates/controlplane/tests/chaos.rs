//! Chaos harness for the control plane (§1.2, §4, §8.3).
//!
//! The paper's headline claim is that auto-indexing is safe to run
//! unattended at the scale of millions of databases: the state machine
//! is persisted durably, the service survives being killed mid-
//! operation, and failures park in Retry/Error instead of corrupting
//! tenants. These tests attack exactly that surface:
//!
//! - a **crash sweep** that crash-recovers every tenant's journaled
//!   store throughout a fleet run and demands byte-identical end state
//!   to the uncrashed run;
//! - **torn-tail recovery** over every journal prefix and over
//!   corrupted final records — never a panic, always a report;
//! - a **poisoned tenant** whose worker panics mid-tick and must be
//!   isolated without perturbing any other tenant;
//! - the **quarantine circuit-breaker** and **backoff discipline**,
//!   both replaying deterministically under parallelism.
//!
//! The stochastic parts are seeded from `CHAOS_SEED` (CI sweeps several
//! values) with a fixed default for local runs.

use controlplane::state::RecoSubState;
use controlplane::{
    CompactionPolicy, ControlPlane, EventKind, FaultKind, FaultPoint, FleetDriver,
    FleetDriverConfig, ManagedDb, PlanePolicy, RecoId, RecoState, RetryPolicy, SchedulingMode,
    StateStore, TenantScript,
};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, Tenant, TenantConfig};

/// Seed for the stochastic fault schedules. CI runs the suite under
/// `CHAOS_SEED=1,2,3`; local runs get a fixed default.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// Scheduling mode for the fleet-driver chaos tests. CI's chaos matrix
/// sweeps `FLEET_SCHED=dense|sparse`; unset falls back to the driver
/// default, so the whole suite runs under whichever mode ships.
fn sched_mode() -> SchedulingMode {
    match std::env::var("FLEET_SCHED").as_deref() {
        Ok("dense") => SchedulingMode::Dense,
        Ok("sparse") => SchedulingMode::Sparse,
        _ => SchedulingMode::default(),
    }
}

/// Journal compaction policy for the chaos suite. CI's chaos matrix
/// sweeps `CHECKPOINT=on|off`: `on` compacts aggressively so even
/// 20-tick sweeps cross several compaction boundaries; `off` disables
/// checkpointing entirely, making the whole suite double as the
/// compaction-off oracle. Unset defaults to aggressive-on — the mode
/// with the most machinery to break.
fn checkpoint_mode() -> CompactionPolicy {
    match std::env::var("CHECKPOINT").as_deref() {
        Ok("off") => CompactionPolicy {
            enabled: false,
            ..CompactionPolicy::default()
        },
        _ => aggressive_compaction(),
    }
}

/// Compaction tuned far below the production default so short chaos
/// runs checkpoint many times per tenant.
fn aggressive_compaction() -> CompactionPolicy {
    CompactionPolicy {
        enabled: true,
        min_frames: 4,
        garbage_ratio: 0.5,
    }
}

fn fast_policy() -> PlanePolicy {
    PlanePolicy {
        analysis_interval: Duration::from_hours(2),
        validation_min_wait: Duration::from_hours(1),
        journal: checkpoint_mode(),
        ..PlanePolicy::default()
    }
}

/// `n` small basic-tier tenants — enough workload to exercise the whole
/// lifecycle, small enough that a 16-tenant × 20-tick sweep stays fast.
fn small_fleet(n: usize, seed: u64) -> Vec<Tenant> {
    (0..n)
        .map(|i| {
            let s = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i as u64 + 1);
            let mut cfg = TenantConfig::new(format!("chaos{i:02}"), s, ServiceTier::Basic);
            cfg.schema.min_tables = 1;
            cfg.schema.max_tables = 2;
            cfg.schema.min_rows = 1_000;
            cfg.schema.max_rows = 3_000;
            cfg.workload.base_rate_per_hour = 120.0;
            generate_tenant(&cfg)
        })
        .collect()
}

/// The same fleet with every tenant's plan cache off: the
/// recompile-every-statement oracle.
fn without_plan_cache(mut fleet: Vec<Tenant>) -> Vec<Tenant> {
    for t in &mut fleet {
        t.db.config.plan_cache = false;
    }
    fleet
}

fn reco(n: u32) -> autoindex::Recommendation {
    use sqlmini::schema::{ColumnId, IndexDef, TableId};
    autoindex::Recommendation {
        action: autoindex::RecoAction::CreateIndex {
            def: IndexDef::new(format!("ix{n}"), TableId(0), vec![ColumnId(1)], vec![]),
        },
        source: autoindex::RecoSource::MissingIndex,
        estimated_benefit: n as f64,
        estimated_improvement: 0.5,
        estimated_size_bytes: 100,
        impacted_queries: vec![],
        generated_at: Timestamp(0),
    }
}

// ---------------------------------------------------------------------
// Crash sweep: the acceptance-criteria workhorse.
// ---------------------------------------------------------------------

/// For a 16-tenant fleet over 20 ticks, crashing + recovering every
/// tenant's store at every tick boundary — the process-restart point —
/// must yield the same canonical fleet state as the uncrashed serial run.
#[test]
fn crash_sweep_at_every_tick_boundary_matches_uncrashed_run() {
    let seed = chaos_seed();
    let base = FleetDriverConfig {
        policy: fast_policy(),
        fault_seed: Some(seed),
        fault_transient_prob: 0.15,
        fault_fatal_prob: 0.01,
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let fleet = small_fleet(16, seed);
    let uncrashed = FleetDriver::new(base.clone()).run(fleet.clone(), 20, 1);
    let swept = FleetDriver::new(FleetDriverConfig {
        crash_every_ticks: Some(1),
        ..base.clone()
    })
    .run(fleet.clone(), 20, 1);
    assert_eq!(
        uncrashed.canonical_string(),
        swept.canonical_string(),
        "crash-recovery at every tick must be invisible in the end state"
    );
    // Coarser cadences converge too, and the sweep replays identically
    // under pooled parallelism.
    let coarse = FleetDriver::new(FleetDriverConfig {
        crash_every_ticks: Some(5),
        ..base.clone()
    })
    .run(fleet.clone(), 20, 1);
    assert_eq!(uncrashed.canonical_string(), coarse.canonical_string());
    let swept_parallel = FleetDriver::new(FleetDriverConfig {
        crash_every_ticks: Some(1),
        ..base
    })
    .run(fleet, 20, 4);
    assert_eq!(swept.canonical_string(), swept_parallel.canonical_string());
}

// ---------------------------------------------------------------------
// Torn/corrupt journal tails.
// ---------------------------------------------------------------------

/// Build a store with a few records across the state machine, for the
/// journal-surgery tests.
fn seeded_store() -> StateStore {
    let mut s = StateStore::with_id_base(0);
    let a = s.insert("db1", reco(1), Timestamp(0));
    let b = s.insert("db1", reco(2), Timestamp(1));
    s.update(a, |r| {
        r.transition(RecoState::Implementing, Timestamp(2), "go")
            .unwrap();
        r.transition(RecoState::Validating, Timestamp(3), "built")
            .unwrap();
    });
    s.update(b, |r| {
        r.transition(RecoState::Implementing, Timestamp(4), "go")
            .unwrap();
    });
    s
}

#[test]
fn corrupted_final_line_recovers_without_panicking() {
    let mut s = seeded_store();
    let before_len = s.journal_len();
    s.corrupt_journal_tail();
    let report = s.crash_and_recover();
    assert!(report.torn_tail, "damage must be detected");
    assert_eq!(report.truncated, 1, "exactly the torn record is dropped");
    assert_eq!(report.replayed, before_len - 1);
    // The torn record was b's Implementing hop: b rewinds to its prior
    // journaled state (Active); nothing is mid-flight, nothing panics.
    assert_eq!(s.get(RecoId(1)).unwrap().state, RecoState::Active);
    assert_eq!(s.get(RecoId(0)).unwrap().state, RecoState::Validating);
    assert_eq!(s.recover_report().unwrap(), &report);
}

/// Recovery from *every* journal prefix (the all-possible-crash-points
/// sweep): never panics, mid-flight records are re-parked into Retry,
/// and the re-park itself is journaled so a second crash is idempotent.
#[test]
fn every_journal_prefix_recovers_consistently() {
    let s = seeded_store();
    let lines = s.journal_lines().to_vec();
    for k in 0..=lines.len() {
        let (recovered, report) = StateStore::recovered_from(lines[..k].to_vec());
        assert_eq!(report.replayed, k);
        assert!(!report.torn_tail, "clean prefix, no tear");
        for r in recovered.all() {
            assert!(
                r.state.retry_phase().is_none(),
                "prefix {k}: {} left mid-flight in {:?}",
                r.id,
                r.state
            );
        }
        for id in &report.reparked {
            let r = recovered.get(*id).unwrap();
            assert_eq!(r.state, RecoState::Retry, "prefix {k}");
            assert!(matches!(r.substate, RecoSubState::RetryOf { .. }));
        }
        // Idempotence: recovering the recovered journal changes nothing.
        let (again, second) = StateStore::recovered_from(recovered.journal_lines().to_vec());
        assert!(
            second.reparked.is_empty(),
            "prefix {k}: repark must not repeat"
        );
        let snap = |st: &StateStore| -> Vec<String> {
            st.all()
                .map(|r| format!("{}{:?}{:?}", r.id, r.state, r.substate))
                .collect()
        };
        assert_eq!(snap(&recovered), snap(&again), "prefix {k}");
    }
}

#[test]
fn mid_implementing_crash_reparks_to_retry() {
    let mut s = StateStore::new();
    let id = s.insert("db1", reco(1), Timestamp(0));
    s.update(id, |r| {
        r.transition(RecoState::Implementing, Timestamp(1), "go")
            .unwrap()
    });
    let report = s.crash_and_recover();
    assert_eq!(report.reparked, vec![id]);
    let r = s.get(id).unwrap();
    assert_eq!(r.state, RecoState::Retry);
    assert!(matches!(
        r.substate,
        RecoSubState::RetryOf {
            phase: controlplane::state::RetryPhase::Implement,
            attempts: 1
        }
    ));
}

#[test]
fn recovered_id_base_preserves_fleet_wide_stride() {
    const BASE: u64 = 5_000_000;
    let mut s = StateStore::with_id_base(BASE);
    // Empty journal (only the meta record): the id block survives.
    let report = s.crash_and_recover();
    assert_eq!(report.id_base, BASE);
    assert_eq!(report.next_id, BASE);
    let first = s.insert("db1", reco(1), Timestamp(0));
    assert_eq!(
        first.0, BASE,
        "recovered empty store must not allocate from 0"
    );
    // Short journal with its only upsert torn away: still in-stride.
    s.corrupt_journal_tail();
    s.crash_and_recover();
    let replacement = s.insert("db1", reco(2), Timestamp(1));
    assert_eq!(replacement.0, BASE);
    assert!(s.recover_report().unwrap().torn_tail);
}

/// The control plane survives scripted journal tears mid-run: data loss
/// is truncated away, mid-flight work is re-parked and re-driven, and
/// the loop keeps converging to terminal states instead of wedging.
#[test]
fn journal_tears_during_live_run_park_in_retry_not_corruption() {
    let seed = chaos_seed();
    let driver = FleetDriver::new(FleetDriverConfig {
        policy: fast_policy(),
        scripts: vec![TenantScript {
            tenant: 0,
            point: FaultPoint::JournalTear,
            count: 6,
            kind: FaultKind::Transient,
            at_tick: 0,
        }],
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    });
    let report = driver.run(small_fleet(2, seed), 24, 1);
    assert_eq!(report.poisoned, 0);
    assert!(report.telemetry.count(EventKind::StoreRecovered) >= 6);
    // Every recommendation ends in a legal state; none is wedged
    // mid-flight at end of run.
    for t in &report.tenants {
        for state in t.by_state.keys() {
            assert_ne!(state, "Implementing");
            assert_ne!(state, "Reverting");
        }
    }
}

// ---------------------------------------------------------------------
// Supervised workers: poisoned tenants and the quarantine breaker.
// ---------------------------------------------------------------------

/// One tenant's worker panics mid-tick. The run completes, the tenant is
/// reported poisoned, and every other tenant's outcome is byte-identical
/// to a run where the poisoned tenant never misbehaved.
#[test]
fn poisoned_tenant_is_isolated_from_the_fleet() {
    let seed = chaos_seed();
    let fleet = small_fleet(8, seed);
    let clean_cfg = FleetDriverConfig {
        policy: fast_policy(),
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let poisoned_cfg = FleetDriverConfig {
        scripts: vec![TenantScript {
            tenant: 3,
            point: FaultPoint::TenantPanic,
            count: 1,
            kind: FaultKind::Fatal,
            at_tick: 0,
        }],
        ..clean_cfg.clone()
    };
    let clean = FleetDriver::new(clean_cfg).run(fleet.clone(), 10, 1);
    let poisoned = FleetDriver::new(poisoned_cfg.clone()).run(fleet.clone(), 10, 1);

    assert_eq!(poisoned.poisoned, 1);
    assert!(poisoned.tenants[3].status.is_poisoned());
    assert_eq!(poisoned.telemetry.count(EventKind::TenantPoisoned), 1);
    for i in 0..8 {
        if i == 3 {
            continue;
        }
        assert_eq!(
            serde_json::to_string(&clean.tenants[i]).unwrap(),
            serde_json::to_string(&poisoned.tenants[i]).unwrap(),
            "tenant {i} perturbed by tenant 3's panic"
        );
    }
    // The poisoned run itself replays deterministically in parallel.
    let poisoned_parallel = FleetDriver::new(poisoned_cfg).run(fleet, 10, 4);
    assert_eq!(
        poisoned.canonical_string(),
        poisoned_parallel.canonical_string()
    );
}

/// Three consecutive faulted ticks trip the breaker; the tenant's
/// control plane sits out the cool-down (workload keeps running), and
/// the whole episode replays byte-identically under parallelism.
#[test]
fn quarantine_breaker_trips_and_replays_deterministically() {
    let seed = chaos_seed();
    // Tears scripted at ticks 2, 3, 4 — the (tenant, tick) keying makes
    // them fire on those exact ticks under dense *and* sparse
    // scheduling, so the consecutive-tick premise holds on both grids
    // and the test runs in whichever mode the matrix selects.
    let tears = (2..5).map(|t| TenantScript {
        tenant: 1,
        point: FaultPoint::JournalTear,
        count: 1,
        kind: FaultKind::Transient,
        at_tick: t,
    });
    let cfg = FleetDriverConfig {
        policy: fast_policy(),
        quarantine_threshold: 3,
        quarantine_cooldown: 4,
        scripts: tears.collect(),
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let fleet = small_fleet(4, seed);
    let serial = FleetDriver::new(cfg.clone()).run(fleet.clone(), 12, 1);
    assert_eq!(serial.quarantines, 1);
    assert_eq!(serial.tenants[1].quarantines, 1);
    assert_eq!(serial.tenants[1].quarantined_ticks, 4);
    assert_eq!(serial.telemetry.count(EventKind::TenantQuarantined), 1);
    // Untouched tenants never quarantine.
    for i in [0usize, 2, 3] {
        assert_eq!(serial.tenants[i].quarantines, 0);
    }
    let parallel = FleetDriver::new(cfg).run(fleet, 12, 3);
    assert_eq!(serial.canonical_string(), parallel.canonical_string());
}

// ---------------------------------------------------------------------
// Stuck detection end-to-end + backoff discipline.
// ---------------------------------------------------------------------

fn one_managed(seed: u64) -> (ManagedDb, workload::WorkloadModel, workload::WorkloadRunner) {
    let mut cfg = TenantConfig::new(format!("stuck{seed}"), seed, ServiceTier::Basic);
    cfg.schema.min_tables = 1;
    cfg.schema.max_tables = 2;
    cfg.schema.min_rows = 1_000;
    cfg.schema.max_rows = 3_000;
    cfg.workload.base_rate_per_hour = 120.0;
    let t = generate_tenant(&cfg);
    let model = t.model.clone();
    let runner = t.runner.clone();
    (
        ManagedDb::new(
            t.db,
            controlplane::DbSettings::all_on(),
            controlplane::ServerSettings::default(),
        ),
        model,
        runner,
    )
}

/// A recommendation wedged in a non-terminal state past `stuck_horizon`
/// must surface as an incident and be parked terminally — the plane-
/// level path over `StateStore::stuck_since` that previously only had a
/// store-level unit test.
#[test]
fn stuck_recommendation_raises_incident_end_to_end() {
    let (mut mdb, model, mut runner) = one_managed(11);
    let mut plane = ControlPlane::new(PlanePolicy {
        stuck_horizon: Duration::from_days(1),
        ..fast_policy()
    });
    // Wedge: a Validating record with no `implemented_at`, which the
    // validation micro-service can never pick up.
    let now = mdb.db.clock().now();
    let name = mdb.db.name.clone();
    let id = plane.store.insert(&name, reco(1), now);
    plane.store.update(id, |r| {
        r.transition(RecoState::Implementing, now, "").unwrap();
        r.transition(RecoState::Validating, now, "").unwrap();
    });
    // Drive past the horizon.
    for _ in 0..30 {
        runner.run_slice_into(
            &mut mdb.db,
            &model,
            Duration::from_hours(1),
            &mut Default::default(),
        );
        plane.tick(&mut mdb);
    }
    assert!(
        plane
            .telemetry
            .incidents()
            .iter()
            .any(|i| i.summary.contains("stuck in Validating")),
        "incidents: {:?}",
        plane.telemetry.incidents()
    );
    assert_eq!(plane.store.get(id).unwrap().state, RecoState::Error);
}

/// Retries honor the exponential-backoff window: a parked retry must not
/// fire on the next pass, must emit backoff-wait telemetry when it
/// parks, and must dwell in Retry at least the un-jittered-minimum
/// delay before resuming.
#[test]
fn retries_honor_backoff_windows() {
    let (mut mdb, model, mut runner) = one_managed(12);
    let retry = RetryPolicy {
        base: Duration::from_hours(4),
        multiplier: 2.0,
        cap: Duration::from_hours(12),
        jitter: 0.0,
        seed: 7,
    };
    let mut plane = ControlPlane::new(PlanePolicy {
        retry: retry.clone(),
        ..fast_policy()
    });
    plane
        .faults
        .script(FaultPoint::IndexBuild, 1, FaultKind::Transient);
    for _ in 0..48 {
        runner.run_slice_into(
            &mut mdb.db,
            &model,
            Duration::from_hours(1),
            &mut Default::default(),
        );
        plane.tick(&mut mdb);
    }
    assert!(
        plane.telemetry.count(EventKind::ImplementFailedTransient) >= 1,
        "the scripted fault must fire"
    );
    assert!(
        plane.telemetry.count(EventKind::RetryBackoffWait) >= 1,
        "parking a transient failure must report its backoff wait"
    );
    assert!(
        plane.telemetry.count(EventKind::ImplementSucceeded) >= 1,
        "the retry eventually fires and succeeds: {:?}",
        plane.store.count_by_state()
    );
    // Every Retry dwell in every history respects the minimum delay.
    for r in plane.store.all() {
        let h = &r.history;
        for w in h.windows(2) {
            if w[0].to == RecoState::Retry {
                let dwell = w[1].at.since(w[0].at);
                assert!(
                    dwell >= retry.base,
                    "{}: left Retry after {dwell} < base {}",
                    r.id,
                    retry.base
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sparse-scheduler crash consistency: the wakeup schedule itself is
// journaled state and must survive a crash exactly.
// ---------------------------------------------------------------------

/// After every tick, replaying the journal from scratch must rebuild
/// the exact `WakeSchedule` the live plane just computed — crashing at
/// any tick boundary loses no scheduling information. Scripted
/// transient faults keep the retry stage busy so the schedule cycles
/// through At/NextTick/Idle shapes instead of staying trivial.
#[test]
fn recorded_wake_schedules_recover_exactly() {
    let (mut mdb, model, mut runner) = one_managed(21);
    let mut plane = ControlPlane::new(fast_policy());
    plane
        .faults
        .script(FaultPoint::IndexBuild, 2, FaultKind::Transient);
    let name = mdb.db.name.clone();
    for tick in 0..30 {
        runner.run_slice_into(
            &mut mdb.db,
            &model,
            Duration::from_hours(1),
            &mut Default::default(),
        );
        let live = plane.tick(&mut mdb);
        let (recovered, report) = StateStore::recovered_from(plane.store.journal_lines().to_vec());
        // Tick boundaries are quiescent points: nothing is mid-flight,
        // so recovery reparks nothing and the recorded schedule stands.
        assert!(
            report.reparked.is_empty(),
            "tick {tick}: tick-boundary recovery must not repark"
        );
        assert_eq!(
            recovered.schedule(&name),
            Some(&live),
            "tick {tick}: recovered wake schedule drifted from the live one"
        );
    }
}

/// The full sparse pipeline under crash sweep: an 8-tenant sparse run
/// that crash-recovers every tenant's store at every tick boundary must
/// end byte-identical to the uncrashed sparse run — i.e. the wake ticks
/// re-derived from recovered `WakeSchedule`s replay the same skips — and
/// both must match the dense oracle.
#[test]
fn sparse_crash_sweep_recovers_wakeups_identically() {
    let seed = chaos_seed();
    let base = FleetDriverConfig {
        policy: fast_policy(),
        fault_seed: Some(seed),
        fault_transient_prob: 0.15,
        fault_fatal_prob: 0.01,
        scheduling: SchedulingMode::Sparse,
        ..FleetDriverConfig::default()
    };
    let fleet = small_fleet(8, seed);
    let uncrashed = FleetDriver::new(base.clone()).run(fleet.clone(), 20, 1);
    let swept = FleetDriver::new(FleetDriverConfig {
        crash_every_ticks: Some(1),
        ..base.clone()
    })
    .run(fleet.clone(), 20, 1);
    assert_eq!(
        uncrashed.canonical_string(),
        swept.canonical_string(),
        "crash-recovery must reconstruct the sparse wakeup schedule exactly"
    );
    assert_eq!(
        uncrashed.control_ticks_skipped(),
        swept.control_ticks_skipped(),
        "recovered schedules must skip the same control passes"
    );
    assert!(
        uncrashed.control_ticks_skipped() > 0,
        "the scenario must actually exercise sparse skipping"
    );
    // And the sparse runs agree with the dense oracle.
    let dense = FleetDriver::new(FleetDriverConfig {
        scheduling: SchedulingMode::Dense,
        ..base
    })
    .run(fleet, 20, 1);
    assert_eq!(uncrashed.canonical_string(), dense.canonical_string());
}

/// The plan cache under crash sweep: memoized plans are engine-private
/// and never journaled, so crash-recovering every tenant's store at
/// every tick boundary with the cache ON must land byte-identical to
/// (a) the uncrashed cache-on run and (b) the crash-swept cache-OFF
/// oracle — recovery transparency in both directions. A recovered
/// store simply re-misses and recompiles; nothing observable moves.
#[test]
fn crash_sweep_with_plan_cache_matches_uncrashed_and_oracle() {
    let seed = chaos_seed();
    let base = FleetDriverConfig {
        policy: fast_policy(),
        fault_seed: Some(seed),
        fault_transient_prob: 0.15,
        fault_fatal_prob: 0.01,
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let swept_cfg = FleetDriverConfig {
        crash_every_ticks: Some(1),
        ..base.clone()
    };
    let fleet = small_fleet(6, seed);
    let uncrashed = FleetDriver::new(base).run(fleet.clone(), 20, 1);
    let swept = FleetDriver::new(swept_cfg.clone()).run(fleet.clone(), 20, 1);
    assert_eq!(
        uncrashed.canonical_string(),
        swept.canonical_string(),
        "cache-on crash sweep must replay the uncrashed run exactly"
    );
    let oracle = FleetDriver::new(swept_cfg).run(without_plan_cache(fleet), 20, 1);
    assert_eq!(
        swept.canonical_string(),
        oracle.canonical_string(),
        "crash-swept cache-on must equal the crash-swept cache-off oracle"
    );
    assert_eq!(swept.dashboard().render(), oracle.dashboard().render());
    assert!(
        swept.plan_cache_hits() > 0 && oracle.plan_cache_hits() == 0,
        "the sweep must actually exercise the cache ({} hits) and the \
         oracle must not ({})",
        swept.plan_cache_hits(),
        oracle.plan_cache_hits()
    );
}

// ---------------------------------------------------------------------
// Checkpointed journals: the compaction differential oracle.
// ---------------------------------------------------------------------

/// The tentpole proof for checkpointing: a crash-at-every-tick sweep
/// with aggressive compaction ON must land byte-identical — canonical
/// string, merged metrics, dashboard render — to the compaction-OFF
/// oracle, across {dense, sparse} × {1, 4 threads} × {plan cache
/// on, off}. Checkpoints are pure journal geometry: crashing across a
/// compaction boundary restores from the snapshot + tail instead of the
/// full journal, and nothing observable may move.
#[test]
fn compaction_crash_sweep_matches_compaction_off_oracle() {
    let seed = chaos_seed();
    let fleet = small_fleet(8, seed);
    let fleet_for = |plan_cache| {
        if plan_cache {
            fleet.clone()
        } else {
            without_plan_cache(fleet.clone())
        }
    };
    let mk = |journal: CompactionPolicy, scheduling| FleetDriverConfig {
        policy: PlanePolicy {
            journal,
            ..fast_policy()
        },
        fault_seed: Some(seed),
        fault_transient_prob: 0.15,
        fault_fatal_prob: 0.01,
        crash_every_ticks: Some(1),
        scheduling,
        ..FleetDriverConfig::default()
    };
    let off = CompactionPolicy {
        enabled: false,
        ..CompactionPolicy::default()
    };
    let oracle = FleetDriver::new(mk(off, SchedulingMode::Dense)).run(fleet_for(false), 20, 1);
    assert_eq!(
        oracle.checkpoints_written(),
        0,
        "the oracle must never checkpoint"
    );
    for scheduling in [SchedulingMode::Dense, SchedulingMode::Sparse] {
        for threads in [1usize, 4] {
            for plan_cache in [false, true] {
                let on = FleetDriver::new(mk(aggressive_compaction(), scheduling)).run(
                    fleet_for(plan_cache),
                    20,
                    threads,
                );
                let tag = format!("{scheduling:?}/{threads} threads/cache={plan_cache}");
                assert!(
                    on.checkpoints_written() > 0,
                    "{tag}: the sweep must actually cross compaction boundaries"
                );
                assert_eq!(
                    oracle.canonical_string(),
                    on.canonical_string(),
                    "{tag}: compaction must be invisible in the canonical state"
                );
                assert_eq!(
                    oracle.metrics, on.metrics,
                    "{tag}: compaction must be invisible in the merged metrics"
                );
                assert_eq!(
                    oracle.dashboard().render(),
                    on.dashboard().render(),
                    "{tag}: compaction must be invisible in the dashboard"
                );
            }
        }
    }
}

/// A checkpoint torn mid-write during a live run: recovery steps down
/// the fallback ladder (previous checkpoint, else full replay) without
/// panicking, raises the fallback incident, and loses nothing — the
/// keep-previous-checkpoint layout makes a torn newest checkpoint pure
/// redundancy. The faulted run replays deterministically in parallel.
#[test]
fn torn_checkpoint_falls_back_losslessly_and_reports() {
    let seed = chaos_seed();
    let mk = |scripts: Vec<TenantScript>| FleetDriverConfig {
        policy: PlanePolicy {
            // Explicitly aggressive (not `checkpoint_mode()`): this test
            // needs compaction even under CHECKPOINT=off.
            journal: aggressive_compaction(),
            ..fast_policy()
        },
        scripts,
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let tear = TenantScript {
        tenant: 0,
        point: FaultPoint::CheckpointTear,
        count: 2,
        kind: FaultKind::Transient,
        at_tick: 0,
    };
    let fleet = small_fleet(2, seed);
    let clean = FleetDriver::new(mk(vec![])).run(fleet.clone(), 24, 1);
    let torn = FleetDriver::new(mk(vec![tear.clone()])).run(fleet.clone(), 24, 1);

    assert_eq!(torn.poisoned, 0);
    assert!(
        torn.fallback_recoveries() >= 1,
        "the scripted tear must actually hit a checkpoint write"
    );
    assert!(torn.telemetry.count(EventKind::CheckpointFallback) >= 1);
    assert!(torn.telemetry.count(EventKind::StoreRecovered) >= 1);
    assert!(
        torn.telemetry
            .incidents()
            .iter()
            .any(|i| i.summary.contains("checkpoint torn/corrupt")),
        "fallback must page: {:?}",
        torn.telemetry.incidents()
    );
    // Lossless: every tenant's journaled state matches the un-torn run
    // (the torn run additionally carries the recovery incidents).
    for (c, t) in clean.tenants.iter().zip(&torn.tenants) {
        assert_eq!(c.by_state, t.by_state, "{}: state drifted", c.name);
        assert_eq!(c.indexes, t.indexes, "{}: indexes drifted", c.name);
        assert_eq!(c.recommendations, t.recommendations);
        assert_eq!(c.journal_writes, t.journal_writes);
    }
    for t in &torn.tenants {
        for state in t.by_state.keys() {
            assert_ne!(state, "Implementing");
            assert_ne!(state, "Reverting");
        }
    }
    // And the faulted episode itself is deterministic under threads.
    let torn_parallel = FleetDriver::new(mk(vec![tear])).run(fleet, 24, 4);
    assert_eq!(torn.canonical_string(), torn_parallel.canonical_string());
}

// ---------------------------------------------------------------------
// Flight chaos (§7 policy A/B under crashes).
// ---------------------------------------------------------------------

use controlplane::{FlightConfig, FlightDecision, FlightDriver};

/// A quick flight config over the chaos fleet: full cohort so every
/// tenant exercises the two-arm pipeline.
fn flight_cfg(seed: u64) -> FlightConfig {
    FlightConfig {
        id: format!("chaos-flight-{seed:x}"),
        seed,
        cohort_fraction: 1.0,
        control: PlanePolicy {
            analysis_interval: Duration::from_hours(100_000),
            ..PlanePolicy::default()
        },
        candidate: fast_policy(),
        baseline_ticks: 3,
        measure_ticks: 8,
        ..FlightConfig::default()
    }
}

/// Recovery from **every** journal prefix — a crash after any write —
/// followed by a resumed run, must land on the identical report and the
/// identical journaled terminal record: completed verdicts are never
/// recomputed, missing ones are, and the decision is stable.
#[test]
fn flight_resume_from_every_journal_prefix_converges() {
    let seed = chaos_seed();
    let fleet = small_fleet(4, seed ^ 0xF11);
    let cfg = flight_cfg(seed ^ 0xF11);
    let driver = FlightDriver::new(cfg);

    let mut full_store = StateStore::new();
    let full = driver.run_with_store(&fleet, &mut full_store, 1);
    let lines = full_store.journal_lines().to_vec();
    assert!(lines.len() >= fleet.len(), "one frame per verdict at least");

    for k in 0..=lines.len() {
        let (mut recovered, report) = StateStore::recovered_from(lines[..k].to_vec());
        assert!(!report.torn_tail, "prefix {k} reported torn tail");
        let resumed = driver.run_with_store(&fleet, &mut recovered, 1);
        assert_eq!(
            full.canonical_string(),
            resumed.canonical_string(),
            "resume from journal prefix {k} diverged"
        );
        assert_eq!(
            recovered.flight(&full.record.id),
            full_store.flight(&full.record.id),
            "journaled terminal flight record diverged after resuming from prefix {k}"
        );
    }
}

/// An aborted flight leaves **zero debris**: the workflow cleanups tore
/// down every B-instance fork, and the real fleet is untouched — a
/// fleet that hosted an aborted flight is canonically indistinguishable
/// from one that never flew it.
#[test]
fn aborted_flight_leaves_zero_debris() {
    let seed = chaos_seed();
    let flighted = small_fleet(5, seed ^ 0xDEB);
    let pristine = small_fleet(5, seed ^ 0xDEB);

    // Regressive candidate + hair-trigger divergence guard: the flight
    // aborts and at least one tenant exercises the discard/cleanup path.
    let cfg = FlightConfig {
        candidate: PlanePolicy {
            analysis_interval: Duration::from_hours(100_000),
            ..PlanePolicy::default()
        },
        control: fast_policy(),
        replay_drop_prob: 0.6,
        divergence_tolerance: 0.02,
        ..flight_cfg(seed ^ 0xDEB)
    };
    let report = FlightDriver::new(cfg).run(&flighted, 2);
    assert_eq!(report.decision, FlightDecision::Abort);
    assert!(
        report.discarded >= 1,
        "60% replay drops must trip the divergence guard somewhere:\n{}",
        report.canonical_string()
    );

    // Drive both fleets through the region afterwards: byte-identical.
    let drive = |fleet: Vec<Tenant>| {
        FleetDriver::new(FleetDriverConfig {
            policy: fast_policy(),
            scheduling: sched_mode(),
            ..FleetDriverConfig::default()
        })
        .run(fleet, 10, 1)
        .canonical_string()
    };
    assert_eq!(
        drive(flighted),
        drive(pristine),
        "aborted flight left debris in the fleet"
    );
}

// ---------------------------------------------------------------------
// The journal codec on real traffic: recovery == the live store at every
// tick, and a corruption fuzzer over the journals those runs recorded.
// ---------------------------------------------------------------------

use controlplane::{FrameFault, RecoveryReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A recorded journal and the databases whose schedules it carries.
struct Recorded {
    lines: Vec<String>,
    databases: Vec<String>,
}

/// Everything recovery must reproduce, as one comparable string.
fn store_canon(s: &StateStore, report: &RecoveryReport, databases: &[String]) -> String {
    let schedules: Vec<_> = databases.iter().map(|db| s.schedule(db)).collect();
    format!(
        "{:?}|{:?}|{:?}|{}|{}|{}",
        s.all().collect::<Vec<_>>(),
        schedules,
        s.flights(),
        s.journal_writes(),
        report.id_base,
        report.next_id,
    )
}

fn no_damage(report: &RecoveryReport) -> bool {
    report.rejected.is_empty() && report.truncated == 0 && report.corrupt_mid == 0
}

/// Drive one tenant for `ticks` the way `crash_recovery` does: after
/// every tick the store is recovered from its own journal, compared
/// with the live store field by field, and then *replaces* it, as a
/// process restart would. Returns the final store and the journal as it
/// stood at a few ticks along the way.
fn drive_crashing_every_tick(
    seed: u64,
    journal: CompactionPolicy,
    crash: bool,
) -> (StateStore, Vec<Recorded>) {
    let (mut mdb, model, mut runner) = one_managed(seed);
    let mut plane = ControlPlane::new(PlanePolicy {
        journal,
        ..fast_policy()
    });
    plane
        .faults
        .script(FaultPoint::IndexBuild, 2, FaultKind::Transient);
    let name = mdb.db.name.clone();
    let mut recorded = Vec::new();
    for tick in 0..32 {
        runner.run_slice_into(
            &mut mdb.db,
            &model,
            Duration::from_hours(1),
            &mut Default::default(),
        );
        plane.tick(&mut mdb);
        if !crash {
            continue;
        }
        let lines = plane.store.journal_lines().to_vec();
        if tick % 4 == 3 && recorded.last().is_none_or(|r: &Recorded| r.lines != lines) {
            recorded.push(Recorded {
                lines: lines.clone(),
                databases: vec![name.clone()],
            });
        }
        let (recovered, report) = StateStore::recovered_from(lines);
        assert!(no_damage(&report), "tick {tick}: {:?}", report.rejected);
        assert!(report.reparked.is_empty(), "tick {tick}: quiescent point");
        let live = &plane.store;
        assert!(
            live.all().eq(recovered.all()),
            "tick {tick}: a TrackedReco field did not survive the journal"
        );
        assert_eq!(live.count_by_state(), recovered.count_by_state());
        assert_eq!(live.schedule(&name), recovered.schedule(&name));
        assert_eq!(live.flights(), recovered.flights());
        assert_eq!(live.journal_writes(), recovered.journal_writes());
        assert_eq!(live.journal_lines(), recovered.journal_lines());
        plane.store = recovered;
    }
    (plane.store, recorded)
}

/// Compaction rare enough that a journal holds a long tail behind its
/// newest checkpoint: most of a damaged copy is then frames recovery
/// reads.
fn mild_compaction() -> CompactionPolicy {
    CompactionPolicy {
        enabled: true,
        min_frames: 12,
        garbage_ratio: 1.0,
    }
}

/// The journals the fuzzer mutates: tenant stores caught every few
/// ticks under the suite's compaction mode (`CHECKPOINT=on|off`) and
/// under a mild one, and a region store that journaled a whole flight.
fn recorded_journals(seed: u64) -> Vec<Recorded> {
    let mut out = Vec::new();
    for t in 0..2 {
        for journal in [checkpoint_mode(), mild_compaction()] {
            out.extend(drive_crashing_every_tick(seed.wrapping_add(t), journal, true).1);
        }
    }
    let fleet = small_fleet(4, seed ^ 0xF11);
    let mut store = StateStore::new();
    FlightDriver::new(flight_cfg(seed ^ 0xF11)).run_with_store(&fleet, &mut store, 1);
    out.push(Recorded {
        lines: store.journal_lines().to_vec(),
        databases: Vec::new(),
    });
    out
}

/// Recovery at every tick of a live run is invisible: the recovered
/// store equals the live one in every field (asserted inside the
/// drive), the run ends where the un-crashed run ends, and the fleet
/// driver's own crash-every-tick mode agrees with its un-crashed run.
#[test]
fn recovery_at_every_tick_equals_the_live_store_and_the_uncrashed_run() {
    let seed = chaos_seed();
    for t in 0..3 {
        let seed = seed.wrapping_add(t);
        let (crashed, recorded) = drive_crashing_every_tick(seed, checkpoint_mode(), true);
        let (uncrashed, _) = drive_crashing_every_tick(seed, checkpoint_mode(), false);
        assert!(!recorded.is_empty());
        assert!(
            crashed.all().eq(uncrashed.all()),
            "tenant {t}: crashing at every tick changed the outcome"
        );
        assert_eq!(crashed.journal_writes(), uncrashed.journal_writes());
    }

    let base = FleetDriverConfig {
        policy: fast_policy(),
        fault_seed: Some(seed),
        fault_transient_prob: 0.15,
        scheduling: sched_mode(),
        ..FleetDriverConfig::default()
    };
    let fleet = small_fleet(6, seed);
    let uncrashed = FleetDriver::new(base.clone()).run(fleet.clone(), 24, 1);
    let crashed = FleetDriver::new(FleetDriverConfig {
        crash_every_ticks: Some(1),
        ..base
    })
    .run(fleet, 24, 2);
    assert_eq!(uncrashed.canonical_string(), crashed.canonical_string());
}

/// A frame stamped with a version this build does not know is named in
/// the report wherever it sits; it is never read as a torn write.
#[test]
fn frame_from_a_newer_version_is_rejected_by_name() {
    let lines = seeded_store().journal_lines().to_vec();
    let stamp = |i: usize| {
        let mut out = lines.clone();
        assert!(out[i].starts_with("1|"));
        out[i].replace_range(..1, "2");
        out
    };
    let last = lines.len() - 1;
    let (_, tail) = StateStore::recovered_from(stamp(last));
    assert_eq!((tail.truncated, tail.corrupt_mid), (1, 0));
    assert_eq!(tail.rejected.len(), 1);
    assert_eq!(tail.rejected[0].frame, last);
    assert_eq!(tail.rejected[0].fault, FrameFault::UnknownVersion(2));

    let (_, mid) = StateStore::recovered_from(stamp(1));
    assert_eq!((mid.truncated, mid.corrupt_mid), (0, 1));
    assert_eq!(mid.rejected[0].frame, 1);
    assert_eq!(mid.rejected[0].fault, FrameFault::UnknownVersion(2));
    assert_eq!(mid.replayed, lines.len() - 1);
}

fn newest_checkpoint(lines: &[String]) -> Option<usize> {
    lines.iter().rposition(|l| l.starts_with("1|C|"))
}

/// One damaged copy of `lines`; `None` when the draw does not apply
/// (a swap at the last frame, a flip that lands inside a multi-byte
/// character). Three draws in four land where recovery reads — from the
/// frame before the newest checkpoint on — and one in eight first tears
/// that checkpoint, so the damage meets the fallback ladder.
fn mutate(lines: &[String], rng: &mut StdRng) -> Option<(String, Vec<String>)> {
    let mut out = lines.to_vec();
    let checkpoint = newest_checkpoint(lines);
    let read_from = checkpoint.map_or(0, |c| c.saturating_sub(1));
    let from = if rng.random_bool(0.75) { read_from } else { 0 };
    let i = rng.random_range(from..out.len());
    let torn = checkpoint.filter(|_| rng.random_bool(0.125));
    if let Some(c) = torn {
        out[c].truncate(lines[c].len() / 2);
    }
    let kind = match rng.random_range(0..5) {
        0 => {
            // One bit of one ASCII byte, kept within ASCII so the line
            // stays a `String`.
            let at = rng.random_range(0..out[i].len());
            let mut bytes = std::mem::take(&mut out[i]).into_bytes();
            if bytes[at] >= 0x80 {
                return None;
            }
            bytes[at] ^= 1u8 << rng.random_range(0..7u32);
            out[i] = String::from_utf8(bytes).expect("ASCII stays ASCII");
            "bit flip"
        }
        1 => {
            let mut cut = rng.random_range(0..out[i].len());
            while !out[i].is_char_boundary(cut) {
                cut -= 1;
            }
            out[i].truncate(cut);
            "truncation"
        }
        2 => {
            out.insert(i + 1, out[i].clone());
            "duplication"
        }
        3 => {
            if i + 1 == out.len() {
                return None;
            }
            out.swap(i, i + 1);
            "reordering"
        }
        _ => {
            out[i].replace_range(..1, "2");
            "version + 1"
        }
    };
    let ladder = if torn.is_some() {
        " behind a torn checkpoint"
    } else {
        ""
    };
    Some((format!("{kind} at frame {i}{ladder}"), out))
}

/// The fuzzer's contract for one damaged journal: recovery returns (a
/// panic fails the test — nothing here catches one), and either it
/// reports the damage or the state it rebuilt is the state of some
/// prefix of the undamaged journal. What it rebuilt is itself a clean
/// journal that recovers to the same state.
fn check_damaged(
    what: &str,
    damaged: Vec<String>,
    prefix_states: &std::collections::HashSet<String>,
    databases: &[String],
) {
    let (store, report) = StateStore::recovered_from(damaged);
    assert_eq!(
        report.rejected.len(),
        report.truncated + report.corrupt_mid,
        "{what}: every frame dropped is named"
    );
    let state = store_canon(&store, &report, databases);
    if no_damage(&report) {
        assert!(
            prefix_states.contains(&state),
            "{what}: silent divergence — a clean report over a state no prefix produces"
        );
    }
    let (again, second) = StateStore::recovered_from(store.journal_lines().to_vec());
    assert!(
        no_damage(&second),
        "{what}: rebuilt journal still damaged: {:?}",
        second.rejected
    );
    assert!(second.reparked.is_empty(), "{what}: re-park repeated");
    assert_eq!(state, store_canon(&again, &second, databases), "{what}");
}

/// Corruption fuzzer over journals recorded from real traffic: single
/// bit flips, truncation, duplication, adjacent reordering and a frame
/// from the next format version, anywhere in the journal, plus every
/// possible truncation of each journal's newest checkpoint and final
/// frame. 10,000 random cases per seed when `CHAOS_SEED` is set (CI's
/// chaos job), a bounded 1,500 otherwise (tier-1).
#[test]
fn damaged_journals_never_panic_and_never_diverge_silently() {
    let seed = chaos_seed();
    let cases = if std::env::var("CHAOS_SEED").is_ok() {
        10_000
    } else {
        1_500
    };
    let journals = recorded_journals(seed);
    let prefix_states: Vec<std::collections::HashSet<String>> = journals
        .iter()
        .map(|j| {
            (0..=j.lines.len())
                .map(|k| {
                    let (s, r) = StateStore::recovered_from(j.lines[..k].to_vec());
                    assert!(no_damage(&r), "prefix {k}: {:?}", r.rejected);
                    store_canon(&s, &r, &j.databases)
                })
                .collect()
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(seed ^ 0xF022);
    let mut done = 0;
    while done < cases {
        let which = rng.random_range(0..journals.len());
        let j = &journals[which];
        let Some((kind, damaged)) = mutate(&j.lines, &mut rng) else {
            continue;
        };
        let what = format!("seed {seed} case {done} journal {which}: {kind}");
        check_damaged(&what, damaged, &prefix_states[which], &j.databases);
        done += 1;
    }

    for (which, j) in journals.iter().enumerate() {
        for i in [newest_checkpoint(&j.lines), Some(j.lines.len() - 1)]
            .into_iter()
            .flatten()
        {
            for cut in (0..j.lines[i].len()).filter(|&c| j.lines[i].is_char_boundary(c)) {
                let mut damaged = j.lines.clone();
                damaged[i].truncate(cut);
                let what = format!("seed {seed} journal {which}: frame {i} cut at {cut}");
                check_damaged(&what, damaged, &prefix_states[which], &j.databases);
            }
        }
    }
}
