//! Property tests for journal checkpointing (ISSUE 7).
//!
//! The contract under test: **checkpoint + tail recovery is
//! indistinguishable from full journal replay**. For random operation
//! sequences (inserts, lifecycle advances, expiries, wake-schedule
//! rewrites, crash-recover cycles) with checkpoints forced at random
//! points, a store that compacted must agree with one that never did —
//! on recommendation state, id allocation, wake schedules, logical
//! write counters, and recovery bookkeeping.
//!
//! The chaos suite proves the same equivalence end-to-end through the
//! fleet driver; these properties attack the store layer directly with
//! far weirder interleavings than a fleet run produces.

use controlplane::{
    CompactionPolicy, ControlPlane, DbSettings, ManagedDb, NextDue, PlanePolicy, RecoId, RecoState,
    ServerSettings, StateStore, WakeSchedule,
};
use proptest::prelude::*;
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::ServiceTier;
use workload::fleet::{generate_tenant, TenantConfig};

const DBS: [&str; 3] = ["prop_a", "prop_b", "prop_c"];

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

fn sched(sel: u8, t: u64) -> WakeSchedule {
    WakeSchedule {
        recommend: NextDue::At(Timestamp(t + 1 + sel as u64 % 7)),
        retry: if sel.is_multiple_of(2) {
            NextDue::Idle
        } else {
            NextDue::NextTick
        },
        implement: NextDue::Idle,
        validate: if sel.is_multiple_of(3) {
            NextDue::At(Timestamp(t + 2))
        } else {
            NextDue::Idle
        },
        expire: NextDue::Idle,
        health: NextDue::NextTick,
    }
}

/// One legal step along Active → Implementing → Validating → Success.
/// Terminal / Retry states are left alone.
fn advance(s: &mut StateStore, id: RecoId, t: u64) {
    let next = match s.get(id).map(|r| r.state) {
        Some(RecoState::Active) => RecoState::Implementing,
        Some(RecoState::Implementing) => RecoState::Validating,
        Some(RecoState::Validating) => RecoState::Success,
        _ => return,
    };
    s.update(id, |r| r.transition(next, Timestamp(t), "prop").unwrap());
}

fn expire(s: &mut StateStore, id: RecoId, t: u64) {
    if s.get(id).map(|r| r.state) == Some(RecoState::Active) {
        s.update(id, |r| {
            r.transition(RecoState::Expired, Timestamp(t), "prop")
                .unwrap()
        });
    }
}

/// Canonical fingerprint of everything journaled: recommendations (id,
/// state, substate, history length), and the wake schedule per database.
fn fingerprint(s: &StateStore) -> String {
    let mut out = String::new();
    for r in s.all() {
        out.push_str(&format!(
            "{}:{:?}:{:?}:{}\n",
            r.id,
            r.state,
            r.substate,
            r.history.len()
        ));
    }
    for db in DBS {
        out.push_str(&format!("{db}={:?}\n", s.schedule(db)));
    }
    out
}

/// Ops are `(kind, selector)` pairs; the selector picks a database, a
/// recommendation, or schedule parameters. Kind 4 forces a checkpoint on
/// the compacting store (and is a no-op on the plain one); kind 5
/// crash-recovers **both** stores at the same point.
fn apply(
    compacted: &mut StateStore,
    plain: &mut StateStore,
    ids: &mut Vec<RecoId>,
    op: (u8, u8),
    t: u64,
) -> bool {
    let (kind, sel) = op;
    match kind {
        0 => {
            let db = DBS[sel as usize % DBS.len()];
            let a = compacted.insert(db, reco(sel as u32), Timestamp(t));
            let b = plain.insert(db, reco(sel as u32), Timestamp(t));
            assert_eq!(a, b, "id allocation must not depend on compaction");
            ids.push(a);
        }
        1 => {
            if let Some(&id) = ids.get(sel as usize % ids.len().max(1)) {
                advance(compacted, id, t);
                advance(plain, id, t);
            }
        }
        2 => {
            if let Some(&id) = ids.get(sel as usize % ids.len().max(1)) {
                expire(compacted, id, t);
                expire(plain, id, t);
            }
        }
        3 => {
            let db = DBS[sel as usize % DBS.len()];
            let ws = sched(sel, t);
            compacted.record_schedule(db, &ws);
            plain.record_schedule(db, &ws);
        }
        4 => {
            compacted.compact();
            return true;
        }
        _ => {
            let ra = compacted.crash_and_recover();
            let rb = plain.crash_and_recover();
            assert_eq!(
                ra.reparked, rb.reparked,
                "crash at op {t}: reparks must not depend on compaction"
            );
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random op sequences with checkpoints at random points: the
    /// compacting store and the never-compacting store agree live, and
    /// recovering each journal from scratch agrees again — state,
    /// id-base, schedules, and write counters all equal.
    #[test]
    fn checkpoint_tail_recovery_equals_full_replay(
        ops in collection::vec((0u8..6, any::<u8>()), 1..60),
    ) {
        let mut compacted = StateStore::with_id_base(7_000);
        let mut plain = StateStore::with_id_base(7_000);
        let mut ids = Vec::new();
        let mut checkpointed = false;
        for (i, &op) in ops.iter().enumerate() {
            checkpointed |= apply(&mut compacted, &mut plain, &mut ids, op, i as u64);
            prop_assert!(
                compacted.journal_writes() == plain.journal_writes(),
                "logical write counters diverged at op {}",
                i
            );
        }
        // Live equivalence after the whole sequence.
        prop_assert_eq!(fingerprint(&compacted), fingerprint(&plain));
        prop_assert_eq!(compacted.recovery_stats(), plain.recovery_stats());
        prop_assert!(
            !checkpointed || compacted.journal_lines().len() <= plain.journal_lines().len() + 2,
            "compaction must not inflate the journal beyond its checkpoints"
        );

        // Cold recovery: checkpoint + tail vs full replay.
        let (ra_store, ra) = StateStore::recovered_from(compacted.journal_lines().to_vec());
        let (rb_store, rb) = StateStore::recovered_from(plain.journal_lines().to_vec());
        prop_assert_eq!(fingerprint(&ra_store), fingerprint(&rb_store));
        prop_assert_eq!(ra.id_base, rb.id_base);
        prop_assert_eq!(ra.next_id, rb.next_id);
        prop_assert_eq!(&ra.reparked, &rb.reparked);
        prop_assert!(!ra.torn_tail && !rb.torn_tail);
        prop_assert_eq!(ra.corrupt_mid, 0);
        prop_assert!(
            ra.checkpoint_used == checkpointed,
            "recovery must use a checkpoint exactly when one was written"
        );
        prop_assert!(!rb.checkpoint_used);
        prop_assert!(
            ra.frame_reads <= rb.frame_reads || !checkpointed,
            "checkpoint+tail recovery read {} frames, full replay {}",
            ra.frame_reads, rb.frame_reads
        );
        // Id allocation continues in lockstep after recovery, too.
        let mut ra_store = ra_store;
        let mut rb_store = rb_store;
        let na = ra_store.insert(DBS[0], reco(999), Timestamp(9_999));
        let nb = rb_store.insert(DBS[0], reco(999), Timestamp(9_999));
        prop_assert_eq!(na, nb);
    }

    /// Corrupting the newest checkpoint at a random post-compaction
    /// moment never loses journaled state: the fallback ladder lands on
    /// the previous checkpoint or full replay with an identical
    /// fingerprint, and the rebuilt journal recovers cleanly afterward.
    #[test]
    fn torn_checkpoint_recovery_is_lossless(
        ops in collection::vec((0u8..5, any::<u8>()), 4..40),
    ) {
        let mut compacted = StateStore::with_id_base(11_000);
        let mut plain = StateStore::with_id_base(11_000);
        let mut ids = Vec::new();
        let mut checkpointed = false;
        for (i, &op) in ops.iter().enumerate() {
            checkpointed |= apply(&mut compacted, &mut plain, &mut ids, op, i as u64);
        }
        if !checkpointed {
            // Force at least one checkpoint so there is something to tear.
            compacted.compact();
        }
        compacted.corrupt_last_checkpoint();
        let report = compacted.crash_and_recover();
        // Crash the oracle too: recovery re-parks mid-flight work and
        // drops stale schedules on both sides identically.
        let oracle_report = plain.crash_and_recover();
        prop_assert!(report.checkpoint_fallback, "damaged newest checkpoint must be noticed");
        prop_assert!(!oracle_report.checkpoint_fallback);
        prop_assert_eq!(&report.reparked, &oracle_report.reparked);
        prop_assert_eq!(fingerprint(&compacted), fingerprint(&plain));
        // The rebuilt journal is clean: a second crash sees no damage.
        let second = compacted.crash_and_recover();
        prop_assert!(!second.checkpoint_fallback);
        prop_assert_eq!(second.corrupt_mid, 0);
        prop_assert!(!second.torn_tail);
        prop_assert_eq!(fingerprint(&compacted), fingerprint(&plain));
    }
}

/// A fixed frame trigger (no garbage-ratio scaling), so a compacted
/// journal's frame count has a static bound independent of run length.
const MIN_FRAMES: usize = 32;

/// One seeded Basic tenant under real statement traffic and real
/// control-plane ticks, journaling under `journal`.
fn drive_tenant(ticks: u32, journal: CompactionPolicy) -> (ControlPlane, String) {
    let mut cfg = TenantConfig::new("ckpt00", 42, ServiceTier::Basic);
    cfg.schema.min_tables = 1;
    cfg.schema.max_tables = 2;
    cfg.schema.min_rows = 1_000;
    cfg.schema.max_rows = 3_000;
    cfg.workload.base_rate_per_hour = 120.0;
    let t = generate_tenant(&cfg);
    let (model, mut runner) = (t.model, t.runner);
    let mut mdb = ManagedDb::new(t.db, DbSettings::all_on(), ServerSettings::default());
    let mut plane = ControlPlane::new(PlanePolicy {
        analysis_interval: Duration::from_hours(2),
        validation_min_wait: Duration::from_hours(1),
        journal,
        ..PlanePolicy::default()
    });
    for _ in 0..ticks {
        runner.run_slice_into(
            &mut mdb.db,
            &model,
            Duration::from_hours(1),
            &mut Default::default(),
        );
        plane.tick(&mut mdb);
    }
    (plane, mdb.db.name.clone())
}

/// The store-level properties above churn synthetic schedules; this is
/// the same contract on the journal a live control plane writes: however
/// long the tenant has lived, a compacted journal holds — and recovery
/// reads — at most two checkpoints plus one compaction interval.
#[test]
fn live_plane_journal_and_recovery_are_bounded_under_compaction() {
    let policy = |enabled| CompactionPolicy {
        enabled,
        min_frames: MIN_FRAMES,
        garbage_ratio: 0.0,
    };
    let frame_cap = 2 * MIN_FRAMES + 4;
    let (plain, _) = drive_tenant(320, policy(false));
    let (compacted, db) = drive_tenant(320, policy(true));

    // Checkpointing changes what the journal looks like, never what the
    // control plane does.
    assert_eq!(
        compacted.store.journal_writes(),
        plain.store.journal_writes()
    );
    assert!(
        plain.store.journal_len() > 2 * frame_cap,
        "the run must be long enough to tell bounded from unbounded: {} frames",
        plain.store.journal_len()
    );
    let written = compacted.store.checkpoint_stats().checkpoints_written;
    assert!(written >= 3, "only {written} checkpoints written");
    assert!(
        compacted.store.journal_len() <= frame_cap,
        "{} frames retained, cap {frame_cap}",
        compacted.store.journal_len()
    );

    for (plane, checkpointed) in [(&plain, false), (&compacted, true)] {
        let live = &plane.store;
        let (recovered, report) = StateStore::recovered_from(live.journal_lines().to_vec());
        assert!(
            !report.torn_tail && report.corrupt_mid == 0,
            "clean journal"
        );
        assert!(
            report.reparked.is_empty(),
            "a tick boundary has nothing mid-flight"
        );
        assert_eq!(report.checkpoint_used, checkpointed);
        if checkpointed {
            assert!(
                report.frame_reads <= frame_cap,
                "recovery read {} frames, cap {frame_cap}",
                report.frame_reads
            );
        } else {
            assert_eq!(report.frame_reads, live.journal_len());
        }
        assert_eq!(recovered.count_by_state(), live.count_by_state());
        assert_eq!(recovered.schedule(&db), live.schedule(&db));
        assert_eq!(recovered.journal_writes(), live.journal_writes());
    }
}
