//! The control plane proper: the micro-services of §4, driving each
//! managed database's auto-indexing lifecycle.
//!
//! The four micro-services the paper enumerates run as the six explicit
//! pipeline stages of [`crate::stages`], looped by [`ControlPlane::tick`]:
//!
//! 1. **Analysis** — invoke the recommender (MI or DTA per the tier
//!    policy) plus the drop analyzer, and register new recommendations;
//! 2. **Implementation** — apply Active recommendations when the user's
//!    settings allow, preferring low-activity windows, with fault-aware
//!    retry;
//! 3. **Validation** — once enough post-change statistics accumulated,
//!    run the statistical validator and either confirm (Success) or
//!    auto-revert (Reverting → Reverted); validation outcomes also train
//!    the MI classifier online;
//! 4. **Health** — detect stuck recommendations and raise incidents,
//!    taking automated corrective action where safe.
//!
//! Each stage also knows when it next has work
//! ([`crate::stages::Stage::due`]); `tick` returns the resulting
//! [`WakeSchedule`] so a fleet driver can skip databases with nothing
//! due instead of dense-polling every tenant every simulated hour.

use crate::faults::{FaultInjector, FaultPoint};
use crate::metrics::MetricsRegistry;
use crate::stages::{Stage, WakeSchedule};
use crate::state::{effective, DbSettings, RecoId, RecoState, ServerSettings};
use crate::store::{CompactionPolicy, StateStore};
use crate::telemetry::{EventKind, Telemetry};
use crate::trace::Tracer;
use autoindex::drops::DropConfig;
use autoindex::dta::DtaConfig;
use autoindex::mi::{MiConfig, MiSnapshotStore};
use autoindex::validator::ValidatorConfig;
use autoindex::{ImpactClassifier, RecoAction, Recommendation};
use sqlmini::clock::{Duration, Timestamp};
use sqlmini::engine::Database;

/// Which recommender the per-region policy assigns (§5.1.1: "a
/// pre-configured policy in the control plane determines which
/// recommender to invoke").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecommenderPolicy {
    MiOnly,
    DtaOnly,
    /// Basic/Standard → MI (low overhead); Premium → DTA (comprehensive).
    ByTier,
}

/// Exponential backoff with deterministic jitter for the Retry state.
///
/// At fleet scale, retrying every failed action on the very next pass is
/// a retry storm: one flaky region makes hundreds of thousands of
/// tenants hammer the same resource in lock-step. Delays grow
/// geometrically from `base` up to `cap`, and each delay is jittered
/// *early* by up to `jitter` so co-failing tenants de-synchronize. The
/// jitter draw is a pure hash of `(seed, recommendation id, attempt)` —
/// no RNG state — so replays are byte-identical regardless of thread
/// interleaving, and the retry stage can compute a parked reco's exact
/// wake instant up front.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Delay before the first retry.
    pub base: Duration,
    /// Geometric growth factor per additional attempt.
    pub multiplier: f64,
    /// Upper bound on the un-jittered delay.
    pub cap: Duration,
    /// Jitter fraction in [0, 1]: each delay is scaled by a factor drawn
    /// deterministically from [1 - jitter, 1].
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_hours(1),
            multiplier: 2.0,
            cap: Duration::from_hours(12),
            jitter: 0.25,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// Deterministic uniform draw in [0, 1) from (seed, id, attempt).
    fn jitter01(&self, id: RecoId, attempts: u32) -> f64 {
        let mut z =
            self.seed ^ id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((attempts as u64) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// How long a recommendation must sit in Retry before attempt
    /// `attempts + 1` may fire.
    pub fn delay(&self, id: RecoId, attempts: u32) -> Duration {
        let exponent = attempts.saturating_sub(1).min(48) as i32;
        let exp = self.base.millis() as f64 * self.multiplier.max(1.0).powi(exponent);
        let capped = exp.min(self.cap.millis() as f64);
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * self.jitter01(id, attempts);
        Duration::from_millis((capped * scale).round() as u64)
    }

    /// Is a retry that entered Retry at `entered` (attempt `attempts`)
    /// eligible to resume at `now`? Equivalent to `now >= entered +
    /// delay`, phrased saturating so clock edge cases cannot overflow.
    pub fn eligible(&self, id: RecoId, attempts: u32, entered: Timestamp, now: Timestamp) -> bool {
        now.since(entered) >= self.delay(id, attempts)
    }
}

/// Control-plane policy knobs.
#[derive(Debug, Clone)]
pub struct PlanePolicy {
    pub recommender: RecommenderPolicy,
    /// How often to run full analysis per database.
    pub analysis_interval: Duration,
    /// Active recommendations expire after this age.
    pub reco_expiry: Duration,
    /// Minimum post-implementation observation before validating.
    pub validation_min_wait: Duration,
    /// Give up waiting for validation data after this long (→ Success
    /// with a no-data note).
    pub validation_max_wait: Duration,
    pub max_retry_attempts: u32,
    /// Backoff-with-jitter discipline for resuming parked retries.
    pub retry: RetryPolicy,
    /// Defer index builds to low-activity windows.
    pub schedule_builds: bool,
    /// Only run DTA sessions in low-activity windows (§5.3.1: DTA runs
    /// co-located with the primary and must not interfere with the
    /// customer's workload).
    pub dta_low_activity_only: bool,
    /// Non-terminal recommendations older than this raise incidents.
    pub stuck_horizon: Duration,
    pub mi: MiConfig,
    pub dta: DtaConfig,
    pub validator: ValidatorConfig,
    pub drops: DropConfig,
    /// Journal checkpointing/compaction trigger. The check runs at the
    /// end of every executed tick, after the wake schedule is recorded;
    /// it is deterministic in journaled state only, so serial, parallel,
    /// and sparse replays compact at identical points.
    pub journal: CompactionPolicy,
}

impl Default for PlanePolicy {
    fn default() -> PlanePolicy {
        PlanePolicy {
            recommender: RecommenderPolicy::ByTier,
            analysis_interval: Duration::from_hours(6),
            reco_expiry: Duration::from_days(7),
            validation_min_wait: Duration::from_hours(3),
            validation_max_wait: Duration::from_days(2),
            max_retry_attempts: 3,
            retry: RetryPolicy::default(),
            schedule_builds: false,
            dta_low_activity_only: false,
            stuck_horizon: Duration::from_days(3),
            mi: MiConfig::default(),
            dta: DtaConfig::default(),
            validator: ValidatorConfig::default(),
            drops: DropConfig::default(),
            journal: CompactionPolicy::default(),
        }
    }
}

/// Short metric-name segment for a recommendation action.
pub(crate) fn action_kind(action: &RecoAction) -> &'static str {
    match action {
        RecoAction::CreateIndex { .. } => "create_index",
        RecoAction::DropIndex { .. } => "drop_index",
    }
}

/// One database under management.
#[derive(Debug)]
pub struct ManagedDb {
    pub db: Database,
    pub settings: DbSettings,
    pub server: ServerSettings,
    pub mi_store: MiSnapshotStore,
    /// When usage observation began (for the drop analyzer's window).
    pub observed_since: Timestamp,
    pub last_analysis: Option<Timestamp>,
}

impl ManagedDb {
    pub fn new(db: Database, settings: DbSettings, server: ServerSettings) -> ManagedDb {
        let observed_since = db.clock().now();
        ManagedDb {
            db,
            settings,
            server,
            mi_store: MiSnapshotStore::new(),
            observed_since,
            last_analysis: None,
        }
    }
}

/// The per-region control plane.
#[derive(Debug)]
pub struct ControlPlane {
    pub store: StateStore,
    pub telemetry: Telemetry,
    /// The shard-owned metrics registry the §8.1 dashboard rolls up.
    pub metrics: MetricsRegistry,
    /// Span collector over the tick pipeline; disabled by default.
    pub tracer: Tracer,
    pub faults: FaultInjector,
    pub policy: PlanePolicy,
    /// The MI low-impact classifier, trained online from validation
    /// outcomes across all managed databases (§5.2).
    pub classifier: ImpactClassifier,
}

impl ControlPlane {
    pub fn new(policy: PlanePolicy) -> ControlPlane {
        ControlPlane {
            store: StateStore::new(),
            telemetry: Telemetry::new(),
            metrics: MetricsRegistry::new(),
            tracer: Tracer::disabled(),
            faults: FaultInjector::disabled(),
            policy,
            classifier: ImpactClassifier::default(),
        }
    }

    pub fn with_faults(mut self, faults: FaultInjector) -> ControlPlane {
        self.faults = faults;
        self
    }

    pub fn with_tracing(mut self) -> ControlPlane {
        self.tracer = Tracer::enabled();
        self
    }

    /// One orchestration pass over one database. Call it periodically
    /// (e.g. hourly) as simulated time advances — or, sparsely, only at
    /// the instants the returned [`WakeSchedule`] marks as due: a pass
    /// where no stage has due work changes no state, emits nothing, and
    /// draws no fault randomness, so skipping it is unobservable.
    ///
    /// Each pass emits one `tick` span with the pipeline stages as
    /// children (when tracing is on), refreshes the
    /// outstanding-recommendation gauges the dashboard reads, and
    /// records the recomputed wake schedule in the journaled store so
    /// crash recovery restores it.
    pub fn tick(&mut self, mdb: &mut ManagedDb) -> WakeSchedule {
        let started = mdb.db.clock().now();
        self.tracer.start("tick", started);
        if self.tracer.is_enabled() {
            self.tracer.attr(
                "db_hash",
                format!("{:016x}", crate::telemetry::db_hash(&mdb.db.name)),
            );
        }
        self.maybe_journal_tear(mdb);
        for stage in Stage::ALL {
            self.tracer.start(stage.name(), mdb.db.clock().now());
            stage.run(self, mdb);
            self.tracer.end(mdb.db.clock().now());
        }
        self.refresh_outstanding_gauges();
        self.tracer.end(mdb.db.clock().now());
        let schedule = WakeSchedule::compute(self, mdb);
        self.store.record_schedule(&mdb.db.name, &schedule);
        self.maybe_checkpoint(mdb);
        schedule
    }

    /// End-of-tick compaction check. A skipped (provably idle) tick
    /// appends nothing to the journal, so the trigger cannot fire on it
    /// — sparse and dense replays compact at identical points. The
    /// armed [`FaultPoint::CheckpointTear`] path tears the checkpoint
    /// frame just written and immediately restart-recovers, exercising
    /// the fallback ladder live; an unarmed check draws no randomness.
    fn maybe_checkpoint(&mut self, mdb: &ManagedDb) {
        if !self.store.should_compact(&self.policy.journal) {
            return;
        }
        self.store.compact();
        if self.faults.check(FaultPoint::CheckpointTear).is_some() {
            let now = mdb.db.clock().now();
            let name = mdb.db.name.clone();
            self.store.corrupt_last_checkpoint();
            self.recover_store(&name, now);
        }
    }

    /// Outstanding (Active, awaiting implementation) recommendations by
    /// action — §8.1's backlog lines. Gauges, not counters: they track
    /// the *current* level, re-measured at every tick boundary.
    fn refresh_outstanding_gauges(&mut self) {
        let mut creates = 0i64;
        let mut drops = 0i64;
        for r in self.store.all() {
            if r.state == RecoState::Active {
                match &r.recommendation.action {
                    RecoAction::CreateIndex { .. } => creates += 1,
                    RecoAction::DropIndex { .. } => drops += 1,
                }
            }
        }
        self.metrics.gauge_set("outstanding.create", creates);
        self.metrics.gauge_set("outstanding.drop", drops);
    }

    pub(crate) fn effective_settings(&self, mdb: &ManagedDb) -> (bool, bool) {
        effective(mdb.settings, mdb.server)
    }

    /// A recommendation duplicates an open or recently-succeeded one when
    /// it proposes the same action on the same object.
    pub(crate) fn is_duplicate_reco(&self, db_name: &str, reco: &Recommendation) -> bool {
        self.store.for_database(db_name).any(|r| {
            let same_action = match (&r.recommendation.action, &reco.action) {
                (RecoAction::CreateIndex { def: a }, RecoAction::CreateIndex { def: b }) => {
                    a.table == b.table && a.key_columns == b.key_columns
                }
                (
                    RecoAction::DropIndex { index: a, .. },
                    RecoAction::DropIndex { index: b, .. },
                ) => a == b,
                _ => false,
            };
            same_action
                && (!r.state.is_terminal()
                    || matches!(r.state, RecoState::Success | RecoState::Reverted))
        })
    }

    /// User-initiated application of one recommendation (the portal's
    /// "apply" button) — bypasses the auto-implement setting but is still
    /// validated by the system (§2). Re-records the wake schedule: the
    /// state change happened outside any tick.
    pub fn apply_manually(&mut self, mdb: &mut ManagedDb, id: RecoId) -> bool {
        let Some(r) = self.store.get(id) else {
            return false;
        };
        if r.state != RecoState::Active || r.database != mdb.db.name {
            return false;
        }
        let applied = crate::stages::implement::implement_one(self, mdb, id);
        if applied {
            let schedule = WakeSchedule::compute(self, mdb);
            self.store.record_schedule(&mdb.db.name, &schedule);
        }
        applied
    }

    // ------------------------------------------------------------------
    // Crash recovery
    // ------------------------------------------------------------------

    /// Injected process death mid-journal-write: tear the final record,
    /// then restart-and-recover. Armed via [`FaultPoint::JournalTear`];
    /// a no-op for injectors that never arm it.
    fn maybe_journal_tear(&mut self, mdb: &ManagedDb) {
        if self.faults.check(FaultPoint::JournalTear).is_none() {
            return;
        }
        let now = mdb.db.clock().now();
        let name = mdb.db.name.clone();
        self.store.corrupt_journal_tail();
        self.recover_store(&name, now);
    }

    /// Crash-recover the journaled store, surfacing the outcome through
    /// telemetry: one `StoreRecovered` event, one `JournalEntryTruncated`
    /// per dropped record, one `RecommendationReparked` per mid-flight
    /// recommendation parked back into Retry, and an incident whenever
    /// data was actually lost. Checkpoint outcomes are reported
    /// distinctly: `CheckpointRestored` when recovery started from a
    /// snapshot, `CheckpointFallback` (plus an incident) when a damaged
    /// checkpoint forced a step down the ladder, and one
    /// `JournalFrameCorrupt` (plus an incident) per mid-journal frame
    /// skipped — bit-rot is not the same signal as a torn tail.
    pub fn recover_store(&mut self, db_name: &str, now: Timestamp) -> crate::store::RecoveryReport {
        let report = self.store.crash_and_recover();
        self.telemetry.emit(
            EventKind::StoreRecovered,
            db_name,
            format!("replayed {} entries", report.replayed),
            now,
        );
        for _ in 0..report.truncated {
            self.telemetry
                .emit(EventKind::JournalEntryTruncated, db_name, "", now);
        }
        for id in &report.reparked {
            self.telemetry.emit(
                EventKind::RecommendationReparked,
                db_name,
                format!("{id}"),
                now,
            );
        }
        self.metrics
            .add("recovery.entries_replayed", report.replayed as u64);
        self.metrics.observe_with(
            "recovery.replayed_per_run",
            report.replayed as u64,
            &crate::metrics::Histogram::count_bounds(),
        );
        self.metrics.observe_with(
            "recovery.frame_reads",
            report.frame_reads as u64,
            &crate::metrics::Histogram::count_bounds(),
        );
        self.metrics.observe_with(
            "recovery.journal_bytes",
            self.store.journal_bytes() as u64,
            &crate::metrics::Histogram::bytes_bounds(),
        );
        if report.checkpoint_used {
            self.telemetry.emit(
                EventKind::CheckpointRestored,
                db_name,
                format!("{} frame reads", report.frame_reads),
                now,
            );
        }
        if report.corrupt_mid > 0 {
            for _ in 0..report.corrupt_mid {
                self.telemetry
                    .emit(EventKind::JournalFrameCorrupt, db_name, "", now);
            }
            self.telemetry.incident(
                db_name,
                format!(
                    "mid-journal corruption: {} frames skipped (intact records follow them)",
                    report.corrupt_mid
                ),
                now,
            );
        }
        if report.checkpoint_fallback {
            self.telemetry.emit(
                EventKind::CheckpointFallback,
                db_name,
                if report.checkpoint_used {
                    "fell back to previous checkpoint"
                } else {
                    "fell back to full replay"
                },
                now,
            );
            self.telemetry.incident(
                db_name,
                format!(
                    "checkpoint torn/corrupt: recovery fell back to {} (lossless)",
                    if report.checkpoint_used {
                        "the previous checkpoint"
                    } else {
                        "full replay"
                    }
                ),
                now,
            );
        }
        if report.torn_tail {
            self.metrics.inc("recovery.torn_tail");
            self.telemetry.incident(
                db_name,
                format!(
                    "journal tail torn: {} entries lost, {} recommendations re-parked",
                    report.truncated,
                    report.reparked.len()
                ),
                now,
            );
        }
        report
    }
}
