//! Journaled recommendation-state store.
//!
//! The production control plane persists its state machine in a
//! highly-available database (§4). Here durability is modeled with an
//! append-only journal of checksummed, length-prefixed, versioned
//! frames (the format is `store/codec.rs`'s): every mutation is
//! journaled, and recovery replays the journal into a fresh in-memory
//! map. Crash consistency is the point — a torn or corrupt tail is
//! truncated (never a panic), recovery reports every frame it dropped
//! and why, and any recommendation caught mid-`Implementing` or
//! mid-`Reverting` is re-parked in the paper's Retry state rather than
//! silently resumed, because the crash may or may not have completed
//! the underlying engine action.
//!
//! # Checkpointing and compaction
//!
//! Append-only forever means replay cost and journal size grow with
//! history, making long-lived tenants the *least* recoverable ones. A
//! checkpoint frame snapshots the whole canonical store state under
//! the same framing as every other record; when the
//! [`CompactionPolicy`] trigger fires, [`StateStore::compact`] appends
//! a fresh checkpoint and truncates everything *before the previous
//! checkpoint*. Keeping the previous checkpoint makes a damaged latest
//! checkpoint lossless: every logical frame since the previous one is
//! still present, so recovery falls back one rung on the ladder —
//! latest checkpoint → previous checkpoint → full replay — and loses
//! nothing. Checkpoint frames are pure redundancy, never the only copy
//! of any state.

mod codec;

use crate::flight::FlightRecord;
use crate::stages::WakeSchedule;
use crate::state::{RecoId, TrackedReco};
use autoindex::Recommendation;
use codec::{CheckpointState, JournalEntry};
use sqlmini::clock::Timestamp;
use std::borrow::Cow;
use std::collections::BTreeMap;

pub use codec::{FrameError, FrameFault};

/// When the journal gets compacted. Lives on
/// [`PlanePolicy`](crate::plane::PlanePolicy) as `journal`; the store
/// itself stays policy-free (the trigger check takes the policy as an
/// argument), so replacing a plane's store never desynchronizes policy.
///
/// The trigger is deterministic in journaled state only —
/// `appends_since_checkpoint >= max(min_frames, ⌈garbage_ratio × live⌉)`
/// where `live` counts tracked recommendations + schedules + 1 — so
/// serial, parallel, and sparse replays compact at identical points.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Master switch; `false` restores the append-only-forever behavior
    /// (the differential oracle for the equivalence proofs).
    pub enabled: bool,
    /// Never compact before this many logical appends accumulated since
    /// the last checkpoint — a floor that stops tiny stores from
    /// checkpointing on every other write.
    pub min_frames: usize,
    /// Compact once the appends since the last checkpoint exceed this
    /// multiple of the live-entry count — i.e. once replaying the tail
    /// costs more than this factor over re-reading a snapshot.
    pub garbage_ratio: f64,
}

impl Default for CompactionPolicy {
    fn default() -> CompactionPolicy {
        CompactionPolicy {
            enabled: true,
            min_frames: 64,
            garbage_ratio: 2.0,
        }
    }
}

/// Cumulative checkpoint/compaction counters for one store — driver
/// bookkeeping (non-canonical), surfaced in the §8.1 journal/recovery
/// dashboard block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoint frames written by compaction.
    pub checkpoints_written: u64,
    /// Journal frames truncated away by compaction.
    pub(crate) frames_compacted: u64,
    /// Journal bytes reclaimed by compaction.
    pub(crate) bytes_reclaimed: u64,
    /// Recoveries that could not use the newest checkpoint and stepped
    /// down the fallback ladder.
    pub(crate) fallback_recoveries: u64,
    /// Mid-journal corrupt frames skipped (as opposed to torn tails).
    pub(crate) corrupt_frames: u64,
}

/// What one [`StateStore::crash_and_recover`] pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Journal entries successfully replayed (a restored checkpoint
    /// counts as one).
    pub replayed: usize,
    /// Entries dropped from the tail (the maximal invalid suffix).
    pub truncated: usize,
    /// True when truncation happened because a record failed frame or
    /// checksum validation (as opposed to a clean, complete journal).
    pub torn_tail: bool,
    /// Invalid frames found *mid*-journal — an intact frame follows
    /// them, so they are bit-rot or a damaged checkpoint, not a torn
    /// tail. Skipped and dropped from the rebuilt journal; safe because
    /// upserts carry absolute state, schedules self-heal on the next
    /// pass, and checkpoints are redundant by construction.
    pub corrupt_mid: usize,
    /// Recommendations found mid-`Implementing`/`Reverting` and
    /// re-parked into Retry.
    pub reparked: Vec<RecoId>,
    /// The recovered id-allocation base.
    pub id_base: u64,
    /// The next id the recovered store will allocate.
    pub next_id: u64,
    /// True when recovery restored from a checkpoint (plus tail replay)
    /// instead of replaying the whole journal.
    pub checkpoint_used: bool,
    /// True when at least one checkpoint frame was torn or corrupt and
    /// recovery stepped down the ladder (previous checkpoint, or full
    /// replay). Lossless by the keep-previous-checkpoint invariant, but
    /// reported — it means a checkpoint write died mid-flight.
    pub checkpoint_fallback: bool,
    /// Every frame recovery read and did not replay, in journal order,
    /// with the reason: the frames `truncated` and `corrupt_mid` count.
    pub rejected: Vec<FrameError>,
    /// Frames read (validated) during recovery — the bounded-replay cost
    /// metric: with compaction this stays ≈ checkpoint + tail while the
    /// uncompacted baseline reads the entire history.
    pub frame_reads: usize,
    /// Databases whose stale wake schedule was rewritten to the
    /// conservative [`WakeSchedule::immediate`] because a re-park
    /// invalidated it. Journaled (like the re-park itself), so repeated
    /// recoveries — from a checkpoint or from full replay — converge on
    /// the same schedule instead of resurrecting the stale one.
    rescheduled: usize,
}

/// The state store: in-memory view + append-only journal.
#[derive(Debug, Default)]
pub struct StateStore {
    recos: BTreeMap<RecoId, TrackedReco>,
    next_id: u64,
    id_base: u64,
    journal: Vec<String>,
    /// Sequence number of the newest frame written or replayed. Every
    /// frame (checkpoints too) takes the next one, so along a journal
    /// the numbers only rise; recovery rejects a frame that breaks that.
    last_seq: u64,
    /// Last recorded wake schedule per database (journaled on change).
    schedules: BTreeMap<String, WakeSchedule>,
    /// Latest journaled state per flight id (journaled on change).
    flights: BTreeMap<String, FlightRecord>,
    last_recovery: Option<RecoveryReport>,
    /// Cumulative chaos counters (survive across recoveries).
    recoveries: u64,
    truncated_total: u64,
    reparked_total: u64,
    /// Logical journal appends ever made (Upsert/Meta/Schedule, NOT
    /// checkpoint frames). Monotonic: unlike `journal.len()` it survives
    /// compaction, truncation, and crash-recovery, which makes it the
    /// canonical write-traffic proxy — identical between compaction-on
    /// and compaction-off runs by construction.
    writes_total: u64,
    /// Index of the newest checkpoint frame in `journal`, if any.
    last_checkpoint: Option<usize>,
    /// Logical appends since the last checkpoint (compaction trigger).
    appends_since_checkpoint: usize,
    /// Compaction/fallback bookkeeping (see [`CheckpointStats`]).
    checkpoints_written: u64,
    frames_compacted: u64,
    bytes_reclaimed: u64,
    fallback_recoveries: u64,
    corrupt_frames_total: u64,
}

impl StateStore {
    pub fn new() -> StateStore {
        StateStore::default()
    }

    /// A store whose [`RecoId`]s start at `base`. The fleet driver gives
    /// each tenant's shard-owned store a disjoint id block, so ids are
    /// unique fleet-wide and independent of thread interleaving. The
    /// base is journaled so recovery preserves the block (a recovered
    /// shard must never re-allocate from 0 and collide fleet-wide).
    pub fn with_id_base(base: u64) -> StateStore {
        let mut s = StateStore {
            next_id: base,
            id_base: base,
            ..StateStore::default()
        };
        if base > 0 {
            s.append(&JournalEntry::Meta { id_base: base });
        }
        s
    }

    /// Append one logical record under framing.
    fn append(&mut self, entry: &JournalEntry<'_>) {
        let line = codec::encode_frame(self.last_seq + 1, entry);
        self.push_logical(line);
    }

    /// Take in the frame encoded for sequence number `last_seq + 1`,
    /// counting it toward the monotonic write total and the compaction
    /// trigger.
    fn push_logical(&mut self, line: String) {
        self.last_seq += 1;
        self.journal.push(line);
        self.writes_total += 1;
        self.appends_since_checkpoint += 1;
    }

    /// Track a new recommendation (state: Active).
    pub fn insert(
        &mut self,
        database: impl Into<String>,
        recommendation: Recommendation,
        now: Timestamp,
    ) -> RecoId {
        let id = RecoId(self.next_id);
        self.next_id += 1;
        let tracked = TrackedReco::new(id, database, recommendation, now);
        self.append(&JournalEntry::Upsert(Cow::Borrowed(&tracked)));
        self.recos.insert(id, tracked);
        id
    }

    pub fn get(&self, id: RecoId) -> Option<&TrackedReco> {
        self.recos.get(&id)
    }

    /// Mutate a recommendation through `f`; the updated record is
    /// journaled. Returns `f`'s result.
    pub fn update<T>(&mut self, id: RecoId, f: impl FnOnce(&mut TrackedReco) -> T) -> Option<T> {
        let r = self.recos.get_mut(&id)?;
        let out = f(r);
        // Encoded from the borrowed record (it and `last_seq` are
        // disjoint fields), so an update clones nothing.
        let line = codec::encode_frame(self.last_seq + 1, &JournalEntry::Upsert(Cow::Borrowed(r)));
        self.push_logical(line);
        Some(out)
    }

    /// Record a database's end-of-tick wake schedule. Journaled only
    /// when it differs from the last recorded one: a no-op tick
    /// recomputes an identical schedule and must not grow the journal
    /// (the sparse/dense equivalence proof leans on this).
    pub fn record_schedule(&mut self, database: &str, schedule: &WakeSchedule) {
        if self.schedules.get(database) == Some(schedule) {
            return;
        }
        self.append(&JournalEntry::Schedule {
            database: Cow::Borrowed(database),
            schedule: *schedule,
        });
        self.schedules.insert(database.to_string(), *schedule);
    }

    /// The last recorded wake schedule for a database (journal-backed:
    /// survives [`StateStore::crash_and_recover`]).
    pub fn schedule(&self, database: &str) -> Option<&WakeSchedule> {
        self.schedules.get(database)
    }

    /// Record a flight state transition. Journaled only when it differs
    /// from the last recorded state for the same flight id, so replaying
    /// an already-journaled transition (resume after a crash) does not
    /// grow the journal.
    pub(crate) fn record_flight(&mut self, rec: &FlightRecord) {
        if self.flights.get(&rec.id) == Some(rec) {
            return;
        }
        self.append(&JournalEntry::Flight(Cow::Borrowed(rec)));
        self.flights.insert(rec.id.clone(), rec.clone());
    }

    /// The last journaled state of a flight (journal-backed: survives
    /// [`StateStore::crash_and_recover`]).
    pub fn flight(&self, id: &str) -> Option<&FlightRecord> {
        self.flights.get(id)
    }

    /// All journaled flights, by id.
    pub fn flights(&self) -> &BTreeMap<String, FlightRecord> {
        &self.flights
    }

    /// All recommendations for one database.
    pub fn for_database<'a>(
        &'a self,
        database: &'a str,
    ) -> impl Iterator<Item = &'a TrackedReco> + 'a {
        self.recos.values().filter(move |r| r.database == database)
    }

    pub fn all(&self) -> impl Iterator<Item = &TrackedReco> {
        self.recos.values()
    }

    /// Count by state (dashboard primitive).
    pub fn count_by_state(&self) -> BTreeMap<String, usize> {
        let mut m = BTreeMap::new();
        for r in self.recos.values() {
            *m.entry(format!("{:?}", r.state)).or_default() += 1;
        }
        m
    }

    pub(crate) fn len(&self) -> usize {
        self.recos.len()
    }

    pub fn is_empty(&self) -> bool {
        self.recos.is_empty()
    }

    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Total journal size in bytes — the quantity compaction bounds
    /// (append-only-forever grows this linearly with history).
    pub fn journal_bytes(&self) -> usize {
        self.journal.iter().map(String::len).sum()
    }

    /// Logical journal appends ever made — monotonic across compaction,
    /// truncation, and crash-recovery (checkpoint frames excluded). The
    /// canonical write-traffic proxy.
    pub fn journal_writes(&self) -> u64 {
        self.writes_total
    }

    /// The raw framed journal lines (chaos-test surface).
    pub fn journal_lines(&self) -> &[String] {
        &self.journal
    }

    /// Drop the last `n` journal records — models writes the crashed
    /// process acknowledged in memory but never made durable.
    #[cfg(test)]
    fn tear_journal_tail(&mut self, n: usize) {
        let keep = self.journal.len().saturating_sub(n);
        self.journal.truncate(keep);
        self.last_checkpoint = self.journal.iter().rposition(|l| codec::is_checkpoint(l));
    }

    /// Mangle journal record `i` — models bit-rot or a record torn
    /// mid-write. Works anywhere in the journal (including checkpoint
    /// frames), so mid-journal corruption and checkpoint-fallback paths
    /// are testable, not just the final record. The frame's length
    /// prefix and checksum make the damage detectable on recovery.
    pub fn corrupt_journal_frame(&mut self, i: usize) {
        if let Some(line) = self.journal.get_mut(i) {
            let mut k = line.len() / 2;
            while k > 0 && !line.is_char_boundary(k) {
                k -= 1;
            }
            line.truncate(k);
        }
    }

    /// Mangle the final journal record — the classic torn-tail shape.
    pub fn corrupt_journal_tail(&mut self) {
        if !self.journal.is_empty() {
            self.corrupt_journal_frame(self.journal.len() - 1);
        }
    }

    /// Mangle the newest checkpoint frame — models the process dying
    /// mid-checkpoint-write
    /// ([`FaultPoint::CheckpointTear`](crate::faults::FaultPoint::CheckpointTear)).
    /// Recovery must step down the fallback ladder, losing nothing.
    pub fn corrupt_last_checkpoint(&mut self) {
        if let Some(i) = self.last_checkpoint {
            self.corrupt_journal_frame(i);
        }
    }

    /// Does the compaction trigger fire? Deterministic in journaled
    /// state only: serial/parallel/sparse replays agree.
    pub(crate) fn should_compact(&self, policy: &CompactionPolicy) -> bool {
        if !policy.enabled {
            return false;
        }
        let live = self.recos.len() + self.schedules.len() + self.flights.len() + 1;
        let by_ratio = (policy.garbage_ratio.max(0.0) * live as f64).ceil() as usize;
        self.appends_since_checkpoint >= policy.min_frames.max(1).max(by_ratio)
    }

    /// Write a checkpoint frame and truncate the prefix before the
    /// *previous* checkpoint. Keeping one full checkpoint-to-checkpoint
    /// interval behind the new snapshot is what makes a torn latest
    /// checkpoint lossless: the ladder steps back to the previous
    /// checkpoint and re-replays the (still present) interval. Returns
    /// `(frames truncated, bytes reclaimed)`.
    pub fn compact(&mut self) -> (usize, u64) {
        let state = CheckpointState {
            recos: self.recos.values().cloned().collect(),
            schedules: self.schedules.clone(),
            flights: self.flights.clone(),
            id_base: self.id_base,
            next_id: self.next_id,
            writes_total: self.writes_total,
            recoveries: self.recoveries,
            truncated_total: self.truncated_total,
            reparked_total: self.reparked_total,
        };
        self.last_seq += 1;
        let line = codec::encode_frame(self.last_seq, &JournalEntry::Checkpoint(Box::new(state)));
        let cut = self.last_checkpoint.unwrap_or(0).min(self.journal.len());
        let bytes: u64 = self.journal.drain(..cut).map(|l| l.len() as u64).sum();
        self.last_checkpoint = Some(self.journal.len());
        self.journal.push(line);
        self.appends_since_checkpoint = 0;
        self.checkpoints_written += 1;
        self.frames_compacted += cut as u64;
        self.bytes_reclaimed += bytes;
        (cut, bytes)
    }

    /// What the most recent recovery replayed, truncated, and re-parked.
    pub fn recover_report(&self) -> Option<&RecoveryReport> {
        self.last_recovery.as_ref()
    }

    /// Cumulative chaos counters: (recoveries, truncated entries,
    /// re-parked recommendations) since the store was created.
    pub fn recovery_stats(&self) -> (u64, u64, u64) {
        (self.recoveries, self.truncated_total, self.reparked_total)
    }

    /// Cumulative checkpoint/compaction counters.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        CheckpointStats {
            checkpoints_written: self.checkpoints_written,
            frames_compacted: self.frames_compacted,
            bytes_reclaimed: self.bytes_reclaimed,
            fallback_recoveries: self.fallback_recoveries,
            corrupt_frames: self.corrupt_frames_total,
        }
    }

    /// Restore maps, id state, and cumulative counters from a decoded
    /// checkpoint snapshot.
    fn restore_checkpoint(&mut self, state: CheckpointState) {
        self.recos = state.recos.into_iter().map(|r| (r.id, r)).collect();
        self.schedules = state.schedules;
        self.flights = state.flights;
        self.id_base = state.id_base;
        self.next_id = state.next_id;
        self.writes_total = state.writes_total;
        self.recoveries = state.recoveries;
        self.truncated_total = state.truncated_total;
        self.reparked_total = state.reparked_total;
    }

    /// Build a store by replaying framed journal lines.
    ///
    /// Recovery first scans *backward* for the newest intact checkpoint
    /// (touching only checkpoint-shaped frames), restores it, then
    /// replays the tail after it — so frame reads stay ≈ checkpoint +
    /// tail instead of the full history. Invalid tail frames are
    /// classified: the maximal invalid *suffix* is a torn tail and is
    /// truncated (the durable prefix wins); an invalid frame with an
    /// intact frame after it is mid-journal corruption, which is
    /// skipped and reported distinctly instead of costing the whole
    /// suffix. Invalid means torn, failing its checksum, of a format
    /// version this build does not know, or carrying a sequence number
    /// that does not follow the frames before it (a duplicated or
    /// reordered write); each such frame is named with its reason in
    /// [`RecoveryReport::rejected`]. A torn/corrupt checkpoint makes
    /// recovery fall back to the previous checkpoint or full replay —
    /// lossless, because compaction always keeps the previous
    /// checkpoint's interval. No journal text makes it panic. Mid-flight recommendations (`Implementing`,
    /// `Reverting`) are re-parked into Retry, with the re-park
    /// journaled so a second crash recovers to the same place.
    pub fn recovered_from(mut journal: Vec<String>) -> (StateStore, RecoveryReport) {
        let mut s = StateStore::default();
        let mut report = RecoveryReport::default();

        // Phase 1: backward scan for the newest intact checkpoint. A
        // candidate whose sequence number does not exceed that of the
        // frame before it (a header peek: no checksum work, not a frame
        // read) was duplicated or moved, and frames it should cover may
        // sit after it unreplayed; it is passed over like a damaged one.
        // Phase 2 meets every candidate passed over here again, in the
        // tail, and records why it was rejected.
        let mut start = 0;
        for (i, line) in journal.iter().enumerate().rev() {
            if !codec::is_checkpoint(line) {
                continue;
            }
            report.frame_reads += 1;
            let follows = |seq: u64| {
                let before = i.checked_sub(1).and_then(|p| journal.get(p));
                before
                    .and_then(|l| codec::peek_seq(l))
                    .is_none_or(|before| before < seq)
            };
            match codec::decode_frame(line) {
                Ok((seq, JournalEntry::Checkpoint(state))) if follows(seq) => {
                    s.restore_checkpoint(*state);
                    s.last_seq = seq;
                    report.replayed += 1;
                    report.checkpoint_used = true;
                    start = i + 1;
                    break;
                }
                // Damaged would-be checkpoint: step down the ladder and
                // keep scanning for an older intact one.
                _ => report.checkpoint_fallback = true,
            }
        }

        // Phase 2: validate the tail once, classifying invalid frames.
        let mut last_seq = s.last_seq;
        let tail: Vec<Result<JournalEntry, FrameError>> = journal
            .iter()
            .enumerate()
            .skip(start)
            .map(|(frame, line)| {
                let fault = match codec::decode_frame(line) {
                    Ok((seq, entry)) if seq > last_seq => {
                        last_seq = seq;
                        return Ok(entry);
                    }
                    Ok((seq, _)) => FrameFault::OutOfOrder {
                        seq,
                        after: last_seq,
                    },
                    Err(fault) => fault,
                };
                Err(FrameError { frame, fault })
            })
            .collect();
        report.frame_reads += tail.len();
        s.last_seq = last_seq;
        let keep = tail.iter().rposition(Result::is_ok).map_or(0, |i| i + 1);
        report.truncated = tail.len() - keep;
        report.torn_tail = report.truncated > 0;

        // Phase 3: replay the kept tail. The journal becomes the verbatim
        // prefix (≤ previous checkpoint .. base) + the intact tail.
        for (j, entry) in tail.into_iter().enumerate() {
            let entry = match entry {
                Ok(entry) => entry,
                Err(rejected) => {
                    if j < keep {
                        report.corrupt_mid += 1;
                        if journal
                            .get(start + j)
                            .is_some_and(|l| codec::is_checkpoint(l))
                        {
                            report.checkpoint_fallback = true;
                        }
                    }
                    report.rejected.push(rejected);
                    continue;
                }
            };
            match entry {
                JournalEntry::Upsert(r) => {
                    let r = r.into_owned();
                    s.next_id = s.next_id.max(r.id.0.saturating_add(1));
                    s.recos.insert(r.id, r);
                }
                JournalEntry::Meta { id_base } => {
                    s.id_base = s.id_base.max(id_base);
                }
                JournalEntry::Schedule { database, schedule } => {
                    s.schedules.insert(database.into_owned(), schedule);
                }
                JournalEntry::Flight(rec) => {
                    let rec = rec.into_owned();
                    s.flights.insert(rec.id.clone(), rec);
                }
                // Only when phase 1 passed over an intact checkpoint on
                // the evidence of a damaged neighbour's header: treat it
                // as the newer snapshot it is.
                JournalEntry::Checkpoint(state) => {
                    s.restore_checkpoint(*state);
                    report.replayed += 1;
                    continue;
                }
            }
            s.writes_total += 1;
            report.replayed += 1;
        }
        // The lines were passed by value: kept ones stay where they are,
        // the torn suffix and any mid-journal reject are dropped.
        journal.truncate(start + keep);
        if report.corrupt_mid > 0 {
            let mut next = 0;
            journal.retain(|_| {
                next += 1;
                report.rejected.iter().all(|e| e.frame != next - 1)
            });
        }
        s.journal = journal;
        s.last_checkpoint = s.journal.iter().rposition(|l| codec::is_checkpoint(l));
        s.appends_since_checkpoint = s
            .last_checkpoint
            .map_or(s.journal.len(), |i| s.journal.len() - i - 1);
        s.next_id = s.next_id.max(s.id_base);

        // Re-park anything the crash caught mid-operation: the engine
        // action may or may not have completed, so the only safe state
        // is Retry — the retry path re-drives or terminally parks it.
        let mid: Vec<_> = s
            .recos
            .values()
            .filter_map(|r| {
                r.state.retry_phase().map(|phase| {
                    let at = r.history.last().map(|t| t.at).unwrap_or(r.created_at);
                    (r.id, phase, at)
                })
            })
            .collect();
        for (id, phase, at) in mid {
            // The re-park gives the reco a retry deadline the journaled
            // schedule never saw — that schedule is stale now, and a
            // sparse driver trusting it could sleep through the retry.
            // Rewrite it to the conservative wake-everything-next-tick
            // schedule, *journaled*: an in-memory drop would resurrect
            // the stale schedule on the next recovery (checkpoint
            // snapshots and retained Schedule frames both remember it),
            // making recovery non-idempotent.
            if let Some(db) = s.recos.get(&id).map(|r| r.database.clone()) {
                if s.schedules.contains_key(&db) {
                    let before = s.journal.len();
                    s.record_schedule(&db, &WakeSchedule::immediate());
                    if s.journal.len() > before {
                        report.rescheduled += 1;
                    }
                }
            }
            s.update(id, |r| {
                let _ = r.enter_retry(phase, at, "re-parked by crash recovery");
            });
            report.reparked.push(id);
        }
        report.id_base = s.id_base;
        report.next_id = s.next_id;
        (s, report)
    }

    /// Simulate a control-plane crash: drop all in-memory state, then
    /// recover from the journal. Tolerates torn tails, mid-journal
    /// corruption, and damaged checkpoints (see
    /// [`StateStore::recovered_from`]); the outcome is described by the
    /// returned [`RecoveryReport`] and retained for
    /// [`StateStore::recover_report`]. The monotonic write and
    /// checkpoint counters are this store's own (cumulative across
    /// recoveries), not reset to the recovered snapshot's.
    pub fn crash_and_recover(&mut self) -> RecoveryReport {
        let journal = std::mem::take(&mut self.journal);
        let (recovered, report) = StateStore::recovered_from(journal);
        self.recos = recovered.recos;
        self.next_id = recovered.next_id;
        self.id_base = recovered.id_base;
        self.journal = recovered.journal;
        self.last_seq = recovered.last_seq;
        self.schedules = recovered.schedules;
        self.flights = recovered.flights;
        self.last_checkpoint = recovered.last_checkpoint;
        self.appends_since_checkpoint = recovered.appends_since_checkpoint;
        // `writes_total` stays monotonic across the simulated crash
        // (torn frames were still writes the process attempted); only
        // the re-park and schedule-rewrite writes recovery just
        // appended are new.
        self.writes_total += (report.reparked.len() + report.rescheduled) as u64;
        self.recoveries += 1;
        self.truncated_total += report.truncated as u64;
        self.reparked_total += report.reparked.len() as u64;
        self.corrupt_frames_total += report.corrupt_mid as u64;
        if report.checkpoint_fallback {
            self.fallback_recoveries += 1;
        }
        self.last_recovery = Some(report.clone());
        report
    }

    /// Recommendations stuck in a non-terminal state since before
    /// `horizon` (health detection input).
    pub(crate) fn stuck_since(&self, horizon: Timestamp) -> Vec<RecoId> {
        self.recos
            .values()
            .filter(|r| {
                !r.state.is_terminal()
                    && r.history.last().map(|t| t.at).unwrap_or(r.created_at) < horizon
            })
            .map(|r| r.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RecoState;
    use autoindex::{RecoAction, RecoSource};
    use sqlmini::schema::{ColumnId, IndexDef, TableId};

    fn reco(n: u32) -> Recommendation {
        Recommendation {
            action: RecoAction::CreateIndex {
                def: IndexDef::new(format!("ix{n}"), TableId(0), vec![ColumnId(1)], vec![]),
            },
            source: RecoSource::MissingIndex,
            estimated_benefit: n as f64,
            estimated_improvement: 0.5,
            estimated_size_bytes: 100,
            impacted_queries: vec![],
            generated_at: Timestamp(0),
        }
    }

    #[test]
    fn insert_get_update() {
        let mut s = StateStore::new();
        let id = s.insert("db1", reco(1), Timestamp(0));
        assert_eq!(s.get(id).unwrap().state, RecoState::Active);
        s.update(id, |r| {
            r.transition(RecoState::Implementing, Timestamp(5), "go")
                .unwrap()
        })
        .unwrap();
        assert_eq!(s.get(id).unwrap().state, RecoState::Implementing);
        assert_eq!(s.journal_len(), 2);
    }

    #[test]
    fn recovery_restores_state() {
        let mut s = StateStore::new();
        let a = s.insert("db1", reco(1), Timestamp(0));
        let b = s.insert("db2", reco(2), Timestamp(1));
        s.update(a, |r| {
            r.transition(RecoState::Implementing, Timestamp(2), "")
                .unwrap();
            r.transition(RecoState::Validating, Timestamp(3), "")
                .unwrap();
        });
        let before: Vec<(RecoId, RecoState)> = s.all().map(|r| (r.id, r.state)).collect();
        s.crash_and_recover();
        let after: Vec<(RecoId, RecoState)> = s.all().map(|r| (r.id, r.state)).collect();
        assert_eq!(before, after);
        assert_eq!(s.get(a).unwrap().history.len(), 2, "history survives");
        assert_eq!(s.get(b).unwrap().state, RecoState::Active);
        // New ids continue after the recovered maximum.
        let c = s.insert("db3", reco(3), Timestamp(9));
        assert!(c.0 > b.0);
    }

    #[test]
    fn recovery_of_empty_journal_is_clean() {
        // A store that never journaled anything (fresh process, crash
        // before first write) must recover to an empty store without
        // reporting a torn tail.
        let (s, report) = StateStore::recovered_from(Vec::new());
        assert!(s.is_empty());
        assert_eq!(s.journal_len(), 0);
        assert_eq!(report, RecoveryReport::default());
        // And an in-place crash of a never-written store is a no-op.
        let mut fresh = StateStore::new();
        let r = fresh.crash_and_recover();
        assert!(!r.torn_tail);
        assert!(fresh.is_empty());
    }

    #[test]
    fn recovery_when_only_frame_is_truncated() {
        // The very first journal record is torn mid-write: recovery must
        // drop it (empty durable prefix), flag the torn tail, and leave
        // a usable empty store — not panic or resurrect half a record.
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        assert_eq!(s.journal_len(), 1);
        s.corrupt_journal_tail();
        let journal = s.journal_lines().to_vec();
        let (recovered, report) = StateStore::recovered_from(journal);
        assert!(report.torn_tail);
        assert_eq!(report.replayed, 0);
        assert_eq!(report.truncated, 1);
        assert!(recovered.is_empty(), "no durable prefix to restore");
        assert_eq!(recovered.journal_len(), 0, "torn record not re-journaled");
    }

    #[test]
    fn per_database_filtering() {
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        s.insert("db1", reco(2), Timestamp(0));
        let done = s.insert("db1", reco(3), Timestamp(0));
        s.insert("db2", reco(4), Timestamp(0));
        s.update(done, |r| {
            r.transition(RecoState::Expired, Timestamp(1), "").unwrap()
        });
        assert_eq!(s.for_database("db1").count(), 3);
        assert_eq!(s.for_database("db2").count(), 1);
    }

    #[test]
    fn stuck_detection() {
        let mut s = StateStore::new();
        let old = s.insert("db1", reco(1), Timestamp(0));
        let fresh = s.insert("db1", reco(2), Timestamp(10_000));
        let stuck = s.stuck_since(Timestamp(5_000));
        assert!(stuck.contains(&old));
        assert!(!stuck.contains(&fresh));
        // Terminal records are never stuck.
        s.update(old, |r| {
            r.transition(RecoState::Expired, Timestamp(20_000), "")
                .unwrap()
        });
        assert!(
            s.stuck_since(Timestamp(50_000)).is_empty()
                || !s.stuck_since(Timestamp(50_000)).contains(&old)
        );
    }

    #[test]
    fn journal_lines_are_framed_and_checksummed() {
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        let line = &s.journal_lines()[0];
        assert!(
            line.starts_with("1|U|1|"),
            "version, kind, sequence: {line}"
        );
        assert!(codec::decode_frame(line).is_ok(), "fresh line validates");
        // Any single-byte corruption is caught by the checksum.
        let mut bad = line.clone();
        let idx = bad.len() - 1;
        bad.replace_range(idx.., "X");
        assert_eq!(codec::decode_frame(&bad).err(), Some(FrameFault::Checksum));
        // A short (torn) line is caught by the length prefix.
        let mut torn = line.clone();
        torn.truncate(torn.len() / 2);
        assert_eq!(codec::decode_frame(&torn).err(), Some(FrameFault::Torn));
    }

    #[test]
    fn torn_tail_truncates_instead_of_panicking() {
        let mut s = StateStore::new();
        let a = s.insert("db1", reco(1), Timestamp(0));
        s.insert("db2", reco(2), Timestamp(1));
        s.corrupt_journal_tail();
        let report = s.crash_and_recover();
        assert!(report.torn_tail);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.replayed, 1);
        assert_eq!(s.len(), 1, "only the intact prefix survives");
        assert!(s.get(a).is_some());
        assert_eq!(s.recovery_stats(), (1, 1, 0));
    }

    #[test]
    fn lost_tail_writes_are_tolerated() {
        let mut s = StateStore::new();
        let a = s.insert("db1", reco(1), Timestamp(0));
        s.update(a, |r| {
            r.transition(RecoState::Implementing, Timestamp(1), "")
                .unwrap();
            r.transition(RecoState::Validating, Timestamp(2), "")
                .unwrap();
        });
        // The last durable write never happened.
        s.tear_journal_tail(1);
        let report = s.crash_and_recover();
        // A clean-but-short journal is not a torn tail; the record simply
        // rewinds to its last durable state.
        assert!(!report.torn_tail);
        assert_eq!(report.truncated, 0);
        assert_eq!(s.get(a).unwrap().state, RecoState::Active);
    }

    #[test]
    fn recovery_reparks_mid_flight_states() {
        let mut s = StateStore::new();
        let a = s.insert("db1", reco(1), Timestamp(0));
        s.update(a, |r| {
            r.transition(RecoState::Implementing, Timestamp(1), "")
                .unwrap()
        });
        let report = s.crash_and_recover();
        assert_eq!(report.reparked, vec![a]);
        assert_eq!(s.get(a).unwrap().state, RecoState::Retry);
        // The repark is journaled: a second crash finds Retry, not
        // Implementing, and reparks nothing.
        let second = s.crash_and_recover();
        assert!(second.reparked.is_empty());
        assert_eq!(s.get(a).unwrap().state, RecoState::Retry);
    }

    #[test]
    fn id_base_survives_recovery_of_empty_journal() {
        let mut s = StateStore::with_id_base(3_000_000);
        let report = s.crash_and_recover();
        assert_eq!(report.next_id, 3_000_000);
        let id = s.insert("db1", reco(1), Timestamp(0));
        assert_eq!(id.0, 3_000_000, "id block must survive recovery");
    }

    /// A canonical fingerprint of everything a recovery must preserve.
    fn canon(s: &StateStore) -> String {
        let recos: Vec<String> = s.all().map(|r| serde_json::to_string(r).unwrap()).collect();
        format!(
            "{:?}|{}|{}|{:?}|{:?}",
            recos,
            s.id_base,
            s.next_id,
            s.schedules,
            s.recovery_stats()
        )
    }

    /// Drive `n` inserts + a state hop each, compacting under `policy`
    /// after every mutation (the way the plane's tick hook does).
    fn churn(s: &mut StateStore, n: u32, policy: Option<&CompactionPolicy>) {
        for i in 0..n {
            let id = s.insert("db1", reco(i), Timestamp(i as u64));
            s.update(id, |r| {
                r.transition(RecoState::Expired, Timestamp(i as u64 + 1), "")
                    .unwrap()
            });
            if policy.is_some_and(|p| s.should_compact(p)) {
                s.compact();
            }
        }
    }

    /// A schedule that changes every tick — the long-lived-tenant
    /// workload: live state stays constant (one schedule entry) while
    /// the journal accumulates pure garbage.
    fn sched(t: u64) -> WakeSchedule {
        use crate::stages::NextDue;
        WakeSchedule {
            recommend: NextDue::At(Timestamp(t)),
            retry: NextDue::Idle,
            implement: NextDue::Idle,
            validate: NextDue::Idle,
            expire: NextDue::Idle,
            health: NextDue::NextTick,
        }
    }

    fn schedule_churn(s: &mut StateStore, n: u64, policy: Option<&CompactionPolicy>) {
        for t in 0..n {
            s.record_schedule("db1", &sched(t));
            if policy.is_some_and(|p| s.should_compact(p)) {
                s.compact();
            }
        }
    }

    #[test]
    fn journal_bounded_under_compaction_unbounded_without() {
        // The failure mode the checkpoint work fixes: append-only
        // forever grows linearly with history, while compaction keeps
        // the journal at ~2 checkpoint intervals regardless of run
        // length.
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 8,
            garbage_ratio: 0.0,
            // ratio 0: the frame-count floor alone drives compaction.
        };
        let mut plain_short = StateStore::new();
        let mut plain_long = StateStore::new();
        let mut compacted = StateStore::new();
        schedule_churn(&mut plain_short, 20, None);
        schedule_churn(&mut plain_long, 200, None);
        schedule_churn(&mut compacted, 200, Some(&policy));
        assert_eq!(
            plain_long.journal_len(),
            10 * plain_short.journal_len(),
            "uncompacted journal grows linearly with history"
        );
        assert!(
            compacted.journal_len() <= 2 * policy.min_frames + 2,
            "compacted journal stays within ~2 checkpoint intervals, got {}",
            compacted.journal_len()
        );
        assert!(
            compacted.journal_bytes() < plain_long.journal_bytes() / 4,
            "compacted {} bytes vs uncompacted {} bytes",
            compacted.journal_bytes(),
            plain_long.journal_bytes()
        );
        // The monotonic write counter is compaction-independent.
        assert_eq!(compacted.journal_writes(), plain_long.journal_writes());
        let cs = compacted.checkpoint_stats();
        assert!(cs.checkpoints_written > 10);
        assert!(cs.frames_compacted > 150);
        assert!(cs.bytes_reclaimed > 0);
        assert_eq!(plain_long.checkpoint_stats(), CheckpointStats::default());
    }

    #[test]
    fn checkpoint_plus_tail_recovery_equals_full_replay() {
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 4,
            garbage_ratio: 0.5,
        };
        let mut with_ckpt = StateStore::with_id_base(100);
        let mut without = StateStore::with_id_base(100);
        churn(&mut with_ckpt, 40, Some(&policy));
        churn(&mut without, 40, None);
        let (a, ra) = StateStore::recovered_from(with_ckpt.journal_lines().to_vec());
        let (b, rb) = StateStore::recovered_from(without.journal_lines().to_vec());
        assert!(ra.checkpoint_used && !rb.checkpoint_used);
        assert!(
            ra.frame_reads < rb.frame_reads / 2,
            "checkpoint recovery must read far fewer frames ({} vs {})",
            ra.frame_reads,
            rb.frame_reads
        );
        assert_eq!(canon(&a), canon(&b), "recovered state must be identical");
        assert_eq!((ra.id_base, ra.next_id), (rb.id_base, rb.next_id));
    }

    #[test]
    fn compaction_keeps_the_previous_checkpoint() {
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 6,
            garbage_ratio: 0.0,
        };
        let mut s = StateStore::new();
        churn(&mut s, 30, Some(&policy));
        let ckpts: Vec<usize> = s
            .journal_lines()
            .iter()
            .enumerate()
            .filter(|(_, l)| codec::is_checkpoint(l))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(
            ckpts.len(),
            2,
            "the journal holds exactly the previous + latest checkpoint"
        );
        assert_eq!(
            ckpts[0], 0,
            "everything before the previous checkpoint was truncated"
        );
    }

    #[test]
    fn corrupt_latest_checkpoint_falls_back_losslessly() {
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 4,
            garbage_ratio: 0.0,
        };
        let mut s = StateStore::with_id_base(7);
        churn(&mut s, 20, Some(&policy));
        // A couple of tail writes after the last checkpoint.
        let extra = s.insert("db2", reco(99), Timestamp(999));
        let expected = canon(&s);
        s.corrupt_last_checkpoint();
        let report = s.crash_and_recover();
        assert!(report.checkpoint_fallback, "fallback must be reported");
        assert!(report.checkpoint_used, "the previous checkpoint takes over");
        assert!(!report.torn_tail, "the tail after the damage is intact");
        assert_eq!(report.corrupt_mid, 1, "the damaged checkpoint is skipped");
        // Lossless: the keep-previous invariant means every logical
        // frame since the previous checkpoint is still in the journal.
        assert_eq!(canon_recovered(&s), expected);
        assert!(s.get(extra).is_some());
        assert_eq!(s.checkpoint_stats().fallback_recoveries, 1);
        assert_eq!(s.checkpoint_stats().corrupt_frames, 1);
        // A second crash over the rebuilt journal is clean.
        let again = s.crash_and_recover();
        assert!(!again.checkpoint_fallback);
        assert_eq!(again.corrupt_mid, 0);
    }

    /// `canon` modulo the cumulative recovery counters, which a
    /// crash_and_recover legitimately bumps on the live store.
    fn canon_recovered(s: &StateStore) -> String {
        let recos: Vec<String> = s.all().map(|r| serde_json::to_string(r).unwrap()).collect();
        format!(
            "{:?}|{}|{}|{:?}|{:?}",
            recos,
            s.id_base,
            s.next_id,
            s.schedules,
            (0u64, 0u64, 0u64)
        )
    }

    #[test]
    fn no_checkpoint_and_corrupt_first_checkpoint_reaches_full_replay() {
        // Bottom rung of the ladder: the only checkpoint in the journal
        // is damaged, so recovery replays everything from the start.
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 50,
            garbage_ratio: 0.0,
        };
        let mut s = StateStore::new();
        churn(&mut s, 30, Some(&policy)); // 60 frames → exactly 1 checkpoint
        assert_eq!(s.checkpoint_stats().checkpoints_written, 1);
        let expected = canon_recovered(&s);
        s.corrupt_last_checkpoint();
        let report = s.crash_and_recover();
        assert!(report.checkpoint_fallback);
        assert!(!report.checkpoint_used, "full replay, no checkpoint left");
        assert_eq!(canon_recovered(&s), expected, "zero loss");
    }

    #[test]
    fn mid_journal_corruption_is_skipped_not_suffix_truncated() {
        let mut s = seededish();
        let before = s.journal_len();
        // Corrupt an *interior* frame: c's insert record.
        s.corrupt_journal_frame(2);
        let report = s.crash_and_recover();
        assert!(!report.torn_tail, "not a torn tail — a frame mid-journal");
        assert_eq!(report.corrupt_mid, 1);
        assert_eq!(report.truncated, 0);
        assert_eq!(report.replayed, before - 1);
        // The record whose only frame rotted is gone; everything before
        // AND after it survives (the old code lost the whole suffix).
        assert_eq!(s.len(), 2);
        assert!(s.get(RecoId(0)).is_some());
        assert!(s.get(RecoId(2)).is_none());
        // b was caught mid-`Implementing`, so recovery re-parks it.
        assert_eq!(s.get(RecoId(1)).unwrap().state, RecoState::Retry);
        assert_eq!(report.reparked, vec![RecoId(1)]);
        assert_eq!(s.checkpoint_stats().corrupt_frames, 1);
    }

    /// insert a, insert b, insert c, update b — four frames.
    fn seededish() -> StateStore {
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        let b = s.insert("db1", reco(2), Timestamp(1));
        s.insert("db1", reco(3), Timestamp(2));
        s.update(b, |r| {
            r.transition(RecoState::Implementing, Timestamp(3), "go")
                .unwrap()
        });
        s
    }

    #[test]
    fn disabled_policy_never_compacts() {
        let policy = CompactionPolicy {
            enabled: false,
            min_frames: 1,
            garbage_ratio: 0.0,
        };
        let mut s = StateStore::new();
        churn(&mut s, 10, Some(&policy));
        assert_eq!(s.checkpoint_stats().checkpoints_written, 0);
        assert_eq!(s.journal_len(), 20);
    }

    #[test]
    fn count_by_state_summary() {
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        let b = s.insert("db1", reco(2), Timestamp(0));
        s.update(b, |r| {
            r.transition(RecoState::Implementing, Timestamp(1), "")
                .unwrap()
        });
        let counts = s.count_by_state();
        assert_eq!(counts.get("Active"), Some(&1));
        assert_eq!(counts.get("Implementing"), Some(&1));
    }

    // -----------------------------------------------------------------
    // Flight frames (§7 policy A/B journaling).
    // -----------------------------------------------------------------

    fn flight_rec(id: &str, verdicts: usize) -> crate::flight::FlightRecord {
        use crate::flight::{FlightState, TenantVerdict, TenantVerdictRecord};
        crate::flight::FlightRecord {
            id: id.to_string(),
            seed: 7,
            state: FlightState::Running,
            cohort: (0..verdicts + 2).collect(),
            verdicts: (0..verdicts)
                .map(|i| {
                    (
                        i,
                        TenantVerdictRecord {
                            verdict: TenantVerdict::Wash,
                            control_cost: 10.0 + i as f64,
                            candidate_cost: 9.0,
                            p_candidate_greater: Some(0.5),
                            divergence: 0.01,
                            replayed: 100,
                            replay_cpu_us: 5_000,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn flight_frames_journal_only_on_change() {
        let mut s = StateStore::new();
        let rec = flight_rec("fl", 1);
        s.record_flight(&rec);
        assert_eq!(s.journal_len(), 1);
        // Unchanged record: dedup, no frame.
        s.record_flight(&rec);
        assert_eq!(s.journal_len(), 1);
        // A new verdict is a change: one more frame.
        let grown = flight_rec("fl", 2);
        s.record_flight(&grown);
        assert_eq!(s.journal_len(), 2);
        assert_eq!(s.flight("fl"), Some(&grown));
    }

    #[test]
    fn flight_frames_survive_crash_recovery() {
        let mut s = StateStore::new();
        s.insert("db1", reco(1), Timestamp(0));
        s.record_flight(&flight_rec("fl-a", 2));
        let mut terminal = flight_rec("fl-b", 3);
        terminal.state = crate::flight::FlightState::Shipped;
        s.record_flight(&terminal);
        let before = s.flights().clone();
        s.crash_and_recover();
        assert_eq!(s.flights(), &before);
        assert_eq!(
            s.flight("fl-b").unwrap().state,
            crate::flight::FlightState::Shipped
        );
    }

    #[test]
    fn checkpoint_compaction_carries_flights() {
        let policy = CompactionPolicy {
            enabled: true,
            min_frames: 2,
            garbage_ratio: 0.0,
        };
        let mut s = StateStore::new();
        // Successively larger snapshots of the same flight: all but the
        // last are garbage, so compaction has something to reclaim.
        for k in 1..=4 {
            s.record_flight(&flight_rec("fl", k));
        }
        let before = s.flights().clone();
        assert!(s.should_compact(&policy), "garbage-heavy journal compacts");
        s.compact();
        assert_eq!(s.flights(), &before, "checkpoint carries flight state");
        s.crash_and_recover();
        assert_eq!(
            s.flights(),
            &before,
            "recovery from checkpoint + tail restores flights"
        );
    }
}
