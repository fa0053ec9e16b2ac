//! Anonymized telemetry (§1.2, §8.3).
//!
//! Engineers operating the service never see customer data; health and
//! debugging flow through anonymized, aggregated events. This module is
//! that pipeline: typed events with **no query text or data values**,
//! counters, and an incident stream for the on-call path.

use crate::hash::{fnv1a64_extend, FNV_OFFSET};
use sqlmini::clock::Timestamp;
use std::collections::BTreeMap;

/// Event kinds emitted by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    AnalysisStarted,
    AnalysisCompleted,
    RecommendationCreated,
    RecommendationExpired,
    ImplementStarted,
    ImplementSucceeded,
    ImplementFailedTransient,
    ImplementFailedFatal,
    ValidationStarted,
    ValidationImproved,
    ValidationInconclusive,
    ValidationRegressed,
    ValidationNoData,
    RevertStarted,
    RevertSucceeded,
    RevertFailedTransient,
    IncidentRaised,
    DtaSessionAborted,
    /// The state store crashed and was rebuilt from its journal.
    StoreRecovered,
    /// A torn/corrupt journal record was dropped during recovery.
    JournalEntryTruncated,
    /// A mid-flight recommendation was re-parked into Retry by recovery.
    RecommendationReparked,
    /// A retry was deferred because its backoff window had not elapsed.
    RetryBackoffWait,
    /// A tenant tripped the fleet driver's fault circuit-breaker.
    TenantQuarantined,
    /// A tenant worker panicked and was isolated by the supervisor.
    TenantPoisoned,
    /// Recovery restored state from a checkpoint frame (plus tail
    /// replay) instead of replaying the whole journal.
    CheckpointRestored,
    /// A torn/corrupt checkpoint made recovery step down the fallback
    /// ladder (previous checkpoint, or full replay).
    CheckpointFallback,
    /// An invalid frame was found *mid*-journal (an intact frame
    /// follows it) and skipped — bit-rot, not a torn tail.
    JournalFrameCorrupt,
}

/// One anonymized event: kind + database *hash* + time. The database name
/// is folded to a stable hash so dashboards can correlate events without
/// carrying tenant identity.
#[derive(Debug, Clone, PartialEq)]
struct Event {
    at: Timestamp,
    kind: EventKind,
    db_hash: u64,
    /// Small cardinality detail (state names, error classes) — never
    /// query text or data.
    detail: String,
}

/// Stable anonymizing hash of a database name — the only tenant
/// identifier that ever leaves a shard (events, incidents, span attrs).
/// FNV-1a/64: the same value on every toolchain, unlike std's
/// `DefaultHasher`.
pub(crate) fn db_hash(name: &str) -> u64 {
    fnv1a64_extend(FNV_OFFSET, name.as_bytes())
}

/// An incident requiring (simulated) on-call attention.
#[derive(Debug, Clone, PartialEq)]
pub struct Incident {
    at: Timestamp,
    db_hash: u64,
    pub summary: String,
}

/// The telemetry sink.
#[derive(Debug)]
pub struct Telemetry {
    counters: BTreeMap<EventKind, u64>,
    events: Vec<Event>,
    incidents: Vec<Incident>,
    /// Cap on retained raw events (aggregation survives unboundedly).
    retain_events: usize,
}

/// Hand-written: a derived default would cap retention at zero, and
/// `emit` would drop every event it had just pushed.
impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry {
            counters: BTreeMap::new(),
            events: Vec::new(),
            incidents: Vec::new(),
            retain_events: 100_000,
        }
    }
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    pub fn emit(&mut self, kind: EventKind, db: &str, detail: impl Into<String>, at: Timestamp) {
        *self.counters.entry(kind).or_default() += 1;
        self.events.push(Event {
            at,
            kind,
            db_hash: db_hash(db),
            detail: detail.into(),
        });
        if self.events.len() > self.retain_events {
            let excess = self.events.len() - self.retain_events;
            self.events.drain(..excess);
        }
    }

    pub(crate) fn incident(&mut self, db: &str, summary: impl Into<String>, at: Timestamp) {
        let summary = summary.into();
        self.emit(EventKind::IncidentRaised, db, summary.clone(), at);
        self.incidents.push(Incident {
            at,
            db_hash: db_hash(db),
            summary,
        });
    }

    pub fn count(&self, kind: EventKind) -> u64 {
        self.counters.get(&kind).copied().unwrap_or(0)
    }

    pub fn counters(&self) -> &BTreeMap<EventKind, u64> {
        &self.counters
    }

    pub fn incidents(&self) -> &[Incident] {
        &self.incidents
    }

    #[cfg(test)]
    fn events(&self) -> &[Event] {
        &self.events
    }

    /// Fold another telemetry sink into this one, taking its events and
    /// incidents by value (the fleet, shard and region folds all own what
    /// they merge).
    ///
    /// Unlike [`Telemetry::emit`], merging does **not** enforce the
    /// event-retention cap — the fleet driver's quiesce merge keeps
    /// every shard's events in fleet order. Accumulators that fold an
    /// unbounded stream of shards (the million-tenant region driver)
    /// must call [`Telemetry::retain_recent`] between merges to stay
    /// bounded; counters aggregate exactly either way.
    pub(crate) fn merge(&mut self, mut other: Telemetry) {
        for (k, v) in other.counters {
            *self.counters.entry(k).or_default() += v;
        }
        self.events.append(&mut other.events);
        self.incidents.append(&mut other.incidents);
    }

    /// Drop all but the most recent `n` raw events and incidents —
    /// the same policy [`Telemetry::emit`] applies continuously, exposed
    /// for merge-heavy accumulators whose event memory must stay bounded
    /// no matter how many shards fold in. Counters (the canonical
    /// surface) are never touched.
    pub(crate) fn retain_recent(&mut self, n: usize) {
        if self.events.len() > n {
            let excess = self.events.len() - n;
            self.events.drain(..excess);
        }
        if self.incidents.len() > n {
            let excess = self.incidents.len() - n;
            self.incidents.drain(..excess);
        }
    }

    /// Export counters as a JSON object (dashboard feed).
    pub fn export_json(&self) -> String {
        let m: BTreeMap<String, u64> = self
            .counters
            .iter()
            .map(|(k, v)| (format!("{k:?}"), *v))
            .collect();
        serde_json::to_string_pretty(&m).expect("counters serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_events() {
        let mut t = Telemetry::new();
        t.emit(EventKind::ImplementSucceeded, "db1", "", Timestamp(1));
        t.emit(EventKind::ImplementSucceeded, "db2", "", Timestamp(2));
        t.emit(EventKind::RevertSucceeded, "db1", "", Timestamp(3));
        assert_eq!(t.count(EventKind::ImplementSucceeded), 2);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn default_retains_events_like_new() {
        let (mut d, mut n) = (Telemetry::default(), Telemetry::new());
        for t in [&mut d, &mut n] {
            t.emit(EventKind::AnalysisStarted, "db", "", Timestamp(1));
            t.incident("db", "oops", Timestamp(2));
        }
        assert_eq!(d.events().len(), 2, "default() must not forget events");
        assert_eq!(d.events(), n.events());
        assert_eq!(d.incidents(), n.incidents());
        assert_eq!(d.counters(), n.counters());
        assert_eq!(d.retain_events, n.retain_events);
    }

    #[test]
    fn anonymization_hashes_names() {
        let mut t = Telemetry::new();
        t.emit(
            EventKind::AnalysisStarted,
            "secret_customer_db",
            "",
            Timestamp(0),
        );
        let e = &t.events()[0];
        assert_ne!(e.db_hash, 0);
        assert!(!format!("{e:?}").contains("secret_customer_db"));
        // Stable hash: same name, same hash.
        t.emit(
            EventKind::AnalysisStarted,
            "secret_customer_db",
            "",
            Timestamp(1),
        );
        assert_eq!(t.events()[0].db_hash, t.events()[1].db_hash);
    }

    /// The hash is FNV-1a/64 of the name's bytes, whatever the toolchain.
    #[test]
    fn db_hash_is_pinned() {
        assert_eq!(db_hash(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(db_hash("db1"), 0xCA89_6918_F453_F7D6);
    }

    #[test]
    fn incidents_tracked() {
        let mut t = Telemetry::new();
        t.incident("db9", "stuck in Implementing for 3 days", Timestamp(5));
        assert_eq!(t.incidents().len(), 1);
        assert_eq!(t.count(EventKind::IncidentRaised), 1);
    }

    #[test]
    fn merge_aggregates() {
        let mut a = Telemetry::new();
        let mut b = Telemetry::new();
        a.emit(EventKind::RecommendationCreated, "x", "", Timestamp(0));
        b.emit(EventKind::RecommendationCreated, "y", "", Timestamp(0));
        b.incident("y", "oops", Timestamp(1));
        a.merge(b);
        assert_eq!(a.count(EventKind::RecommendationCreated), 2);
        assert_eq!(a.count(EventKind::IncidentRaised), 1);
        assert_eq!(a.incidents().len(), 1);
        // Events arrive by value, in order: `a`'s own, then `b`'s.
        let names: Vec<u64> = a.events().iter().map(|e| e.db_hash).collect();
        assert_eq!(names, [db_hash("x"), db_hash("y"), db_hash("y")]);
    }

    #[test]
    fn export_is_json() {
        let mut t = Telemetry::new();
        t.emit(EventKind::ValidationImproved, "db", "", Timestamp(0));
        let j = t.export_json();
        let parsed: serde::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), j);
        assert_eq!(
            parsed.get("ValidationImproved"),
            Some(&serde::Value::UInt(1))
        );
    }

    #[test]
    fn retain_events_caps_the_raw_log() {
        let mut t = Telemetry::new();
        t.retain_events = 10;
        for i in 0..25 {
            t.emit(EventKind::AnalysisStarted, "db", "", Timestamp(i));
        }
        assert_eq!(t.events().len(), 10);
        assert_eq!(
            t.count(EventKind::AnalysisStarted),
            25,
            "counters unbounded"
        );
        assert_eq!(t.events()[0].at, Timestamp(15));
    }
}
