//! Dynamic management views (DMVs).
//!
//! Two DMVs matter to the paper's service:
//!
//! * the **missing-index DMV** family (§5.2) — accumulates per-candidate
//!   statistics as the optimizer observes queries that would have benefited
//!   from an absent index. The statistics **reset on restart, failover, or
//!   schema change**, which is why the recommender snapshots them.
//! * **index usage stats** (`dm_db_index_usage_stats`) — per-index seek /
//!   scan / lookup / update counters, the input to drop-candidate analysis
//!   (§5.4) and to the paper's "User" tuning emulation (§7.3).

use crate::clock::Timestamp;
use crate::optimizer::MissingIndexObservation;
use crate::schema::{ColumnId, IndexId, TableId};
use std::collections::BTreeMap;

/// Key identifying one missing-index candidate group.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MissingIndexKey {
    pub table: TableId,
    pub equality_columns: Vec<ColumnId>,
    pub inequality_columns: Vec<ColumnId>,
    pub include_columns: Vec<ColumnId>,
}

/// Accumulated statistics for one missing-index candidate (the group-stats
/// view's `user_seeks`, `avg_total_user_cost`, `avg_user_impact`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MissingIndexStats {
    /// Number of query optimizations that produced this candidate.
    pub user_seeks: u64,
    /// Running average optimizer cost of the queries that would improve.
    avg_total_cost: f64,
    /// Running average estimated improvement percentage.
    pub avg_impact_pct: f64,
    first_seen: Timestamp,
    last_seen: Timestamp,
}

impl MissingIndexStats {
    fn record(&mut self, obs: &MissingIndexObservation, now: Timestamp) {
        if self.user_seeks == 0 {
            self.first_seen = now;
        }
        let n = self.user_seeks as f64;
        self.avg_total_cost = (self.avg_total_cost * n + obs.current_cost) / (n + 1.0);
        self.avg_impact_pct = (self.avg_impact_pct * n + obs.improvement_pct) / (n + 1.0);
        self.user_seeks += 1;
        self.last_seen = now;
    }

    /// The MI feature's composite benefit score:
    /// `user_seeks * avg_total_cost * (avg_impact / 100)` — an estimate of
    /// the total optimizer cost the index would have saved so far.
    pub fn impact_score(&self) -> f64 {
        self.user_seeks as f64 * self.avg_total_cost * (self.avg_impact_pct / 100.0)
    }
}

/// The missing-index DMV.
#[derive(Debug, Clone, Default)]
pub struct MissingIndexDmv {
    entries: BTreeMap<MissingIndexKey, MissingIndexStats>,
    /// How many times the DMV has been reset (restarts/failovers/schema
    /// changes) — diagnostic only.
    pub resets: u64,
}

impl MissingIndexDmv {
    pub(crate) fn new() -> MissingIndexDmv {
        MissingIndexDmv::default()
    }

    pub(crate) fn record(&mut self, obs: &MissingIndexObservation, now: Timestamp) {
        let key = MissingIndexKey {
            table: obs.table,
            equality_columns: obs.equality_columns.clone(),
            inequality_columns: obs.inequality_columns.clone(),
            include_columns: obs.include_columns.clone(),
        };
        self.entries.entry(key).or_default().record(obs, now);
    }

    pub fn entries(&self) -> impl Iterator<Item = (&MissingIndexKey, &MissingIndexStats)> {
        self.entries.iter()
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Reset, as happens on server restart, failover, or schema change.
    pub(crate) fn reset(&mut self) {
        self.entries.clear();
        self.resets += 1;
    }

    /// Snapshot the current contents (the recommender's reset-tolerance
    /// mechanism, §5.2).
    pub fn snapshot(&self) -> Vec<(MissingIndexKey, MissingIndexStats)> {
        self.entries
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

/// Per-index usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndexUsage {
    pub(crate) user_seeks: u64,
    user_scans: u64,
    user_lookups: u64,
    /// Maintenance events caused by DML.
    pub user_updates: u64,
    last_user_seek: Option<Timestamp>,
    last_user_scan: Option<Timestamp>,
}

impl IndexUsage {
    /// Total read accesses.
    pub fn reads(&self) -> u64 {
        self.user_seeks + self.user_scans + self.user_lookups
    }
}

/// The index-usage DMV (persistent across restarts in Azure's long-term
/// telemetry store; we keep it durable here too, matching how the drop
/// analyzer consumes 60+ days of history).
#[derive(Debug, Clone, Default)]
pub struct IndexUsageDmv {
    usage: BTreeMap<IndexId, IndexUsage>,
}

impl IndexUsageDmv {
    pub(crate) fn new() -> IndexUsageDmv {
        IndexUsageDmv::default()
    }

    pub(crate) fn note_seek(&mut self, ix: IndexId, now: Timestamp) {
        let u = self.usage.entry(ix).or_default();
        u.user_seeks += 1;
        u.last_user_seek = Some(now);
    }

    pub(crate) fn note_scan(&mut self, ix: IndexId, now: Timestamp) {
        let u = self.usage.entry(ix).or_default();
        u.user_scans += 1;
        u.last_user_scan = Some(now);
    }

    pub(crate) fn note_lookup(&mut self, ix: IndexId) {
        self.usage.entry(ix).or_default().user_lookups += 1;
    }

    /// Record `n` maintenance updates in one map probe (the per-row loop
    /// was hot on bulk writes).
    pub(crate) fn note_updates(&mut self, ix: IndexId, n: u64) {
        if n > 0 {
            self.usage.entry(ix).or_default().user_updates += n;
        }
    }

    pub fn usage(&self, ix: IndexId) -> IndexUsage {
        self.usage.get(&ix).copied().unwrap_or_default()
    }

    pub fn all(&self) -> impl Iterator<Item = (IndexId, &IndexUsage)> {
        self.usage.iter().map(|(id, u)| (*id, u))
    }

    /// Remove counters for a dropped index.
    pub(crate) fn forget(&mut self, ix: IndexId) {
        self.usage.remove(&ix);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(cost: f64, pct: f64) -> MissingIndexObservation {
        MissingIndexObservation {
            table: TableId(0),
            equality_columns: vec![ColumnId(1)],
            inequality_columns: vec![],
            include_columns: vec![ColumnId(0)],
            current_cost: cost,
            improvement_pct: pct,
        }
    }

    #[test]
    fn mi_dmv_accumulates() {
        let mut dmv = MissingIndexDmv::new();
        dmv.record(&obs(100.0, 80.0), Timestamp(0));
        dmv.record(&obs(200.0, 90.0), Timestamp(1000));
        assert_eq!(dmv.len(), 1);
        let (_, s) = dmv.entries().next().unwrap();
        assert_eq!(s.user_seeks, 2);
        assert!((s.avg_total_cost - 150.0).abs() < 1e-9);
        assert!((s.avg_impact_pct - 85.0).abs() < 1e-9);
        assert_eq!(s.last_seen, Timestamp(1000));
        // impact = 2 * 150 * 0.85
        assert!((s.impact_score() - 255.0).abs() < 1e-9);
    }

    #[test]
    fn different_candidates_distinct_entries() {
        let mut dmv = MissingIndexDmv::new();
        dmv.record(&obs(100.0, 80.0), Timestamp(0));
        let mut o2 = obs(100.0, 80.0);
        o2.equality_columns = vec![ColumnId(2)];
        dmv.record(&o2, Timestamp(0));
        assert_eq!(dmv.len(), 2);
    }

    #[test]
    fn reset_clears_entries() {
        let mut dmv = MissingIndexDmv::new();
        dmv.record(&obs(100.0, 80.0), Timestamp(0));
        let snap = dmv.snapshot();
        dmv.reset();
        assert!(dmv.is_empty());
        assert_eq!(dmv.resets, 1);
        assert_eq!(snap.len(), 1, "snapshot survives the reset");
    }

    #[test]
    fn usage_counters() {
        let mut dmv = IndexUsageDmv::new();
        let ix = IndexId(3);
        dmv.note_seek(ix, Timestamp(5));
        dmv.note_seek(ix, Timestamp(9));
        dmv.note_scan(ix, Timestamp(10));
        dmv.note_lookup(ix);
        dmv.note_updates(ix, 3);
        dmv.note_updates(ix, 2);
        let u = dmv.usage(ix);
        assert_eq!(u.user_seeks, 2);
        assert_eq!(u.user_scans, 1);
        assert_eq!(u.user_lookups, 1);
        assert_eq!(u.reads(), 4, "updates are not reads");
        assert_eq!(u.user_updates, 5);
        assert_eq!(u.last_user_seek, Some(Timestamp(9)));
        assert_eq!(u.last_user_scan, Some(Timestamp(10)));
        dmv.forget(ix);
        assert_eq!(dmv.usage(ix), IndexUsage::default());
    }

    /// The engine reports every write statement's maintenance count, an
    /// UPDATE that matched no row included: zero leaves no trace.
    #[test]
    fn zero_updates_leave_the_index_untouched() {
        let mut dmv = IndexUsageDmv::new();
        let ix = IndexId(1);
        dmv.note_updates(ix, 0);
        assert_eq!(dmv.usage(ix), IndexUsage::default());
        assert_eq!(dmv.all().count(), 0);
        dmv.note_updates(ix, 100);
        dmv.note_updates(ix, 0);
        assert_eq!(dmv.usage(ix).user_updates, 100);
        assert_eq!(dmv.usage(ix).reads(), 0);
    }
}
