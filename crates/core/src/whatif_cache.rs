//! What-if cost memoization for DTA sessions (§5.3.1's budget problem).
//!
//! A naive DTA session re-costs every workload statement for every
//! candidate in the single-benefit pass and again per (round × candidate)
//! in the greedy enumeration — O(rounds × candidates × statements)
//! optimizer calls with zero reuse. Real DTA survives its call budget by
//! deriving costs over *atomic configurations*: an optimizer estimate is
//! a pure function of the statement and the physical configuration of the
//! tables it touches, so two configurations that agree on those tables
//! yield bit-identical estimates and one call serves both.
//!
//! [`WhatIfCache`] is that derivation table: optimizer estimates keyed by
//! `(statement ordinal, configuration fingerprint)`, where the
//! fingerprint is [`WhatIfSession::config_fingerprint`] restricted to the
//! statement's [`tables_touched`]. Because the key captures everything
//! the estimate depends on, a cached session's results are byte-identical
//! to an uncached one — the invariant the equivalence proptest
//! (`tests/dta_cache.rs`) pins.
//!
//! [`WhatIfSession::config_fingerprint`]: sqlmini::engine::WhatIfSession::config_fingerprint
//! [`tables_touched`]: sqlmini::query::Statement::tables_touched

use std::collections::HashMap;

/// Counters for one cached what-if session: calls actually issued to the
/// optimizer vs. calls avoided, split by *how* they were avoided.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WhatIfStats {
    /// Optimizer invocations actually issued (each consumes budget).
    pub issued: u64,
    /// Calls answered from the cost cache (same statement, same
    /// restricted configuration seen before).
    pub saved_cache: u64,
    /// Calls skipped by relevance pruning (the candidate cannot affect
    /// the statement's tables, so its estimate is the already-known cost
    /// of the current configuration).
    pub saved_pruning: u64,
}

impl WhatIfStats {
    /// Total calls avoided, by either mechanism.
    pub fn saved(&self) -> u64 {
        self.saved_cache + self.saved_pruning
    }

    /// Fraction of cache lookups that hit (`saved_cache / (saved_cache +
    /// issued)`); every issued call in a cached session is a miss.
    pub(crate) fn cache_hit_rate(&self) -> f64 {
        let lookups = self.saved_cache + self.issued;
        if lookups == 0 {
            0.0
        } else {
            self.saved_cache as f64 / lookups as f64
        }
    }
}

/// Memo of optimizer estimates keyed by `(statement ordinal,
/// configuration fingerprint over the statement's touched tables)`.
///
/// The map is only ever probed point-wise, so `HashMap` iteration order
/// cannot leak into results — the cache is deterministic by construction.
#[derive(Debug, Clone, Default)]
pub(crate) struct WhatIfCache {
    map: HashMap<(usize, u64), f64>,
}

impl WhatIfCache {
    pub(crate) fn new() -> WhatIfCache {
        WhatIfCache::default()
    }

    /// Look up the memoized estimate for a statement under a restricted
    /// configuration fingerprint.
    pub(crate) fn get(&self, stmt: usize, fingerprint: u64) -> Option<f64> {
        self.map.get(&(stmt, fingerprint)).copied()
    }

    /// Memoize an estimate.
    pub(crate) fn insert(&mut self, stmt: usize, fingerprint: u64, cost: f64) {
        self.map.insert((stmt, fingerprint), cost);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.map.len()
    }

    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_point_lookups() {
        let mut c = WhatIfCache::new();
        assert!(c.is_empty());
        assert_eq!(c.get(0, 42), None);
        c.insert(0, 42, 1.5);
        c.insert(0, 43, 2.5);
        c.insert(1, 42, 3.5);
        assert_eq!(c.get(0, 42), Some(1.5));
        assert_eq!(c.get(0, 43), Some(2.5));
        assert_eq!(c.get(1, 42), Some(3.5));
        assert_eq!(c.get(1, 43), None);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn stats_rates() {
        let s = WhatIfStats::default();
        assert_eq!(s.saved(), 0);
        assert_eq!(s.cache_hit_rate(), 0.0);
        let s = WhatIfStats {
            issued: 25,
            saved_cache: 75,
            saved_pruning: 100,
        };
        assert_eq!(s.saved(), 175);
        assert!((s.cache_hit_rate() - 0.75).abs() < 1e-12);
    }
}
