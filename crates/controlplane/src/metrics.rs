//! Fleet metrics: counters, gauges, and fixed-bucket histograms.
//!
//! The production service's dashboards (§8.1) aggregate per-database
//! telemetry into fleet-wide operational statistics — outstanding
//! recommendation backlogs, weekly create/drop throughput, revert rates.
//! This module is the registry those numbers flow through.
//!
//! **Lock-free on the hot path.** A registry is *shard-owned*: like the
//! per-tenant [`StateStore`](crate::store::StateStore), each tenant's
//! control plane owns exactly one `MetricsRegistry` and mutates it with
//! plain integer arithmetic — no atomics, no mutexes, no contention.
//! Cross-tenant aggregation happens only at quiesce, by [`merging`]
//! shards **in fleet order**, so a parallel fleet run rolls up to the
//! byte-identical registry a serial run produces.
//!
//! **Merge is a commutative monoid.** Counters and gauges merge by
//! summation; histograms merge bucket-wise (bounds must agree). That
//! makes `merge` associative and commutative with [`MetricsRegistry::default`]
//! as identity — the property test in `tests/observability.rs` pins this,
//! because it is what licenses merging shards in any grouping.
//!
//! [`merging`]: MetricsRegistry::merge

use std::collections::BTreeMap;

/// A fixed-bucket histogram over `u64` observations (durations in
/// simulated milliseconds, counts, sizes).
///
/// `bounds` are inclusive upper bounds of the first `bounds.len()`
/// buckets; one implicit overflow bucket catches everything above the
/// last bound, so `counts.len() == bounds.len() + 1`.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    sum: u64,
    count: u64,
}

impl Histogram {
    fn new(bounds: Vec<u64>) -> Histogram {
        let n = bounds.len() + 1;
        Histogram {
            bounds,
            counts: vec![0; n],
            sum: 0,
            count: 0,
        }
    }

    /// Default bounds for simulated-time observations: 1s … 1w in ms.
    fn time_bounds() -> Vec<u64> {
        vec![
            1_000,
            10_000,
            60_000,
            600_000,
            3_600_000,
            10_800_000,
            43_200_000,
            86_400_000,
            259_200_000,
            604_800_000,
        ]
    }

    /// Default bounds for small-count observations (attempts, entries).
    pub fn count_bounds() -> Vec<u64> {
        vec![0, 1, 2, 5, 10, 20, 50, 100, 1_000]
    }

    /// Default bounds for byte-size observations: 1 KiB … 256 MiB.
    pub(crate) fn bytes_bounds() -> Vec<u64> {
        vec![
            1_024,
            16_384,
            65_536,
            262_144,
            1_048_576,
            16_777_216,
            268_435_456,
        ]
    }

    fn observe(&mut self, value: u64) {
        let bucket = self
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[bucket] += 1;
        self.sum = self.sum.saturating_add(value);
        self.count += 1;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    #[cfg(test)]
    fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket-wise merge. Panics when bucket bounds disagree — shards of
    /// one fleet always configure a metric identically, so a mismatch is
    /// a programming error, not data.
    fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }
}

/// The shard-owned metrics registry: monotonic counters, gauges, and
/// fixed-bucket histograms, keyed by dotted metric names
/// (`"implement.succeeded.create_index"`). `BTreeMap` keys make every
/// iteration — and therefore every export — deterministic.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Increment a monotonic counter by 1.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment a monotonic counter by `delta`. Allocates the key only
    /// on first touch; steady-state increments are a map lookup plus an
    /// integer add.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge. Gauges merge by **summation** across shards (each
    /// tenant reports its own level; the fleet value is the total), so a
    /// shard sets its local level and never another shard's.
    pub(crate) fn gauge_set(&mut self, name: &str, value: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    pub fn gauge_add(&mut self, name: &str, delta: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g += delta;
        } else {
            self.gauges.insert(name.to_string(), delta);
        }
    }

    pub(crate) fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Record one observation into the named histogram, creating it with
    /// `bounds` on first touch. Later observations ignore `bounds` (the
    /// first registration wins), matching the shard-identical-config
    /// assumption `merge` asserts.
    pub fn observe_with(&mut self, name: &str, value: u64, bounds: &[u64]) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(value);
        } else {
            let mut h = Histogram::new(bounds.to_vec());
            h.observe(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Record a simulated-duration observation (default time buckets).
    pub(crate) fn observe_time(&mut self, name: &str, millis: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(millis);
        } else {
            let mut h = Histogram::new(Histogram::time_bounds());
            h.observe(millis);
            self.histograms.insert(name.to_string(), h);
        }
    }

    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    pub fn gauges(&self) -> &BTreeMap<String, i64> {
        &self.gauges
    }

    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Counters matching `prefix`, with the prefix stripped — the
    /// dashboard's breakdown views (`"revert.cause."` → cause → count).
    pub(crate) fn breakdown(&self, prefix: &str) -> BTreeMap<String, u64> {
        self.counters
            .iter()
            .filter_map(|(k, v)| k.strip_prefix(prefix).map(|rest| (rest.to_string(), *v)))
            .collect()
    }

    /// Fold another shard into this one. Counters and gauges add;
    /// histograms merge bucket-wise. Associative and commutative, with
    /// the empty registry as identity.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.add(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauge_add(k, *v);
        }
        for (k, h) in &other.histograms {
            if let Some(mine) = self.histograms.get_mut(k) {
                mine.merge(h);
            } else {
                self.histograms.insert(k.clone(), h.clone());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        assert_eq!(m.counter("x"), 0);
        m.inc("x");
        m.add("x", 4);
        m.inc("y");
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("y"), 1);
    }

    #[test]
    fn gauges_set_and_add() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("outstanding", 7);
        m.gauge_set("outstanding", 3);
        m.gauge_add("outstanding", -1);
        assert_eq!(m.gauge("outstanding"), 2);
        assert_eq!(m.gauge("missing"), 0);
    }

    #[test]
    fn histogram_buckets_sum_and_overflow() {
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(5);
        h.observe(10); // inclusive upper bound
        h.observe(50);
        h.observe(1_000); // overflow
        assert_eq!(h.bucket_counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1_065);
    }

    #[test]
    #[should_panic(expected = "identical bucket bounds")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(vec![1, 2]);
        let b = Histogram::new(vec![1, 3]);
        a.merge(&b);
    }

    #[test]
    fn merge_sums_every_kind() {
        let mut a = MetricsRegistry::new();
        a.inc("c");
        a.gauge_set("g", 5);
        a.observe_with("h", 3, &[10]);
        let mut b = MetricsRegistry::new();
        b.add("c", 2);
        b.inc("only_b");
        b.gauge_set("g", -2);
        b.observe_with("h", 30, &[10]);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.counter("only_b"), 1);
        assert_eq!(a.gauge("g"), 3);
        assert_eq!(a.histograms()["h"].bucket_counts(), &[1, 1]);
    }

    #[test]
    fn merged_identity_and_fleet_fold() {
        let mut a = MetricsRegistry::new();
        a.inc("x");
        let b = MetricsRegistry::new();
        let mut folded = a.clone();
        folded.merge(&b);
        assert_eq!(folded, a, "empty registry is the merge identity");
    }

    #[test]
    fn breakdown_strips_prefix() {
        let mut m = MetricsRegistry::new();
        m.add("revert.cause.regression", 4);
        m.add("revert.cause.manual", 1);
        m.inc("revert.total");
        let causes = m.breakdown("revert.cause.");
        assert_eq!(causes.len(), 2);
        assert_eq!(causes.get("regression"), Some(&4));
        assert_eq!(causes.get("manual"), Some(&1));
    }

    #[test]
    fn export_json_round_trips() {
        let mut m = MetricsRegistry::new();
        m.add("a.b", 2);
        m.gauge_set("g", -7);
        m.observe_time("t", 5_000);
        let j = serde_json::to_string_pretty(&m).unwrap();
        let parsed: serde::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), j);
    }
}
