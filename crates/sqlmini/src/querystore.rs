//! Query Store: persistent execution-statistics tracking.
//!
//! Mirrors the SQL Server feature the paper's recommender and validator
//! depend on \[29\]: per (query, plan, time interval) it keeps execution
//! counts and the mean/variance of each metric (CPU time, logical reads,
//! duration), plus the query's template and a sample parameter binding.
//!
//! Variance is tracked via sum and sum-of-squares so the Welch t-test in
//! the validator can be computed over any interval window.
//!
//! Cells are keyed (interval, query, plan), the order the whole-window
//! folds (`total_resources`, `top_k_queries`) sum in. Beside them each
//! (query, plan) keeps the rising list of intervals it has a cell in, so
//! a per-plan fold reads exactly its own cells, still in interval order:
//! every aggregate adds the same cells in the same order as a scan of the
//! window would.

use crate::clock::{Duration, Timestamp};
use crate::exec::ActualMetrics;
use crate::plan::PlanId;
use crate::query::{QueryId, QueryTemplate};
use crate::types::Value;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Which execution metric to aggregate or compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// CPU time in microseconds (logical; low variance).
    CpuTime,
    /// Logical page reads (logical; low variance).
    LogicalReads,
    /// Wall-clock duration in microseconds (physical; high variance).
    Duration,
}

/// Streaming aggregate of one metric: count, mean, and variance via sums.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MetricAgg {
    pub count: u64,
    pub sum: f64,
    pub sum_sq: f64,
}

impl MetricAgg {
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.sum_sq += v * v;
    }

    pub fn merge(&mut self, other: &MetricAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Sample variance (unbiased).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        ((self.sum_sq - self.sum * self.sum / n) / (n - 1.0)).max(0.0)
    }
}

/// Aggregated execution statistics for one (query, plan) in one interval.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecAgg {
    pub cpu: MetricAgg,
    pub reads: MetricAgg,
    pub duration: MetricAgg,
    pub rows: MetricAgg,
}

impl ExecAgg {
    pub fn record(&mut self, m: &ActualMetrics, duration_us: f64) {
        self.cpu.record(m.cpu_us);
        self.reads.record(m.logical_reads as f64);
        self.duration.record(duration_us);
        self.rows.record(m.rows_returned as f64);
    }

    pub fn merge(&mut self, other: &ExecAgg) {
        self.cpu.merge(&other.cpu);
        self.reads.merge(&other.reads);
        self.duration.merge(&other.duration);
        self.rows.merge(&other.rows);
    }

    pub fn metric(&self, m: Metric) -> &MetricAgg {
        match m {
            Metric::CpuTime => &self.cpu,
            Metric::LogicalReads => &self.reads,
            Metric::Duration => &self.duration,
        }
    }

    pub fn count(&self) -> u64 {
        self.cpu.count
    }
}

/// Per-query persisted info: the template (query text analogue) and a
/// recent parameter binding usable as a representative for what-if costing.
#[derive(Debug, Clone)]
pub struct QueryInfo {
    pub template: QueryTemplate,
    pub sample_params: Vec<Value>,
    pub first_seen: Timestamp,
    pub last_seen: Timestamp,
}

/// Interval index (intervals are fixed-width since epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalId(pub u64);

/// The Query Store.
#[derive(Debug, Clone)]
pub struct QueryStore {
    interval: Duration,
    retention: Duration,
    /// (interval, query, plan) -> aggregate.
    data: BTreeMap<(IntervalId, QueryId, PlanId), ExecAgg>,
    /// (query, plan) -> the intervals it has a cell in, rising.
    plan_intervals: BTreeMap<(QueryId, PlanId), Vec<IntervalId>>,
    queries: BTreeMap<QueryId, QueryInfo>,
    /// Which plans each query has used (plan history).
    plans: BTreeMap<QueryId, Vec<PlanId>>,
    /// Index names referenced by each plan (plan XML analogue).
    plan_refs: BTreeMap<PlanId, Vec<String>>,
}

impl QueryStore {
    pub fn new(interval: Duration, retention: Duration) -> QueryStore {
        QueryStore {
            interval,
            retention,
            data: BTreeMap::new(),
            plan_intervals: BTreeMap::new(),
            queries: BTreeMap::new(),
            plans: BTreeMap::new(),
            plan_refs: BTreeMap::new(),
        }
    }

    pub fn interval_of(&self, t: Timestamp) -> IntervalId {
        IntervalId(t.millis() / self.interval.millis().max(1))
    }

    /// Width of one aggregation interval.
    pub fn interval(&self) -> Duration {
        self.interval
    }

    /// Last interval included by an exclusive upper bound `to`.
    fn hi_interval(&self, to: Timestamp) -> IntervalId {
        self.interval_of(Timestamp(to.millis().saturating_sub(1)))
    }

    /// Round `t` down to the start of its interval.
    pub fn align_down(&self, t: Timestamp) -> Timestamp {
        let w = self.interval.millis().max(1);
        Timestamp(t.millis() / w * w)
    }

    /// Round `t` up to the next interval boundary (identity if aligned).
    pub fn align_up(&self, t: Timestamp) -> Timestamp {
        let w = self.interval.millis().max(1);
        Timestamp(t.millis().div_ceil(w) * w)
    }

    /// Record one execution. `index_refs` lists the index names the
    /// executed plan referenced (exposed in SQL Server via the plan XML;
    /// the validator's plan-change analysis needs it).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        template: &QueryTemplate,
        params: &[Value],
        plan: PlanId,
        index_refs: &[String],
        metrics: &ActualMetrics,
        duration_us: f64,
        now: Timestamp,
    ) {
        let qid = template.query_id();
        self.record_prehashed(
            qid,
            template,
            params,
            plan,
            index_refs,
            metrics,
            duration_us,
            now,
        );
    }

    /// [`record`](Self::record) for callers that already hold the query
    /// id (the engine's hot path interns it in its plan cache); avoids
    /// re-deriving it per execution.
    #[allow(clippy::too_many_arguments)]
    pub fn record_prehashed(
        &mut self,
        qid: QueryId,
        template: &QueryTemplate,
        params: &[Value],
        plan: PlanId,
        index_refs: &[String],
        metrics: &ActualMetrics,
        duration_us: f64,
        now: Timestamp,
    ) {
        let iv = self.interval_of(now);
        match self.data.entry((iv, qid, plan)) {
            Entry::Occupied(cell) => cell.into_mut().record(metrics, duration_us),
            Entry::Vacant(cell) => {
                cell.insert(ExecAgg::default()).record(metrics, duration_us);
                // Time only moves forward, so this is an append; a clock
                // set back still lands the interval in place.
                let ivs = self.plan_intervals.entry((qid, plan)).or_default();
                ivs.insert(ivs.partition_point(|&i| i < iv), iv);
            }
        }
        let info = self.queries.entry(qid).or_insert_with(|| QueryInfo {
            template: template.clone(),
            sample_params: params.to_vec(),
            first_seen: now,
            last_seen: now,
        });
        info.last_seen = now;
        if !params.is_empty() {
            info.sample_params.clear();
            info.sample_params.extend_from_slice(params);
        }
        let plans = self.plans.entry(qid).or_default();
        if !plans.contains(&plan) {
            plans.push(plan);
        }
        self.plan_refs
            .entry(plan)
            .or_insert_with(|| index_refs.to_vec());
    }

    /// Index names a plan references (empty when unknown).
    pub fn plan_index_refs(&self, plan: PlanId) -> &[String] {
        self.plan_refs.get(&plan).map(Vec::as_slice).unwrap_or(&[])
    }

    pub fn query_info(&self, qid: QueryId) -> Option<&QueryInfo> {
        self.queries.get(&qid)
    }

    pub fn known_queries(&self) -> impl Iterator<Item = (QueryId, &QueryInfo)> {
        self.queries.iter().map(|(q, i)| (*q, i))
    }

    /// Plan history for a query (order of first use).
    pub fn plan_history(&self, qid: QueryId) -> &[PlanId] {
        self.plans.get(&qid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Aggregate stats for one (query, plan) over `[from, to)`.
    pub fn plan_stats(
        &self,
        qid: QueryId,
        plan: PlanId,
        from: Timestamp,
        to: Timestamp,
    ) -> ExecAgg {
        let mut agg = ExecAgg::default();
        let Some(ivs) = self.plan_intervals.get(&(qid, plan)) else {
            return agg;
        };
        let lo = self.interval_of(from);
        let hi = self.hi_interval(to);
        let first = ivs.partition_point(|&iv| iv < lo);
        for &iv in ivs[first..].iter().take_while(|&&iv| iv <= hi) {
            agg.merge(&self.data[&(iv, qid, plan)]);
        }
        agg
    }

    /// Aggregate stats for one query across all plans over `[from, to)`.
    pub fn query_stats(&self, qid: QueryId, from: Timestamp, to: Timestamp) -> ExecAgg {
        let mut agg = ExecAgg::default();
        for &p in self.plan_history(qid) {
            agg.merge(&self.plan_stats(qid, p, from, to));
        }
        agg
    }

    /// Plans a query used within a window, with stats.
    pub fn plans_in_window(
        &self,
        qid: QueryId,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(PlanId, ExecAgg)> {
        self.plan_history(qid)
            .iter()
            .filter_map(|&p| {
                let a = self.plan_stats(qid, p, from, to);
                if a.count() > 0 {
                    Some((p, a))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Total resource consumption (sum over all queries) within a window.
    pub fn total_resources(&self, metric: Metric, from: Timestamp, to: Timestamp) -> f64 {
        let lo = self.interval_of(from);
        let hi = self.hi_interval(to);
        self.data
            .range((lo, QueryId(0), PlanId(0))..)
            .take_while(|((iv, _, _), _)| *iv <= hi)
            .map(|(_, a)| a.metric(metric).sum)
            .sum()
    }

    /// The `k` most expensive queries by total `metric` within a window —
    /// the workload-selection primitive of §5.3.2.
    pub fn top_k_queries(
        &self,
        metric: Metric,
        k: usize,
        from: Timestamp,
        to: Timestamp,
    ) -> Vec<(QueryId, f64)> {
        let lo = self.interval_of(from);
        let hi = self.hi_interval(to);
        let mut totals: BTreeMap<QueryId, f64> = BTreeMap::new();
        for ((iv, q, _), a) in self.data.range((lo, QueryId(0), PlanId(0))..) {
            if *iv > hi {
                break;
            }
            *totals.entry(*q).or_default() += a.metric(metric).sum;
        }
        let mut v: Vec<(QueryId, f64)> = totals.into_iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        v.truncate(k);
        v
    }

    /// Evict intervals older than the retention horizon.
    pub fn enforce_retention(&mut self, now: Timestamp) {
        let horizon = Timestamp(now.millis().saturating_sub(self.retention.millis()));
        let min_iv = self.interval_of(horizon);
        self.data.retain(|(iv, _, _), _| *iv >= min_iv);
        self.plan_intervals.retain(|_, ivs| {
            ivs.drain(..ivs.partition_point(|&iv| iv < min_iv));
            !ivs.is_empty()
        });
    }

    /// Number of stored (interval, query, plan) cells (observability).
    pub fn cell_count(&self) -> usize {
        self.data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{SelectQuery, Statement};
    use crate::schema::TableId;
    use proptest::prelude::*;

    fn tpl(t: u32) -> QueryTemplate {
        QueryTemplate::new(Statement::Select(SelectQuery::new(TableId(t))), 0)
    }

    fn metrics(cpu: f64, reads: u64) -> ActualMetrics {
        ActualMetrics {
            rows_returned: 1,
            rows_examined: 10,
            logical_reads: reads,
            logical_writes: 0,
            cpu_us: cpu,
        }
    }

    fn qs() -> QueryStore {
        QueryStore::new(Duration::from_hours(1), Duration::from_days(30))
    }

    #[test]
    fn metric_agg_mean_variance() {
        let mut a = MetricAgg::default();
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            a.record(v);
        }
        assert_eq!(a.count, 8);
        assert!((a.mean() - 5.0).abs() < 1e-9);
        // Sample variance of this classic dataset is 32/7.
        assert!((a.variance() - 32.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn record_and_window_stats() {
        let mut s = qs();
        let t = tpl(0);
        let pid = PlanId(1);
        let t0 = Timestamp::EPOCH;
        for i in 0..10 {
            s.record(
                &t,
                &[],
                pid,
                &[],
                &metrics(100.0 + i as f64, 50),
                200.0,
                t0 + Duration::from_mins(i * 10),
            );
        }
        let agg = s.plan_stats(t.query_id(), pid, t0, t0 + Duration::from_hours(2));
        assert_eq!(agg.count(), 10);
        assert!((agg.cpu.mean() - 104.5).abs() < 1e-9);
        // Narrow window only catches the executions in interval 0.
        let first = s.plan_stats(t.query_id(), pid, t0, t0 + Duration::from_mins(30));
        assert_eq!(first.count(), 6, "intervals are hour-wide");
    }

    #[test]
    fn plan_history_tracks_changes() {
        let mut s = qs();
        let t = tpl(0);
        s.record(
            &t,
            &[],
            PlanId(1),
            &[],
            &metrics(10.0, 1),
            10.0,
            Timestamp(0),
        );
        s.record(
            &t,
            &[],
            PlanId(2),
            &[],
            &metrics(5.0, 1),
            5.0,
            Timestamp(1000),
        );
        s.record(
            &t,
            &[],
            PlanId(1),
            &[],
            &metrics(10.0, 1),
            10.0,
            Timestamp(2000),
        );
        assert_eq!(s.plan_history(t.query_id()), &[PlanId(1), PlanId(2)]);
    }

    #[test]
    fn top_k_ranks_by_total_resource() {
        let mut s = qs();
        let a = tpl(0);
        let b = tpl(1);
        let c = tpl(2);
        // b: many cheap; a: few expensive; c: tiny.
        for _ in 0..100 {
            s.record(
                &b,
                &[],
                PlanId(1),
                &[],
                &metrics(10.0, 2),
                10.0,
                Timestamp(0),
            );
        }
        for _ in 0..5 {
            s.record(
                &a,
                &[],
                PlanId(2),
                &[],
                &metrics(500.0, 100),
                500.0,
                Timestamp(0),
            );
        }
        s.record(&c, &[], PlanId(3), &[], &metrics(1.0, 1), 1.0, Timestamp(0));
        let top = s.top_k_queries(Metric::CpuTime, 2, Timestamp(0), Timestamp(1));
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, a.query_id());
        assert!((top[0].1 - 2500.0).abs() < 1e-9);
        assert_eq!(top[1].0, b.query_id());
    }

    #[test]
    fn total_resources_sums_everything() {
        let mut s = qs();
        s.record(
            &tpl(0),
            &[],
            PlanId(1),
            &[],
            &metrics(10.0, 3),
            10.0,
            Timestamp(0),
        );
        s.record(
            &tpl(1),
            &[],
            PlanId(2),
            &[],
            &metrics(20.0, 7),
            20.0,
            Timestamp(0),
        );
        assert!(
            (s.total_resources(Metric::CpuTime, Timestamp(0), Timestamp(1)) - 30.0).abs() < 1e-9
        );
        assert!(
            (s.total_resources(Metric::LogicalReads, Timestamp(0), Timestamp(1)) - 10.0).abs()
                < 1e-9
        );
    }

    #[test]
    fn retention_evicts_old_intervals() {
        let mut s = QueryStore::new(Duration::from_hours(1), Duration::from_days(1));
        let t = tpl(0);
        s.record(
            &t,
            &[],
            PlanId(1),
            &[],
            &metrics(1.0, 1),
            1.0,
            Timestamp::EPOCH,
        );
        let later = Timestamp::EPOCH + Duration::from_days(3);
        s.record(&t, &[], PlanId(1), &[], &metrics(1.0, 1), 1.0, later);
        assert_eq!(s.cell_count(), 2);
        s.enforce_retention(later);
        assert_eq!(s.cell_count(), 1);
        let old = s.plan_stats(t.query_id(), PlanId(1), Timestamp::EPOCH, Timestamp(1));
        assert_eq!(old.count(), 0);
    }

    #[test]
    fn sample_params_updated() {
        let mut s = qs();
        let t = tpl(0);
        s.record(
            &t,
            &[Value::Int(1)],
            PlanId(1),
            &[],
            &metrics(1.0, 1),
            1.0,
            Timestamp(0),
        );
        s.record(
            &t,
            &[Value::Int(9)],
            PlanId(1),
            &[],
            &metrics(1.0, 1),
            1.0,
            Timestamp(1),
        );
        assert_eq!(
            s.query_info(t.query_id()).unwrap().sample_params,
            vec![Value::Int(9)]
        );
    }

    #[test]
    fn query_stats_spans_plans() {
        let mut s = qs();
        let t = tpl(0);
        s.record(
            &t,
            &[],
            PlanId(1),
            &[],
            &metrics(10.0, 1),
            10.0,
            Timestamp(0),
        );
        s.record(
            &t,
            &[],
            PlanId(2),
            &[],
            &metrics(30.0, 1),
            30.0,
            Timestamp(0),
        );
        let agg = s.query_stats(t.query_id(), Timestamp(0), Timestamp(1));
        assert_eq!(agg.count(), 2);
        assert!((agg.cpu.mean() - 20.0).abs() < 1e-9);
    }

    /// What the store is asked, answered the slow way: only the cells,
    /// kept by (interval, query, plan) as the store keeps them, and every
    /// read a scan of all of them in key order.
    #[derive(Default)]
    struct FullScan {
        cells: BTreeMap<(IntervalId, QueryId, PlanId), ExecAgg>,
        plans: BTreeMap<QueryId, Vec<PlanId>>,
    }

    impl FullScan {
        fn record(&mut self, iv: IntervalId, q: QueryId, p: PlanId, m: &ActualMetrics, d: f64) {
            self.cells.entry((iv, q, p)).or_default().record(m, d);
            let plans = self.plans.entry(q).or_default();
            if !plans.contains(&p) {
                plans.push(p);
            }
        }

        fn in_window(
            &self,
            qs: &QueryStore,
            from: Timestamp,
            to: Timestamp,
        ) -> impl Iterator<Item = (&(IntervalId, QueryId, PlanId), &ExecAgg)> {
            let (lo, hi) = (qs.interval_of(from), qs.hi_interval(to));
            self.cells
                .iter()
                .filter(move |((iv, _, _), _)| lo <= *iv && *iv <= hi)
        }

        fn plan_stats(
            &self,
            qs: &QueryStore,
            q: QueryId,
            p: PlanId,
            from: Timestamp,
            to: Timestamp,
        ) -> ExecAgg {
            let mut agg = ExecAgg::default();
            for ((_, cq, cp), a) in self.in_window(qs, from, to) {
                if (*cq, *cp) == (q, p) {
                    agg.merge(a);
                }
            }
            agg
        }

        fn plan_history(&self, q: QueryId) -> &[PlanId] {
            self.plans.get(&q).map(Vec::as_slice).unwrap_or(&[])
        }

        fn query_stats(
            &self,
            qs: &QueryStore,
            q: QueryId,
            from: Timestamp,
            to: Timestamp,
        ) -> ExecAgg {
            let mut agg = ExecAgg::default();
            for &p in self.plan_history(q) {
                agg.merge(&self.plan_stats(qs, q, p, from, to));
            }
            agg
        }

        fn plans_in_window(
            &self,
            qs: &QueryStore,
            q: QueryId,
            from: Timestamp,
            to: Timestamp,
        ) -> Vec<(PlanId, ExecAgg)> {
            let stats = self
                .plan_history(q)
                .iter()
                .map(|&p| (p, self.plan_stats(qs, q, p, from, to)));
            stats.filter(|(_, a)| a.count() > 0).collect()
        }

        fn total_resources(
            &self,
            qs: &QueryStore,
            m: Metric,
            from: Timestamp,
            to: Timestamp,
        ) -> f64 {
            self.in_window(qs, from, to)
                .map(|(_, a)| a.metric(m).sum)
                .sum()
        }

        fn top_k(
            &self,
            qs: &QueryStore,
            m: Metric,
            k: usize,
            from: Timestamp,
            to: Timestamp,
        ) -> Vec<(QueryId, f64)> {
            let mut totals: BTreeMap<QueryId, f64> = BTreeMap::new();
            for ((_, q, _), a) in self.in_window(qs, from, to) {
                *totals.entry(*q).or_default() += a.metric(m).sum;
            }
            let mut v: Vec<(QueryId, f64)> = totals.into_iter().collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            v.truncate(k);
            v
        }
    }

    /// An aggregate as bits: every count, and every sum and sum of squares
    /// through `f64::to_bits`.
    fn bits(a: &ExecAgg) -> Vec<u64> {
        [&a.cpu, &a.reads, &a.duration, &a.rows]
            .iter()
            .flat_map(|m| [m.count, m.sum.to_bits(), m.sum_sq.to_bits()])
            .collect()
    }

    /// Differential: random record streams — several queries, plans that
    /// switch and switch back, many executions to an interval, clock
    /// jumps (now and then backwards) and retention — and every read the
    /// store answers from its per-plan interval lists equals, bit for bit,
    /// a scan of every cell. Salted with `CHAOS_SEED`, so CI's chaos
    /// matrix draws different cases per seed.
    #[test]
    fn reads_equal_a_full_scan_of_the_cells() {
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        proptest::run_prop_test(
            &format!("querystore_reads_equal_a_full_scan_of_the_cells/{seed}"),
            &ProptestConfig::with_cases(64),
            (1usize..600, 1u32..7, 1u64..5, any::<u64>()),
            |(n, queries, plans, salt)| {
                let mut x = salt | 1;
                let mut next = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                let hour = Duration::from_hours(1).millis();
                let mut s = QueryStore::new(Duration::from_hours(1), Duration::from_days(1));
                let mut reference = FullScan::default();
                let mut current: Vec<u64> = vec![0; queries as usize];
                let mut now = next() % (100 * hour);
                let start = now;
                for _ in 0..n {
                    now = match next() % 100 {
                        0..=69 => now + next() % (10 * 60_000),
                        70..=94 => now + next() % (5 * hour),
                        95..=97 => now + next() % (40 * hour),
                        _ => now.saturating_sub(next() % (3 * hour)),
                    };
                    let q = (next() % u64::from(queries)) as usize;
                    if next() % 5 == 0 {
                        current[q] = next() % plans;
                    }
                    let template = tpl(q as u32);
                    let plan = PlanId(q as u64 * 100 + current[q]);
                    let m = ActualMetrics {
                        rows_returned: next() % 50,
                        rows_examined: 0,
                        logical_reads: next() % 1_000,
                        logical_writes: 0,
                        cpu_us: (next() % 1_000_000) as f64 / 7.0,
                    };
                    let d = (next() % 1_000_000) as f64 / 3.0;
                    let at = Timestamp(now);
                    s.record(&template, &[], plan, &[], &m, d, at);
                    reference.record(s.interval_of(at), template.query_id(), plan, &m, d);
                    if next() % 50 == 0 {
                        s.enforce_retention(at);
                        let horizon =
                            Timestamp(now.saturating_sub(Duration::from_days(1).millis()));
                        let min_iv = s.interval_of(horizon);
                        reference.cells.retain(|(iv, _, _), _| *iv >= min_iv);
                    }
                }
                prop_assert_eq!(s.cell_count(), reference.cells.len());
                let span = now.max(start) + 2 * hour;
                for _ in 0..24 {
                    let (a, b) = (next() % span, next() % span);
                    let (from, to) = (Timestamp(a.min(b)), Timestamp(a.max(b)));
                    for q in 0..queries {
                        let qid = tpl(q).query_id();
                        prop_assert_eq!(s.plan_history(qid), reference.plan_history(qid));
                        for p in 0..plans + 1 {
                            let p = PlanId(u64::from(q) * 100 + p);
                            prop_assert_eq!(
                                bits(&s.plan_stats(qid, p, from, to)),
                                bits(&reference.plan_stats(&s, qid, p, from, to))
                            );
                        }
                        prop_assert_eq!(
                            bits(&s.query_stats(qid, from, to)),
                            bits(&reference.query_stats(&s, qid, from, to))
                        );
                        let got = s.plans_in_window(qid, from, to);
                        let want = reference.plans_in_window(&s, qid, from, to);
                        let flat = |v: &[(PlanId, ExecAgg)]| -> Vec<_> {
                            v.iter().map(|(p, a)| (*p, bits(a))).collect()
                        };
                        prop_assert_eq!(flat(&got), flat(&want));
                    }
                    for m in [Metric::CpuTime, Metric::LogicalReads, Metric::Duration] {
                        prop_assert_eq!(
                            s.total_resources(m, from, to).to_bits(),
                            reference.total_resources(&s, m, from, to).to_bits()
                        );
                        let k = (next() % (u64::from(queries) + 2)) as usize;
                        let flat = |v: Vec<(QueryId, f64)>| -> Vec<_> {
                            v.into_iter().map(|(q, t)| (q, t.to_bits())).collect()
                        };
                        prop_assert_eq!(
                            flat(s.top_k_queries(m, k, from, to)),
                            flat(reference.top_k(&s, m, k, from, to))
                        );
                    }
                }
                Ok(())
            },
        );
    }
}
