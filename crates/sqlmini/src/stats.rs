//! Table and column statistics: equi-depth histograms, distinct counts,
//! and staleness tracking.
//!
//! The optimizer estimates cardinalities from these statistics. The three
//! classic estimation-error sources the paper's validator exists to absorb
//! are reproduced faithfully:
//!
//! 1. **Sampling error** — statistics can be built from a sample.
//! 2. **Staleness** — statistics describe the table as of build time;
//!    subsequent modifications are only visible as a modification counter.
//! 3. **Independence assumption** — multi-predicate selectivities are
//!    multiplied in the optimizer even when columns are correlated.

use crate::heap::Heap;
use crate::types::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of buckets in an equi-depth histogram.
const HISTOGRAM_BUCKETS: usize = 32;

/// Default selectivity guesses when statistics cannot answer (mirroring the
/// magic constants every commercial optimizer carries).
pub(crate) mod defaults {
    pub(crate) const EQ_SELECTIVITY: f64 = 0.01;
    pub(crate) const RANGE_SELECTIVITY: f64 = 0.30;
    pub(crate) const INEQ_SELECTIVITY: f64 = 0.33;
}

/// One histogram bucket over the numeric projection of a column's values.
#[derive(Debug, Clone, PartialEq)]
struct Bucket {
    /// Inclusive upper bound of the bucket (numeric projection).
    hi: f64,
    /// Rows in the bucket (scaled to table size at build).
    rows: f64,
    /// Distinct values estimated within the bucket.
    distinct: f64,
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    min: f64,
    max: f64,
    /// Estimated number of distinct values.
    pub(crate) ndv: f64,
    /// Fraction of NULLs.
    null_frac: f64,
    /// Equi-depth buckets ordered by `hi`.
    buckets: Vec<Bucket>,
}

impl ColumnStats {
    /// Build stats from the numeric projections of the column's values.
    /// `scale` inflates sampled counts back to table cardinality.
    fn build(mut positions: Vec<f64>, nulls: usize, scale: f64) -> ColumnStats {
        // Floats that compare equal are interchangeable below (all but the
        // sign of a zero, which nothing reads), so stability buys nothing.
        positions.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        ColumnStats::of_sorted(&positions, nulls, scale)
    }

    /// `build` over positions already in rising order.
    pub fn of_sorted(positions: &[f64], nulls: usize, scale: f64) -> ColumnStats {
        let n = positions.len();
        if n == 0 {
            return ColumnStats {
                min: 0.0,
                max: 0.0,
                ndv: 1.0,
                null_frac: if nulls > 0 { 1.0 } else { 0.0 },
                buckets: Vec::new(),
            };
        }
        let min = positions[0];
        let max = positions[n - 1];

        // Distinct estimation on the (possibly sampled) data, then a simple
        // scale-up capped by the value range for integer-like domains.
        let mut distinct_sample = 1usize;
        for w in positions.windows(2) {
            if w[0] != w[1] {
                distinct_sample += 1;
            }
        }
        let ndv = ((distinct_sample as f64) * scale.sqrt())
            .min(n as f64 * scale)
            .max(1.0);

        let per_bucket = n.div_ceil(HISTOGRAM_BUCKETS).max(1);
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        let mut i = 0;
        while i < n {
            let mut end = (i + per_bucket).min(n);
            // Extend the bucket through duplicates of its upper bound so
            // bucket boundaries fall between distinct values.
            while end < n && positions[end] == positions[end - 1] {
                end += 1;
            }
            let slice = &positions[i..end];
            let mut d = 1.0;
            for w in slice.windows(2) {
                if w[0] != w[1] {
                    d += 1.0;
                }
            }
            buckets.push(Bucket {
                hi: slice[slice.len() - 1],
                rows: slice.len() as f64 * scale,
                distinct: d,
            });
            i = end;
        }
        let total: f64 = buckets.iter().map(|b| b.rows).sum();
        let null_frac = nulls as f64 * scale / (total + nulls as f64 * scale).max(1.0);
        ColumnStats {
            min,
            max,
            ndv,
            null_frac,
            buckets,
        }
    }

    /// Total rows the histogram accounts for.
    fn total_rows(&self) -> f64 {
        self.buckets.iter().map(|b| b.rows).sum()
    }

    /// Selectivity of `col = v`.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if v.is_null() {
            return self.null_frac;
        }
        let p = v.as_f64();
        let total = self.total_rows();
        if total <= 0.0 || self.buckets.is_empty() {
            return defaults::EQ_SELECTIVITY;
        }
        if p < self.min || p > self.max {
            // Out of recorded range: the classic stale-stats blind spot —
            // recently inserted values beyond the histogram estimate tiny.
            return (1.0 / total).min(defaults::EQ_SELECTIVITY);
        }
        let mut lo = 0.0f64;
        for b in &self.buckets {
            if p <= b.hi {
                let frac_in_bucket = 1.0 / b.distinct.max(1.0);
                let _ = lo;
                return ((b.rows * frac_in_bucket) / total).clamp(1e-9, 1.0);
            }
            lo = b.hi;
        }
        (1.0 / total).min(defaults::EQ_SELECTIVITY)
    }

    /// Selectivity of `lo <= col <= hi` (either side optional) with linear
    /// interpolation inside buckets.
    pub fn range_selectivity(&self, lo: Option<f64>, hi: Option<f64>) -> f64 {
        let total = self.total_rows();
        if total <= 0.0 || self.buckets.is_empty() {
            return defaults::RANGE_SELECTIVITY;
        }
        let lo = lo.unwrap_or(f64::NEG_INFINITY);
        let hi = hi.unwrap_or(f64::INFINITY);
        if lo > hi {
            return 0.0;
        }
        let mut acc = 0.0f64;
        let mut prev_hi = self.min;
        for b in &self.buckets {
            let b_lo = prev_hi;
            let b_hi = b.hi;
            prev_hi = b.hi;
            if b_hi < lo {
                continue;
            }
            if b_lo > hi {
                break;
            }
            let width = (b_hi - b_lo).max(f64::MIN_POSITIVE);
            let olap_lo = lo.max(b_lo);
            let olap_hi = hi.min(b_hi);
            let frac = if b_hi == b_lo {
                1.0
            } else {
                ((olap_hi - olap_lo) / width).clamp(0.0, 1.0)
            };
            acc += b.rows * frac;
        }
        (acc / total).clamp(0.0, 1.0) * (1.0 - self.null_frac)
    }
}

/// Statistics for one table.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Row count when the statistics were built.
    pub row_count: u64,
    /// Per-column statistics (positional).
    pub columns: Vec<ColumnStats>,
    /// Rows sampled when building (== row_count when full scan).
    #[cfg(test)]
    sampled_rows: u64,
    /// Modifications to the table since the statistics were built; when it
    /// grows large relative to `row_count` the stats are stale.
    modifications: u64,
}

impl TableStats {
    /// Build statistics from every live row of `heap`.
    pub fn build_full(heap: &Heap) -> TableStats {
        Self::build_impl(heap, None, 0)
    }

    /// Build statistics from a Bernoulli sample of the rows (what DTA's
    /// sampled statistics do, and what keeps tuning cheap on large tables).
    pub(crate) fn build_sampled(heap: &Heap, sample_frac: f64, seed: u64) -> TableStats {
        Self::build_impl(heap, Some(sample_frac.clamp(0.001, 1.0)), seed)
    }

    /// The sample is drawn first, one draw per live row in row-id order;
    /// then each column contributes the positions of the sampled rows, in
    /// that order, bar the NULLs it counts.
    fn build_impl(heap: &Heap, sample_frac: Option<f64>, seed: u64) -> TableStats {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_5f53_5441_5453);
        let sample: Vec<usize> = heap
            .live_ids()
            .filter(|_| sample_frac.is_none_or(|f| rng.random::<f64>() < f))
            .map(|rid| rid.0 as usize)
            .collect();
        let row_count = heap.len() as u64;
        let sampled = sample.len() as u64;
        let scale = if sampled == 0 {
            1.0
        } else {
            row_count as f64 / sampled as f64
        };
        let (runs, dicts) = heap.columns();
        let columns = (runs.iter().zip(dicts))
            .map(|(run, dict)| {
                let (positions, nulls) = run.positions(&sample, dict);
                ColumnStats::build(positions, nulls, scale)
            })
            .collect();
        TableStats {
            row_count,
            columns,
            #[cfg(test)]
            sampled_rows: sampled,
            modifications: 0,
        }
    }

    /// Record `n` modifications (insert/update/delete of rows).
    pub(crate) fn note_modifications(&mut self, n: u64) {
        self.modifications += n;
    }

    /// SQL Server-style auto-update threshold: stats are stale once
    /// modifications exceed 20% of the rows they describe (plus a floor).
    pub(crate) fn is_stale(&self) -> bool {
        self.modifications > 500 + self.row_count / 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Row, ValueType};

    fn heap_of(types: &[ValueType], rows: impl IntoIterator<Item = Row>) -> Heap {
        let mut heap = Heap::new(types, 8 * types.len() as u64);
        for row in rows {
            heap.insert(row);
        }
        heap
    }

    fn uniform_rows(n: i64) -> Heap {
        heap_of(
            &[ValueType::Int; 2],
            (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
        )
    }

    /// What `ColumnStats::build` was before its sort went unstable.
    fn stable_build(mut positions: Vec<f64>, nulls: usize, scale: f64) -> ColumnStats {
        positions.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        ColumnStats::of_sorted(&positions, nulls, scale)
    }

    /// The only floats that compare equal and are not the same float are
    /// the two zeros. An unstable sort may order them differently from the
    /// stable one, so the sign of a zero `min`, `max` or bucket `hi` is
    /// not pinned (at 64 positions below, one `hi` comes out `0.0` where
    /// the stable sort left `-0.0`); every field still compares equal, and
    /// every selectivity read off them is the same float bit for bit.
    #[test]
    fn unstable_sort_builds_equal_stats_over_mixed_zeros() {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for (n, sign) in [2usize, 3, 31, 32, 33, 64, 500, 4_000]
            .into_iter()
            .flat_map(|n| [(n, 1.0), (n, -1.0)])
        {
            let positions: Vec<f64> = (2..n)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    match x % 5 {
                        0 => 0.0,
                        1 => -0.0,
                        2 => sign * ((x >> 8) % 4) as f64,
                        _ => ((x >> 8) % 4) as f64,
                    }
                })
                .chain([0.0, -0.0])
                .collect();
            let want = stable_build(positions.clone(), 3, 1.5);
            let got = ColumnStats::build(positions, 3, 1.5);
            assert_eq!(got, want, "{n} positions");
            for v in [-1.0, -0.0, 0.0, 0.5, 2.0] {
                let read = |s: &ColumnStats| {
                    [
                        s.eq_selectivity(&Value::Float(v)),
                        s.range_selectivity(Some(v), None),
                        s.range_selectivity(None, Some(v)),
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(read(&got), read(&want), "selectivities at {v} over {n}");
            }
        }
    }

    #[test]
    fn full_stats_row_count_and_ndv() {
        let rows = uniform_rows(1000);
        let s = TableStats::build_full(&rows);
        assert_eq!(s.row_count, 1000);
        assert_eq!(s.sampled_rows, 1000);
        let c0 = &s.columns[0];
        assert!((c0.ndv - 1000.0).abs() < 50.0, "ndv {} off", c0.ndv);
        let c1 = &s.columns[1];
        assert!((c1.ndv - 10.0).abs() < 2.0, "ndv {} off", c1.ndv);
    }

    #[test]
    fn eq_selectivity_uniform() {
        let rows = uniform_rows(1000);
        let s = TableStats::build_full(&rows);
        let sel = s.columns[1].eq_selectivity(&Value::Int(3));
        assert!((sel - 0.1).abs() < 0.05, "sel {sel} should be ~0.1");
        let sel0 = s.columns[0].eq_selectivity(&Value::Int(500));
        assert!(sel0 < 0.01, "point sel {sel0} should be tiny");
    }

    #[test]
    fn out_of_range_value_estimates_tiny() {
        let rows = uniform_rows(1000);
        let s = TableStats::build_full(&rows);
        let sel = s.columns[0].eq_selectivity(&Value::Int(100_000));
        assert!(sel <= 0.01);
    }

    #[test]
    fn range_selectivity_proportional() {
        let rows = uniform_rows(1000);
        let s = TableStats::build_full(&rows);
        let sel = s.columns[0].range_selectivity(Some(250.0), Some(500.0));
        assert!((sel - 0.25).abs() < 0.08, "sel {sel} should be ~0.25");
        let all = s.columns[0].range_selectivity(None, None);
        assert!(all > 0.9);
        assert_eq!(s.columns[0].range_selectivity(Some(10.0), Some(5.0)), 0.0);
    }

    #[test]
    fn sampled_stats_approximate_full() {
        let rows = uniform_rows(20_000);
        let full = TableStats::build_full(&rows);
        let samp = TableStats::build_sampled(&rows, 0.05, 42);
        assert_eq!(samp.row_count, 20_000);
        assert!(samp.sampled_rows < 3000);
        let f = full.columns[1].eq_selectivity(&Value::Int(5));
        let s = samp.columns[1].eq_selectivity(&Value::Int(5));
        assert!((f - s).abs() < 0.05, "full {f} vs sampled {s}");
    }

    /// Statistics read by column are the row-at-a-time build's, bit for
    /// bit: one draw per live row in row-id order (deleted slots draw
    /// nothing), and each column's positions in that order.
    #[test]
    fn sampled_stats_equal_a_row_at_a_time_reference() {
        let mut heap = heap_of(
            &[ValueType::Int, ValueType::Float, ValueType::Str],
            (0..20_000i64).map(|i| {
                let f = if i % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float((i % 13) as f64 / 3.0)
                };
                vec![Value::Int(i), f, Value::Str(format!("s{}", i % 37).into())]
            }),
        );
        for i in (0..20_000).step_by(11) {
            heap.delete(crate::heap::RowId(i));
        }
        let rows: Vec<Row> = heap.live_ids().filter_map(|r| heap.row(r)).collect();
        for (frac, seed) in [(0.05, 42), (0.5, 7), (1.0, 1)] {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5747_5f53_5441_5453);
            let sample: Vec<&Row> = rows.iter().filter(|_| rng.random::<f64>() < frac).collect();
            let scale = rows.len() as f64 / sample.len() as f64;
            let got = TableStats::build_sampled(&heap, frac, seed);
            assert_eq!(got.row_count as usize, rows.len());
            assert_eq!(got.sampled_rows as usize, sample.len());
            for (c, got) in got.columns.iter().enumerate() {
                let values = sample.iter().map(|r| &r[c]);
                let positions: Vec<f64> =
                    values.filter(|v| !v.is_null()).map(Value::as_f64).collect();
                let nulls = sample.len() - positions.len();
                let want = ColumnStats::build(positions, nulls, scale);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "column {c} at {frac}"
                );
            }
        }
    }

    #[test]
    fn staleness_threshold() {
        let rows = uniform_rows(1000);
        let mut s = TableStats::build_full(&rows);
        assert!(!s.is_stale());
        s.note_modifications(600);
        assert!(!s.is_stale()); // 500 + 200 floor
        s.note_modifications(200);
        assert!(s.is_stale());
    }

    #[test]
    fn nulls_tracked() {
        let rows = heap_of(
            &[ValueType::Int],
            (0..100).map(|i| {
                vec![if i % 4 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }]
            }),
        );
        let s = TableStats::build_full(&rows);
        let nf = s.columns[0].null_frac;
        assert!((nf - 0.25).abs() < 0.02, "null_frac {nf}");
        let sel = s.columns[0].eq_selectivity(&Value::Null);
        assert!((sel - 0.25).abs() < 0.02);
    }

    #[test]
    fn empty_table_stats() {
        let s = TableStats::build_full(&Heap::new(&[ValueType::Int; 2], 16));
        assert_eq!(s.row_count, 0);
        assert_eq!(
            s.columns[0].eq_selectivity(&Value::Int(1)),
            defaults::EQ_SELECTIVITY
        );
    }

    #[test]
    fn skewed_histogram_separates_heavy_value() {
        // 90% of rows have value 0; the rest uniform 1..=100.
        let rows = heap_of(
            &[ValueType::Int],
            (0..1000).map(|i| vec![Value::Int(if i < 900 { 0 } else { i % 100 + 1 })]),
        );
        let s = TableStats::build_full(&rows);
        let heavy = s.columns[0].eq_selectivity(&Value::Int(0));
        let light = s.columns[0].eq_selectivity(&Value::Int(50));
        assert!(heavy > 0.5, "heavy {heavy}");
        assert!(light < 0.05, "light {light}");
    }
}
