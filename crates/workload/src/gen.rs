//! Schema and data generation.
//!
//! Tenant databases in Azure SQL Database are wildly diverse; this module
//! generates that diversity deterministically from a seed: table counts,
//! column counts and types, row counts, value distributions (uniform,
//! Zipf-skewed, hot-set), and — critically for reproducing optimizer
//! estimation errors — **correlated column pairs** that break the
//! independence assumption.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqlmini::column::Column;
use sqlmini::schema::{ColumnDef, ColumnId, TableDef};
use sqlmini::types::{Value, ValueType};

/// How values of one column are distributed.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ColumnDist {
    /// Sequential integers 0.. (primary keys).
    Sequential,
    /// Uniform integers in `0..cardinality`.
    UniformInt { cardinality: u64 },
    /// Zipf-distributed integers in `0..cardinality` with exponent `s`
    /// (heavier skew for larger `s`).
    ZipfInt { cardinality: u64, s: f64 },
    /// Uniform floats in `[0, max)`.
    UniformFloat { max: f64 },
    /// One of `n` category strings `cat_0..cat_{n-1}`, uniformly.
    Category { n: u64 },
    /// Derived from another column: `value = other / divisor` — perfectly
    /// correlated, the classic independence-assumption killer.
    DerivedFrom { column: ColumnId, divisor: u64 },
    /// Dates spread over `days`, skewed toward recent values.
    RecentDate { days: u32 },
}

impl ColumnDist {
    fn value_type(&self) -> ValueType {
        match self {
            ColumnDist::Sequential
            | ColumnDist::UniformInt { .. }
            | ColumnDist::ZipfInt { .. }
            | ColumnDist::DerivedFrom { .. } => ValueType::Int,
            ColumnDist::UniformFloat { .. } => ValueType::Float,
            ColumnDist::Category { .. } => ValueType::Str,
            ColumnDist::RecentDate { .. } => ValueType::Date,
        }
    }
}

/// Per-column state of one [`TableSpec::generate_columns`] call.
enum ColumnSampler {
    None,
    Zipf(Zipf),
    /// The dictionary codes of `cat_0..cat_{n-1}` in the column.
    Categories(Vec<u32>),
}

/// Zipf sampler over `0..n` with exponent `s`, using the rejection-free
/// inverse-CDF approximation (adequate for workload generation).
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: u64,
    /// Normalization constant H_{n,s}.
    h: f64,
    /// `head_cdf[k]` = Σ_{j ≤ k+1} j^-s over the first `min(n, 1000)`
    /// ranks: the partial sums of `h`, in `h`'s summation order.
    head_cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Zipf {
        let n = n.max(1);
        let mut h = 0.0;
        let mut head_cdf = Vec::with_capacity(n.min(1000) as usize);
        // Exact for small n; integral approximation beyond.
        for k in 1..=n.min(10_000) {
            h += 1.0 / (k as f64).powf(s);
            if k <= 1000 {
                head_cdf.push(h);
            }
        }
        if n > 10_000 {
            // ∫_{10000}^{n} x^-s dx
            if (s - 1.0).abs() < 1e-9 {
                h += (n as f64 / 10_000.0).ln();
            } else {
                h += ((n as f64).powf(1.0 - s) - 10_000f64.powf(1.0 - s)) / (1.0 - s);
            }
        }
        Zipf { n, h, head_cdf }
    }

    /// Sample a rank in `0..n` (0 = most frequent).
    pub(crate) fn sample(&self, rng: &mut StdRng) -> u64 {
        let target = rng.random::<f64>() * self.h;
        // The head exactly: the first rank whose cumulative weight
        // reaches the target. Tail via approximation.
        let head = self.head_cdf.len() as u64;
        let rank = self.head_cdf.partition_point(|&acc| acc < target) as u64;
        if rank < head {
            return rank;
        }
        // Uniform over the tail (the tail is flat enough for workload use).
        head + rng.random_range(0..(self.n - head).max(1)) - 1
    }
}

/// [`Zipf`] samplers by `(n, s)`, each built on first use: building one
/// sums up to 10,000 powers, far more than a draw costs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ZipfCache(std::collections::BTreeMap<(u64, u64), Zipf>);

impl ZipfCache {
    pub(crate) fn get(&mut self, n: u64, s: f64) -> &Zipf {
        self.0
            .entry((n, s.to_bits()))
            .or_insert_with(|| Zipf::new(n, s))
    }
}

/// Specification of one column: name, distribution, nullable fraction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ColumnSpec {
    name: String,
    pub(crate) dist: ColumnDist,
    null_frac: f64,
}

/// Specification of one table: columns + target row count.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TableSpec {
    name: String,
    pub(crate) columns: Vec<ColumnSpec>,
    pub(crate) rows: u64,
}

impl TableSpec {
    /// Convert to an engine [`TableDef`] (column 0 is always the pk).
    pub(crate) fn to_table_def(&self) -> TableDef {
        TableDef::new(
            self.name.clone(),
            self.columns
                .iter()
                .map(|c| {
                    let mut d = ColumnDef::new(c.name.clone(), c.dist.value_type());
                    if c.null_frac > 0.0 {
                        d = d.nullable();
                    }
                    d
                })
                .collect(),
        )
        .with_primary_key(ColumnId(0))
    }

    /// Generate all rows for this table, by column: slot `i` of
    /// `columns[c]` is column `c` of row `i`, stored by type as the engine
    /// stores it (`Database::load_columns`), so no row and no `Value` is
    /// kept on the way and the load takes the columns as they are. Values
    /// are drawn row by row, columns left to right.
    pub(crate) fn generate_columns(&self, rng: &mut StdRng) -> Vec<Column> {
        let n = self.rows as usize;
        let mut columns: Vec<Column> = (self.columns.iter())
            .map(|c| Column::of_type(c.dist.value_type(), n))
            .collect();
        // What a column's distribution needs built once, not once per row;
        // a category's string goes into its column's dictionary once.
        let samplers: Vec<ColumnSampler> = (self.columns.iter().zip(&mut columns))
            .map(|(c, column)| match &c.dist {
                ColumnDist::ZipfInt { cardinality, s } => {
                    ColumnSampler::Zipf(Zipf::new(*cardinality, *s))
                }
                ColumnDist::Category { n } => ColumnSampler::Categories(
                    (0..(*n).max(1))
                        .map(|k| column.intern(format!("cat_{k}").into()))
                        .collect(),
                ),
                _ => ColumnSampler::None,
            })
            .collect();
        for seq in 0..self.rows {
            for ci in 0..self.columns.len() {
                self.generate_value(ci, seq, rng, &samplers, &mut columns);
            }
        }
        columns
    }

    /// Draw column `ci` of row `seq` onto `columns[ci]`, after the row's
    /// columns before it (which `columns` already holds).
    fn generate_value(
        &self,
        ci: usize,
        seq: u64,
        rng: &mut StdRng,
        samplers: &[ColumnSampler],
        columns: &mut [Column],
    ) {
        let c = &self.columns[ci];
        if c.null_frac > 0.0 && rng.random::<f64>() < c.null_frac {
            return columns[ci].push(Value::Null);
        }
        let v = match &c.dist {
            ColumnDist::Sequential => Value::Int(seq as i64),
            ColumnDist::UniformInt { cardinality } => {
                Value::Int(rng.random_range(0..(*cardinality).max(1)) as i64)
            }
            ColumnDist::ZipfInt { .. } => match &samplers[ci] {
                ColumnSampler::Zipf(zipf) => Value::Int(zipf.sample(rng) as i64),
                _ => unreachable!("sampler built"),
            },
            ColumnDist::UniformFloat { max } => Value::Float(rng.random::<f64>() * max),
            // One dictionary entry per category: a row takes its code.
            ColumnDist::Category { n } => match &samplers[ci] {
                ColumnSampler::Categories(codes) => {
                    let k = rng.random_range(0..(*n).max(1)) as usize;
                    return columns[ci].push_code(codes[k]);
                }
                _ => unreachable!("sampler built"),
            },
            ColumnDist::DerivedFrom { column, divisor } => {
                // Derive from the row's already-generated value of `column`
                // (0 when that column comes at or after this one).
                let base = columns
                    .get(column.0 as usize)
                    .filter(|col| col.len() > seq as usize)
                    .map(|col| col.value(seq as usize).as_f64())
                    .unwrap_or(0.0);
                Value::Int((base as i64) / (*divisor).max(1) as i64)
            }
            ColumnDist::RecentDate { days } => {
                // Quadratic skew toward day `days`.
                let u = rng.random::<f64>();
                Value::Date((*days as f64 * u.sqrt()) as i32)
            }
        };
        columns[ci].push(v);
    }
}

/// Probability a column is Zipf-skewed rather than uniform.
const SKEW_PROB: f64 = 0.3;

/// Parameters controlling schema generation.
#[derive(Debug, Clone)]
pub struct SchemaGenConfig {
    pub min_tables: usize,
    pub max_tables: usize,
    pub(crate) min_columns: usize,
    pub(crate) max_columns: usize,
    pub min_rows: u64,
    pub max_rows: u64,
    /// Probability a non-pk column is correlated with a previous column.
    pub(crate) correlation_prob: f64,
}

impl Default for SchemaGenConfig {
    fn default() -> SchemaGenConfig {
        SchemaGenConfig {
            min_tables: 2,
            max_tables: 6,
            min_columns: 4,
            max_columns: 10,
            min_rows: 2_000,
            max_rows: 30_000,
            correlation_prob: 0.15,
        }
    }
}

/// Generate a random schema: a list of table specs.
pub(crate) fn generate_schema(cfg: &SchemaGenConfig, seed: u64) -> Vec<TableSpec> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5343_4845_4d41);
    let n_tables = rng.random_range(cfg.min_tables..=cfg.max_tables);
    let mut tables = Vec::with_capacity(n_tables);
    for t in 0..n_tables {
        let n_cols = rng.random_range(cfg.min_columns..=cfg.max_columns);
        // Row counts log-uniform between min and max.
        let lr = (cfg.min_rows as f64).ln()
            + rng.random::<f64>() * ((cfg.max_rows as f64).ln() - (cfg.min_rows as f64).ln());
        let rows = lr.exp() as u64;
        let mut columns = vec![ColumnSpec {
            name: "id".to_string(),
            dist: ColumnDist::Sequential,
            null_frac: 0.0,
        }];
        for c in 1..n_cols {
            let name = format!("c{c}");
            let dist = if c >= 2 && rng.random::<f64>() < cfg.correlation_prob {
                // Correlate with a random earlier int column.
                let earlier: Vec<u32> = (1..c as u32)
                    .filter(|&e| matches!(columns[e as usize].dist.value_type(), ValueType::Int))
                    .collect();
                if earlier.is_empty() {
                    ColumnDist::UniformInt {
                        cardinality: 10u64.pow(rng.random_range(1..4)),
                    }
                } else {
                    ColumnDist::DerivedFrom {
                        column: ColumnId(earlier[rng.random_range(0..earlier.len())]),
                        divisor: [10u64, 100, 1000][rng.random_range(0..3usize)],
                    }
                }
            } else {
                match rng.random_range(0..6) {
                    0 | 1 => {
                        let cardinality = 10u64.pow(rng.random_range(1..5));
                        if rng.random::<f64>() < SKEW_PROB {
                            ColumnDist::ZipfInt {
                                cardinality,
                                s: 1.0 + rng.random::<f64>(),
                            }
                        } else {
                            ColumnDist::UniformInt { cardinality }
                        }
                    }
                    2 => ColumnDist::UniformFloat {
                        max: 10f64.powi(rng.random_range(2..6)),
                    },
                    3 => ColumnDist::Category {
                        n: rng.random_range(2..50),
                    },
                    4 => ColumnDist::RecentDate {
                        days: rng.random_range(30..1000),
                    },
                    _ => ColumnDist::UniformInt {
                        cardinality: rows.max(10),
                    },
                }
            };
            let null_frac = if rng.random::<f64>() < 0.1 { 0.05 } else { 0.0 };
            columns.push(ColumnSpec {
                name,
                dist,
                null_frac,
            });
        }
        tables.push(TableSpec {
            name: format!("t{t}"),
            columns,
            rows,
        });
    }
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_generation_is_deterministic() {
        let cfg = SchemaGenConfig::default();
        let a = generate_schema(&cfg, 7);
        let b = generate_schema(&cfg, 7);
        assert_eq!(a, b);
        let c = generate_schema(&cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn schema_within_bounds() {
        let cfg = SchemaGenConfig::default();
        for seed in 0..20 {
            let tables = generate_schema(&cfg, seed);
            assert!(tables.len() >= cfg.min_tables && tables.len() <= cfg.max_tables);
            for t in &tables {
                assert!(t.columns.len() >= cfg.min_columns && t.columns.len() <= cfg.max_columns);
                assert!(t.rows >= cfg.min_rows && t.rows <= cfg.max_rows);
                assert_eq!(t.columns[0].dist, ColumnDist::Sequential);
            }
        }
    }

    #[test]
    fn rows_match_spec() {
        let spec = TableSpec {
            name: "t".into(),
            columns: vec![
                ColumnSpec {
                    name: "id".into(),
                    dist: ColumnDist::Sequential,
                    null_frac: 0.0,
                },
                ColumnSpec {
                    name: "grp".into(),
                    dist: ColumnDist::UniformInt { cardinality: 10 },
                    null_frac: 0.0,
                },
                ColumnSpec {
                    name: "grp10".into(),
                    dist: ColumnDist::DerivedFrom {
                        column: ColumnId(1),
                        divisor: 10,
                    },
                    null_frac: 0.0,
                },
            ],
            rows: 500,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let cols = spec.generate_columns(&mut rng);
        assert!(cols.iter().all(|c| c.len() == 500));
        for (i, (id, (base, derived))) in cols[0]
            .iter()
            .zip(cols[1].iter().zip(cols[2].iter()))
            .enumerate()
        {
            assert_eq!(id, Value::Int(i as i64));
            // Perfect correlation.
            let base = match base {
                Value::Int(v) => v,
                _ => panic!(),
            };
            assert_eq!(derived, Value::Int(base / 10));
        }
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = vec![0u64; 1000];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(
            counts[0] > counts[99] * 5,
            "rank 0 ({}) should dwarf rank 99 ({})",
            counts[0],
            counts[99]
        );
        assert!(counts[0] > 1000);
    }

    /// The sampler as it was before the CDF table: the normalizer summed
    /// at every draw, the head walked term by term.
    fn uncached_sample(n: u64, s: f64, rng: &mut StdRng) -> u64 {
        let n = n.max(1);
        let mut h = 0.0;
        for k in 1..=n.min(10_000) {
            h += 1.0 / (k as f64).powf(s);
        }
        if n > 10_000 {
            if (s - 1.0).abs() < 1e-9 {
                h += (n as f64 / 10_000.0).ln();
            } else {
                h += ((n as f64).powf(1.0 - s) - 10_000f64.powf(1.0 - s)) / (1.0 - s);
            }
        }
        let target = rng.random::<f64>() * h;
        let mut acc = 0.0;
        let head = n.min(1000);
        for k in 1..=head {
            acc += 1.0 / (k as f64).powf(s);
            if acc >= target {
                return k - 1;
            }
        }
        head + rng.random_range(0..(n - head).max(1)) - 1
    }

    #[test]
    fn zipf_table_draws_what_the_uncached_sampler_drew() {
        let mut cache = ZipfCache::default();
        for (n, s) in [(40u64, 0.8), (3_000, 1.0), (250_000, 1.3)] {
            let mut a = StdRng::seed_from_u64(n);
            let mut b = StdRng::seed_from_u64(n);
            for i in 0..10_000 {
                let got = cache.get(n, s).sample(&mut a);
                assert_eq!(got, uncached_sample(n, s, &mut b), "draw {i} of ({n}, {s})");
            }
        }
    }

    #[test]
    fn nullable_columns_produce_nulls() {
        let spec = TableSpec {
            name: "t".into(),
            columns: vec![
                ColumnSpec {
                    name: "id".into(),
                    dist: ColumnDist::Sequential,
                    null_frac: 0.0,
                },
                ColumnSpec {
                    name: "x".into(),
                    dist: ColumnDist::UniformInt { cardinality: 5 },
                    null_frac: 0.5,
                },
            ],
            rows: 1000,
        };
        let mut rng = StdRng::seed_from_u64(2);
        let cols = spec.generate_columns(&mut rng);
        let nulls = cols[1].iter().filter(|v| v.is_null()).count();
        assert!((300..700).contains(&nulls), "nulls {nulls}");
    }

    #[test]
    fn table_def_roundtrip() {
        let cfg = SchemaGenConfig::default();
        let tables = generate_schema(&cfg, 42);
        for t in &tables {
            let def = t.to_table_def();
            assert_eq!(def.columns.len(), t.columns.len());
            assert_eq!(def.primary_key, Some(ColumnId(0)));
        }
    }

    #[test]
    fn date_skew_recent() {
        let spec = ColumnSpec {
            name: "d".into(),
            dist: ColumnDist::RecentDate { days: 100 },
            null_frac: 0.0,
        };
        let t = TableSpec {
            name: "t".into(),
            columns: vec![
                ColumnSpec {
                    name: "id".into(),
                    dist: ColumnDist::Sequential,
                    null_frac: 0.0,
                },
                spec,
            ],
            rows: 2000,
        };
        let mut rng = StdRng::seed_from_u64(5);
        let cols = t.generate_columns(&mut rng);
        let recent = cols[1]
            .iter()
            .filter(|v| matches!(v, Value::Date(d) if *d >= 50))
            .count();
        assert!(recent > 1200, "recent {recent} should dominate");
    }
}
