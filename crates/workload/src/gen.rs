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

/// Zipf sampler over `0..n` with exponent `s`: the inverse CDF, exact
/// over the first `min(n, 1000)` ranks; a draw past them is uniform over
/// the rest (see the comment in [`Zipf::sample`]).
///
/// The normalizer `h` is the term-by-term sum of `k^-s` over the first
/// `min(n, 10⁴)` ranks plus an integral for the rest. A draw only ranks
/// `u·h` among the head's partial sums, so the sampler keeps the head
/// exactly and, past it, an enclosure `[lo, hi]` of `h` that costs a few
/// powers instead of 9,000: a draw whose ranks of `u·lo` and `u·hi` agree
/// has the rank of `u·h` too. Only a draw whose enclosure straddles a
/// head partial sum (at most about one in 500,000) sums `h` term by term,
/// once per sampler.
#[derive(Debug, Clone)]
pub(crate) struct Zipf {
    n: u64,
    s: f64,
    /// Bounds on the normalizer H_{n,s}: `lo ≤ h ≤ hi`, both `h` once it
    /// has been summed term by term.
    lo: f64,
    hi: f64,
    /// `head_cdf[k]` = Σ_{j ≤ k+1} j^-s over the first `min(n, 1000)`
    /// ranks: the partial sums of `h`, in `h`'s summation order.
    head_cdf: Vec<f64>,
}

/// Ranks summed into the head's inverse CDF.
const HEAD: u64 = 1000;
/// Ranks summed term by term into the normalizer; an integral covers the
/// rest.
const SUMMED: u64 = 10_000;
/// Relative width that widens the tail's estimate into an enclosure: far
/// above its error (below 1e-13 for `s` in `ENCLOSED`, see the tests).
const SLACK: f64 = 1e-9;
/// The exponents whose enclosure the tests check; outside them `new`
/// sums `h` term by term.
const ENCLOSED: std::ops::RangeInclusive<f64> = 0.5..=2.5;

impl Zipf {
    fn new(n: u64, s: f64) -> Zipf {
        let n = n.max(1);
        let mut acc = 0.0;
        let head_cdf: Vec<f64> = (1..=n.min(HEAD))
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        let mut zipf = Zipf {
            n,
            s,
            lo: acc,
            hi: acc,
            head_cdf,
        };
        if n <= HEAD || !ENCLOSED.contains(&s) {
            let h = zipf.exact_h();
            (zipf.lo, zipf.hi) = (h, h);
        } else {
            let summed = n.min(SUMMED) as f64;
            let estimate =
                acc + euler_maclaurin((HEAD + 1) as f64, summed, s) + tail_integral(n, s);
            (zipf.lo, zipf.hi) = (estimate * (1.0 - SLACK), estimate * (1.0 + SLACK));
        }
        zipf
    }

    /// H_{n,s} term by term: the head's sum, the powers after it up to rank
    /// 10⁴, then the integral beyond.
    fn exact_h(&self) -> f64 {
        let mut h = *self.head_cdf.last().expect("n ≥ 1");
        for k in HEAD + 1..=self.n.min(SUMMED) {
            h += 1.0 / (k as f64).powf(self.s);
        }
        h + tail_integral(self.n, self.s)
    }

    /// Sample a rank in `0..n` (0 = most frequent).
    pub(crate) fn sample(&mut self, rng: &mut StdRng) -> u64 {
        let rank = self.head_rank(rng.random::<f64>());
        let head = self.head_cdf.len() as u64;
        if rank < head {
            return rank;
        }
        // Uniform over the tail (the tail is flat enough for workload use).
        // Off by one: this draws ranks head-1..=n-2, so rank head-1 gets a
        // tail rank's share on top of its own and rank n-1 is never drawn.
        // Fixing it moves every fleet digest (ROADMAP item 1's refresh).
        head + rng.random_range(0..(self.n - head).max(1)) - 1
    }

    /// The first head rank whose cumulative weight reaches `u·h`, or the
    /// head's length when none does. `u·lo` and `u·hi` bound `u·h`, so
    /// their ranks bound its rank; `h` itself is summed only when they
    /// differ.
    fn head_rank(&mut self, u: f64) -> u64 {
        let rank_of = |target: f64| self.head_cdf.partition_point(|&acc| acc < target) as u64;
        let rank = rank_of(u * self.lo);
        if rank == rank_of(u * self.hi) {
            return rank;
        }
        let h = self.exact_h();
        (self.lo, self.hi) = (h, h);
        rank_of(u * h)
    }
}

/// ∫_{10⁴}^{n} x^-s dx, the normalizer's part past the summed ranks (0
/// when `n ≤ 10⁴`).
fn tail_integral(n: u64, s: f64) -> f64 {
    if n <= SUMMED {
        0.0
    } else if (s - 1.0).abs() < 1e-9 {
        (n as f64 / 10_000.0).ln()
    } else {
        ((n as f64).powf(1.0 - s) - 10_000f64.powf(1.0 - s)) / (1.0 - s)
    }
}

/// Σ_{k=a}^{b} k^-s by Euler–Maclaurin: the integral, the endpoint terms
/// and the B₂ and B₄ corrections. For `a` past 1,000 and `s` in
/// `ENCLOSED` the next term is below 1e-18 of the sum. Exact (`a^-s`)
/// when `a == b`.
fn euler_maclaurin(a: f64, b: f64, s: f64) -> f64 {
    let ln = (b / a).ln();
    // ∫_a^b x^-s dx, through `exp_m1` so it stays accurate as s → 1.
    let t = (1.0 - s) * ln;
    let integral = if t == 0.0 {
        ln
    } else {
        a.powf(1.0 - s) * t.exp_m1() / (1.0 - s)
    };
    let f = |x: f64| x.powf(-s);
    // f'(x) = -s·x^(-s-1) and f'''(x) = -s(s+1)(s+2)·x^(-s-3).
    let d1 = |x: f64| -s * x.powf(-s - 1.0);
    let d3 = |x: f64| -s * (s + 1.0) * (s + 2.0) * x.powf(-s - 3.0);
    integral + (f(a) + f(b)) / 2.0 + (d1(b) - d1(a)) / 12.0 - (d3(b) - d3(a)) / 720.0
}

/// [`Zipf`] samplers by `(n, s)`, each built on first use: a sampler's
/// head is up to 1,000 powers, far more than a draw costs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ZipfCache(std::collections::BTreeMap<(u64, u64), Zipf>);

impl ZipfCache {
    pub(crate) fn get(&mut self, n: u64, s: f64) -> &mut Zipf {
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
        let mut samplers: Vec<ColumnSampler> = (self.columns.iter().zip(&mut columns))
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
                self.generate_value(ci, seq, rng, &mut samplers, &mut columns);
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
        samplers: &mut [ColumnSampler],
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
            ColumnDist::ZipfInt { .. } => match &mut samplers[ci] {
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
        let mut z = Zipf::new(1000, 1.2);
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

    /// The normalizer as the sampler summed it before the enclosure: every
    /// power up to rank 10⁴ term by term, then the integral.
    fn term_by_term_h(n: u64, s: f64) -> f64 {
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
        h
    }

    /// The sampler as it was before the CDF table, given its normalizer
    /// `h`: the head walked term by term.
    fn uncached_sample(n: u64, s: f64, h: f64, rng: &mut StdRng) -> u64 {
        let n = n.max(1);
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

    /// Over the generator's cardinalities and exponents, and past the
    /// head's and the summed ranks' ends, a cached sampler draws what the
    /// term-by-term sampler drew from the same stream, and leaves the
    /// stream where it left it. Salted with `CHAOS_SEED`, so CI's chaos
    /// matrix draws different cases per seed.
    #[test]
    fn zipf_table_draws_what_the_uncached_sampler_drew() {
        use proptest::prelude::*;
        let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
        let ns = [10u64, 100, 1000, 10_000, 1001, 10_001, 250_000];
        proptest::run_prop_test(
            &format!("zipf_table_draws_what_the_uncached_sampler_drew/{seed}"),
            &ProptestConfig::with_cases(48),
            (0..ns.len(), 0u32..4, 0u64..1 << 20, any::<u64>()),
            |(n, which_s, frac, stream)| {
                let n = ns[n];
                // Half the cases in the generator's [1, 2), the rest at
                // 0.8 and 1.0.
                let s = match which_s {
                    0 => 0.8,
                    1 => 1.0,
                    _ => 1.0 + frac as f64 / (1u64 << 20) as f64,
                };
                let h = term_by_term_h(n, s);
                let mut cache = ZipfCache::default();
                let (mut a, mut b) = (StdRng::seed_from_u64(stream), StdRng::seed_from_u64(stream));
                for i in 0..1_000 {
                    let got = cache.get(n, s).sample(&mut a);
                    let want = uncached_sample(n, s, h, &mut b);
                    prop_assert!(got == want, "draw {i} of ({n}, {s}): {got} != {want}");
                }
                prop_assert_eq!(a.random::<u64>(), b.random::<u64>());
                Ok(())
            },
        );
    }

    /// `lo ≤ h ≤ hi`, `h` summed term by term, at every exponent the
    /// enclosure covers in steps of 0.001 and at sizes from just past the
    /// head to past the summed ranks; and the estimate the slack widens
    /// is within 1e-13 of `h`, far inside the slack.
    #[test]
    fn zipf_normalizer_lies_in_its_enclosure() {
        let mut worst: f64 = 0.0;
        for step in 0..=2_000 {
            let s = 0.5 + step as f64 * 0.001;
            for n in [1001u64, 2_500, 10_000, 250_000] {
                let z = Zipf::new(n, s);
                let h = term_by_term_h(n, s);
                assert!(
                    z.lo <= h && h <= z.hi,
                    "({n}, {s}): {} ≤ {h} ≤ {}",
                    z.lo,
                    z.hi
                );
                assert!(z.lo < z.hi, "({n}, {s}) summed eagerly");
                let estimate = z.lo / (1.0 - SLACK);
                worst = worst.max((estimate - h).abs() / h);
            }
        }
        assert!(worst < 1e-13, "worst relative error {worst:e}");
    }

    /// At or below the head, and outside the enclosed exponents, the
    /// normalizer is summed term by term when the sampler is built.
    #[test]
    fn zipf_sums_its_normalizer_where_it_has_no_enclosure() {
        for (n, s) in [
            (1u64, 1.2),
            (1000, 1.2),
            (5_000, 0.3),
            (5_000, 3.0),
            (5_000, f64::NAN),
        ] {
            let z = Zipf::new(n, s);
            let h = term_by_term_h(n, s);
            let bits = (z.lo.to_bits(), z.hi.to_bits());
            assert_eq!(bits, (h.to_bits(), h.to_bits()), "({n}, {s})");
        }
    }

    /// A draw whose `u·lo` and `u·hi` straddle a head partial sum takes its
    /// rank from `u·h`, summed term by term then and kept.
    #[test]
    fn zipf_straddling_draw_sums_the_normalizer() {
        let (n, s) = (10_000, 1.3);
        let h = term_by_term_h(n, s);
        for k in [0usize, 17, 998] {
            // `u·h` just below head sum `k`, and at it (up to rounding).
            for step in [1.0 - 1e-12, 1.0] {
                let mut z = Zipf::new(n, s);
                let acc = z.head_cdf[k];
                let u = acc / h * step;
                assert!(
                    u * z.lo < acc && acc <= u * z.hi,
                    "u = {u} does not straddle"
                );
                let want = z.head_cdf.partition_point(|&a| a < u * h) as u64;
                assert_eq!(z.head_rank(u), want, "u = {u}");
                assert_eq!((z.lo.to_bits(), z.hi.to_bits()), (h.to_bits(), h.to_bits()));
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
