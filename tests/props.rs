//! Property-based tests on the core invariants, spanning crates.
//!
//! The heavyweight property is *plan semantic equivalence*: whatever
//! access path the optimizer picks for a random query over random data
//! and random indexes, the executor must return exactly the rows a
//! brute-force scan returns. Index tuning is only safe because index
//! choice never changes results.

use proptest::prelude::*;
use sqlmini::btree::{BTree, Entries};
use sqlmini::clock::SimClock;
use sqlmini::column::Column;
use sqlmini::engine::{Database, DbConfig};
use sqlmini::heap::{Heap, RowId};
use sqlmini::index::{ColBound, SecondaryIndex};
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef, TableId};
use sqlmini::stats::TableStats;
use sqlmini::types::{Row, Value, ValueType};
use std::collections::BTreeMap;
use std::ops::Bound;

// ---------------------------------------------------------------------
// B+ tree vs model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        (any::<u16>(), any::<u32>()).prop_map(|(k, v)| TreeOp::Insert(k % 512, v)),
        any::<u16>().prop_map(|k| TreeOp::Remove(k % 512)),
        any::<u16>().prop_map(|k| TreeOp::Get(k % 512)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tree as a map `u16 -> u32`: the entry for `k -> v` is
    /// `[Int(k), Int(v)]`, one key value and one included value, at row
    /// id 0.
    #[test]
    fn btree_matches_std_btreemap(ops in proptest::collection::vec(tree_op(), 1..600), fanout in 4usize..32) {
        let int = |v: &Value| match v {
            Value::Int(i) => *i,
            other => panic!("not an Int: {other:?}"),
        };
        let key = |k: u16| [Value::Int(i64::from(k))];
        let mut tree = BTree::new(fanout, &[ValueType::Int; 2], 1);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let entry = [Value::Int(i64::from(k)), Value::Int(i64::from(v))];
                    let old = tree.insert(|j| &entry[j], RowId(0)).map(|e| int(&e[1]) as u32);
                    prop_assert_eq!(old, model.insert(k, v));
                }
                TreeOp::Remove(k) => {
                    prop_assert_eq!(tree.remove(&key(k), RowId(0)), model.remove(&k).is_some());
                }
                TreeOp::Get(k) => {
                    let got = tree.get(&key(k), RowId(0)).map(|e| int(&e[1]) as u32);
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        tree.check_invariants().map_err(TestCaseError::fail)?;
        let got: Vec<(u16, u32)> = tree.iter().map(|(e, _)| (int(&e[0]) as u16, int(&e[1]) as u32)).collect();
        let want: Vec<(u16, u32)> = model.into_iter().collect();
        prop_assert_eq!(got, want);
    }

    // -------------------------------------------------------------------
    // Value ordering is a lawful total order on a mixed population.
    // -------------------------------------------------------------------
    #[test]
    fn value_order_is_total_and_consistent(xs in proptest::collection::vec(value_strategy(), 3)) {
        let (a, b, c) = (&xs[0], &xs[1], &xs[2]);
        // Antisymmetry.
        if a <= b && b <= a {
            prop_assert!(a == b);
        }
        // Transitivity.
        if a <= b && b <= c {
            prop_assert!(a <= c);
        }
        // Eq consistent with Ord.
        prop_assert_eq!(a == b, a.cmp(b) == std::cmp::Ordering::Equal);
    }

    // -------------------------------------------------------------------
    // Histogram selectivities stay within [0, 1] and nest monotonically.
    // -------------------------------------------------------------------
    #[test]
    fn selectivities_bounded_and_monotone(
        vals in proptest::collection::vec(-1000i64..1000, 10..300),
        lo in -1200f64..1200.0,
        width in 0f64..500.0,
    ) {
        let mut heap = Heap::new(&[ValueType::Int], 8);
        for &v in &vals {
            heap.insert(vec![Value::Int(v)]);
        }
        let stats = TableStats::build_full(&heap);
        let cs = &stats.columns[0];
        let hi = lo + width;
        let sel = cs.range_selectivity(Some(lo), Some(hi));
        prop_assert!((0.0..=1.0).contains(&sel), "sel {sel}");
        // A wider range can never be less selective.
        let wider = cs.range_selectivity(Some(lo - 10.0), Some(hi + 10.0));
        prop_assert!(wider + 1e-9 >= sel, "wider {wider} < {sel}");
        for v in vals.iter().take(5) {
            let e = cs.eq_selectivity(&Value::Int(*v));
            prop_assert!((0.0..=1.0).contains(&e));
        }
    }

    // -------------------------------------------------------------------
    // Plan semantic equivalence: any chosen plan == brute force.
    // -------------------------------------------------------------------
    #[test]
    fn optimizer_never_changes_results(
        seed_rows in proptest::collection::vec((0i64..300, 0i64..20, 0i64..1000), 50..400),
        p1_col in 1u32..3,
        p1_val in 0i64..1000,
        p1_op in prop_oneof![Just(CmpOp::Eq), Just(CmpOp::Le), Just(CmpOp::Gt), Just(CmpOp::Ne)],
        with_index in any::<bool>(),
        index_covering in any::<bool>(),
    ) {
        let mut db = Database::new("prop", DbConfig {
            cpu_noise_sigma: 0.0,
            duration_noise_sigma: 0.0,
            ..DbConfig::default()
        }, SimClock::new());
        let t = db.create_table(TableDef::new(
            "t",
            vec![
                ColumnDef::new("id", ValueType::Int),
                ColumnDef::new("a", ValueType::Int),
                ColumnDef::new("b", ValueType::Int),
            ],
        )).unwrap();
        let rows: Vec<Row> = seed_rows
            .iter()
            .enumerate()
            .map(|(i, (_, a, b))| vec![Value::Int(i as i64), Value::Int(*a), Value::Int(*b)])
            .collect();
        db.load_rows(t, rows.clone());
        db.rebuild_stats(t);
        if with_index {
            let includes = if index_covering { vec![ColumnId(0)] } else { vec![] };
            db.create_index(IndexDef::new("pix", t, vec![ColumnId(p1_col)], includes)).unwrap();
        }
        let mut q = SelectQuery::new(t);
        q.predicates = vec![Predicate::cmp(ColumnId(p1_col), p1_op, p1_val)];
        q.projection = vec![ColumnId(0)];
        let tpl = QueryTemplate::new(Statement::Select(q), 0);
        let (_, out) = db.query(&tpl, &[]).unwrap();
        let mut got: Vec<i64> = out.iter().map(|r| r[0].as_f64() as i64).collect();
        got.sort_unstable();
        let mut want: Vec<i64> = rows
            .iter()
            .filter(|r| p1_op.eval(&r[p1_col as usize], &Value::Int(p1_val)))
            .map(|r| r[0].as_f64() as i64)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    // -------------------------------------------------------------------
    // Welch test antisymmetry + p-value bounds.
    // -------------------------------------------------------------------
    #[test]
    fn welch_is_antisymmetric(
        a in proptest::collection::vec(0f64..1000.0, 3..50),
        b in proptest::collection::vec(0f64..1000.0, 3..50),
    ) {
        use autoindex::stats::{welch_t_test, Sample};
        let sa = Sample::from_values(&a);
        let sb = Sample::from_values(&b);
        let (Some(ab), Some(ba)) = (welch_t_test(&sa, &sb), welch_t_test(&sb, &sa)) else {
            return Ok(());
        };
        prop_assert!((ab.t + ba.t).abs() < 1e-9);
        prop_assert!((0.0..=1.0).contains(&ab.p_two_sided));
        prop_assert!((ab.p_two_sided - ba.p_two_sided).abs() < 1e-9);
        prop_assert!((ab.p_b_greater + ba.p_b_greater - 1.0).abs() < 1e-9);
    }

    // -------------------------------------------------------------------
    // Recommendation state machine: arbitrary transition attempts never
    // corrupt the machine (either accepted-and-recorded or rejected).
    // -------------------------------------------------------------------
    #[test]
    fn state_machine_is_closed(targets in proptest::collection::vec(0u8..9, 1..40)) {
        use controlplane::{RecoId, RecoState, TrackedReco};
        use autoindex::{RecoAction, RecoSource, Recommendation};
        use sqlmini::clock::Timestamp;
        let all = [
            RecoState::Active, RecoState::Expired, RecoState::Implementing,
            RecoState::Validating, RecoState::Success, RecoState::Reverting,
            RecoState::Reverted, RecoState::Retry, RecoState::Error,
        ];
        let reco = Recommendation {
            action: RecoAction::CreateIndex {
                def: IndexDef::new("x", sqlmini::schema::TableId(0), vec![ColumnId(0)], vec![]),
            },
            source: RecoSource::MissingIndex,
            estimated_benefit: 1.0,
            estimated_improvement: 0.1,
            estimated_size_bytes: 1,
            impacted_queries: vec![],
            generated_at: Timestamp(0),
        };
        let mut r = TrackedReco::new(RecoId(0), "db", reco, Timestamp(0));
        let mut accepted = 0usize;
        for (i, tgt) in targets.iter().enumerate() {
            let to = all[*tgt as usize];
            let before = r.state;
            match r.transition(to, Timestamp(i as u64), "prop") {
                Ok(()) => {
                    accepted += 1;
                    prop_assert!(before.can_transition_to(to));
                    prop_assert_eq!(r.state, to);
                }
                Err(_) => {
                    prop_assert!(!before.can_transition_to(to));
                    prop_assert_eq!(r.state, before);
                }
            }
        }
        prop_assert_eq!(r.history.len(), accepted);
        // Terminal means terminal.
        if r.state.is_terminal() {
            for to in all {
                prop_assert!(!r.state.can_transition_to(to));
            }
        }
    }

    // -------------------------------------------------------------------
    // Index merging preserves candidate servability: the merged index
    // serves every candidate merged into it.
    // -------------------------------------------------------------------
    #[test]
    fn merging_preserves_servability(n in 2usize..12, key_seed in any::<u64>()) {
        use autoindex::merging::merge_candidates;
        use autoindex::IndexCandidate;
        let mut x = key_seed | 1;
        let cands: Vec<IndexCandidate> = (0..n).map(|i| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let keylen = 1 + (x % 3) as usize;
            IndexCandidate {
                table: sqlmini::schema::TableId((x % 2) as u32),
                key_columns: (0..keylen as u32).map(ColumnId).collect(),
                included_columns: vec![ColumnId(5 + (x % 3) as u32)],
                benefit: 10.0 + i as f64,
                avg_impact_pct: 50.0,
                demand: 5,
                impacted_queries: vec![],
            }
        }).collect();
        let merged = merge_candidates(cands.clone());
        prop_assert!(merged.len() <= cands.len());
        for c in &cands {
            let served = merged.iter().any(|m| c.served_by(&m.to_index_def()));
            prop_assert!(served, "candidate {c:?} lost by merging into {merged:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // -------------------------------------------------------------------
    // The SQL parser never panics, on garbage or on near-SQL.
    // -------------------------------------------------------------------
    #[test]
    fn parser_never_panics(input in "[ -~]{0,80}") {
        let mut catalog = sqlmini::catalog::Catalog::new();
        catalog
            .add_table(TableDef::new(
                "orders",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("total", ValueType::Float),
                ],
            ))
            .unwrap();
        let _ = sqlmini::parser::parse(&catalog, &input);
    }

    #[test]
    fn parser_never_panics_on_sqlish(
        col in prop_oneof![Just("id"), Just("total"), Just("bogus")],
        op in prop_oneof![Just("="), Just("<"), Just(">="), Just("<>"), Just("~")],
        val in -1000i64..1000,
        tail in "[ -~]{0,20}",
    ) {
        let mut catalog = sqlmini::catalog::Catalog::new();
        catalog
            .add_table(TableDef::new(
                "orders",
                vec![
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("total", ValueType::Float),
                ],
            ))
            .unwrap();
        let sql = format!("SELECT id FROM orders WHERE {col} {op} {val} {tail}");
        if let Ok(stmt) = sqlmini::parser::parse(&catalog, &sql) {
            // Anything that parses must be executable against an engine.
            let mut db = Database::new("p", DbConfig::default(), SimClock::new());
            let t = db
                .create_table(TableDef::new(
                    "orders",
                    vec![
                        ColumnDef::new("id", ValueType::Int),
                        ColumnDef::new("total", ValueType::Float),
                    ],
                ))
                .unwrap();
            db.load_rows(t, (0..50i64).map(|i| vec![Value::Int(i), Value::Float(i as f64)]));
            db.rebuild_stats(t);
            let tpl = QueryTemplate::new(stmt, 0);
            let _ = db.execute(&tpl, &[]);
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        "[a-z]{0,6}".prop_map(|s| Value::Str(s.into())),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Date),
    ]
}

// ---------------------------------------------------------------------
// Fleet driver: parallel == serial, whatever the shape of the fleet
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The fleet driver's determinism contract, as a property: for an
    /// arbitrary small fleet, tick count, and worker count, the
    /// parallel run's end-of-run state — per-tenant index sets,
    /// validation verdicts, recommendation states, and the merged
    /// telemetry aggregates — is byte-identical to the serial run.
    #[test]
    fn fleet_parallel_replays_serial(
        n_tenants in 1usize..=6,
        ticks in 1u32..=6,
        threads in 1usize..=4,
        seed in any::<u16>(),
    ) {
        use controlplane::{FleetDriver, FleetDriverConfig, PlanePolicy};
        use workload::fleet::{generate_fleet, TierMix};

        let fleet = |s: u64| generate_fleet(
            n_tenants,
            TierMix { basic: 0.85, standard: 0.15, premium: 0.0 },
            s,
        );
        let driver = FleetDriver::new(FleetDriverConfig {
            policy: PlanePolicy {
                analysis_interval: sqlmini::clock::Duration::from_hours(2),
                validation_min_wait: sqlmini::clock::Duration::from_hours(1),
                ..PlanePolicy::default()
            },
            fault_seed: Some(seed as u64 ^ 0xDECAF),
            fault_transient_prob: 0.1,
            fault_fatal_prob: 0.01,
            ..FleetDriverConfig::default()
        });
        let serial = driver.run(fleet(seed as u64), ticks, 1);
        let parallel = driver.run(fleet(seed as u64), ticks, threads);
        prop_assert_eq!(serial.canonical_string(), parallel.canonical_string());
        prop_assert_eq!(&serial.by_state, &parallel.by_state);
        prop_assert_eq!(serial.statements, parallel.statements);
        prop_assert_eq!(serial.telemetry.counters(), parallel.telemetry.counters());
    }
}

// ---------------------------------------------------------------------
// The typed B+ tree vs a map of values
// ---------------------------------------------------------------------

/// A column of each kind: its type and the values it draws beside NULL.
/// `Int` (with the ends of `i64` and ints past 2^53), `Float` (`-0.0`
/// beside `0.0`, and floats past 2^53), `Str` (empty, a zero byte, shared
/// prefixes), `Date`, `Bool`, and a `Date` column that holds nothing but
/// NULL.
fn tree_kind(kind: usize) -> (ValueType, Vec<Value>) {
    let s = |t: &str| Value::Str(t.into());
    let big = 1i64 << 53;
    match kind {
        0 => (
            ValueType::Int,
            [-3, 0, 2, big, big + 1, big + 2, i64::MAX, i64::MIN]
                .map(Value::Int)
                .to_vec(),
        ),
        1 => (
            ValueType::Float,
            [-0.0, 0.0, 3.0, 2.5, -1e300, big as f64, (big + 2) as f64]
                .map(Value::Float)
                .to_vec(),
        ),
        2 => (
            ValueType::Str,
            vec![
                s(""),
                s("a"),
                s("a\0"),
                s("ab"),
                s("prefix__a"),
                s("prefix__b"),
            ],
        ),
        3 => (ValueType::Date, [-1, 0, 19_000].map(Value::Date).to_vec()),
        4 => (ValueType::Bool, [false, true].map(Value::Bool).to_vec()),
        _ => (ValueType::Date, vec![]),
    }
}

/// `a` and `b` are one value: the same variant and, for a float, the same
/// bits (`-0.0` is not `0.0`) — stricter than `Value`'s equality.
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

fn same_entries(a: &[(Vec<Value>, RowId)], b: &[(Vec<Value>, RowId)]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.1 == y.1
                && x.0.len() == y.0.len()
                && x.0.iter().zip(&y.0).all(|(v, w)| same_value(v, w))
        })
}

/// The random columns both properties below draw: `width` kinds of
/// [`tree_kind`] from `salt`, and a value of column `j` from a draw `r`:
/// NULL one time in seven (always, for the all-NULL kind), else one of the
/// column's values.
struct Kinds {
    pools: Vec<(ValueType, Vec<Value>)>,
}

impl Kinds {
    fn new(width: usize, salt: u64) -> Kinds {
        let kind = |j: usize| (salt >> (16 + 4 * j)) as usize % 6;
        Kinds {
            pools: (0..width).map(|j| tree_kind(kind(j))).collect(),
        }
    }

    fn types(&self) -> Vec<ValueType> {
        self.pools.iter().map(|(ty, _)| *ty).collect()
    }

    fn value(&self, j: usize, r: u64) -> Value {
        let pool = &self.pools[j].1;
        if r.is_multiple_of(7) || pool.is_empty() {
            return Value::Null;
        }
        pool[(r >> 16) as usize % pool.len()].clone()
    }
}

/// The typed tree against a `BTreeMap<(key values, row id), entry>`
/// model over random inserts (replacing entries whose key compares
/// equal), removes, gets and ranges, with key and included columns of
/// every type and NULLs among them. Every value read back is checked for
/// its variant and float bits, and `check_invariants` runs after every
/// step. Two trees take each step: one bulk-built (`from_columns`) and one
/// built by inserts.
///
/// Salted with `CHAOS_SEED`, so CI's chaos matrix draws different cases
/// per seed.
#[test]
fn typed_btree_matches_value_model() {
    let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
    proptest::run_prop_test(
        &format!("typed_btree_matches_value_model/{seed}"),
        &ProptestConfig::with_cases(96),
        (8usize..=24, 1usize..=6, 0usize..400, any::<u64>()),
        |(fanout, width, ops, salt)| {
            let mut x = salt | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let key_len = 1 + (salt >> 8) as usize % width.min(3);
            let kinds = Kinds::new(width, salt);
            let types = kinds.types();
            let rid_of = |r: u64| RowId((r >> 40) % 12);
            type Model = BTreeMap<(Vec<Value>, RowId), Vec<Value>>;
            let mut model: Model = BTreeMap::new();

            // The first entries, bulk-built and inserted.
            let first = 2 * fanout + (next() % 100) as usize;
            for _ in 0..first {
                let entry: Vec<Value> = (0..width).map(|j| kinds.value(j, next())).collect();
                let rid = rid_of(next());
                model.insert((entry[..key_len].to_vec(), rid), entry);
            }
            let mut columns: Vec<Column> = types.iter().map(|&ty| Column::of_type(ty, 0)).collect();
            for e in model.values() {
                columns
                    .iter_mut()
                    .zip(e)
                    .for_each(|(c, v)| c.push(v.clone()));
            }
            let sources: Vec<&Column> = columns.iter().collect();
            let rids: Vec<RowId> = model.keys().map(|(_, rid)| *rid).collect();
            let order: Vec<u32> = (0..rids.len() as u32).collect();
            let bulk = BTree::from_columns(fanout, 0.69, key_len, &sources, &order, |i| {
                rids[i as usize]
            });
            let mut inserted = BTree::new(fanout, &types, key_len);
            for ((_, rid), e) in &model {
                inserted.insert(|j| &e[j], *rid);
            }
            let mut trees = vec![bulk, inserted];

            let listed = |model: &Model| -> Vec<(Vec<Value>, RowId)> {
                model
                    .iter()
                    .map(|((_, rid), e)| (e.clone(), *rid))
                    .collect()
            };
            for step in 0..ops {
                let r = next();
                let entry: Vec<Value> = (0..width).map(|j| kinds.value(j, next())).collect();
                let rid = rid_of(r);
                let key = entry[..key_len].to_vec();
                match r % 6 {
                    0..=2 => {
                        let want = model.insert((key, rid), entry.clone());
                        for t in &mut trees {
                            let got = t.insert(|j| &entry[j], rid);
                            let agree = match (&got, &want) {
                                (None, None) => true,
                                (Some(g), Some(w)) => {
                                    same_entries(&[(g.clone(), rid)], &[(w.clone(), rid)])
                                }
                                _ => false,
                            };
                            prop_assert!(agree, "insert at step {step}: {got:?} != {want:?}");
                        }
                    }
                    3 => {
                        let want = model.remove(&(key.clone(), rid)).is_some();
                        for t in &mut trees {
                            prop_assert!(t.remove(&key, rid) == want, "remove at step {step}");
                        }
                    }
                    4 => {
                        let want = model.get(&(key.clone(), rid));
                        for t in &trees {
                            let got = t.get(&key, rid);
                            let agree = match (&got, want) {
                                (None, None) => true,
                                (Some(g), Some(w)) => {
                                    same_entries(&[(g.clone(), rid)], &[((*w).clone(), rid)])
                                }
                                _ => false,
                            };
                            prop_assert!(agree, "get at step {step}");
                        }
                    }
                    _ => {
                        // A range between two prefixes of drawn keys, each
                        // end included, excluded or open. At any place of
                        // either prefix, a float past 2^53 or a NaN, which
                        // equals more than one stored number: the entries
                        // equal to it are in no order in the later columns
                        // or the row id, so what the range holds is every
                        // entry within both bounds, wherever it lies.
                        let bound_key = |r: u64| -> (Vec<Value>, RowId) {
                            let n = 1 + (r >> 4) as usize % key_len;
                            let vals = (0..n).map(|j| match (r >> (20 + 3 * j)) % 6 {
                                0 => Value::Float(((1i64 << 53) + 1) as f64),
                                1 => Value::Float(f64::NAN),
                                _ => kinds.value(j, r.rotate_left(7 * j as u32 + 3)),
                            });
                            (vals.collect(), rid_of(r))
                        };
                        let (a, b) = (bound_key(next()), bound_key(next()));
                        let (ra, rb) = (next() % 3, next() % 3);
                        fn bound(k: &(Vec<Value>, RowId), how: u64) -> Bound<(&[Value], RowId)> {
                            match how {
                                0 => Bound::Included((&k.0[..], k.1)),
                                1 => Bound::Excluded((&k.0[..], k.1)),
                                _ => Bound::Unbounded,
                            }
                        }
                        let (lo, hi) = (bound(&a, ra), bound(&b, rb));
                        let cmp = |k: &(Vec<Value>, RowId), (v, rid): (&[Value], RowId)| {
                            k.0.as_slice().cmp(v).then(k.1.cmp(&rid))
                        };
                        let want: Vec<(Vec<Value>, RowId)> = model
                            .iter()
                            .filter(|(k, _)| match lo {
                                Bound::Included(b) => cmp(k, b).is_ge(),
                                Bound::Excluded(b) => cmp(k, b).is_gt(),
                                Bound::Unbounded => true,
                            })
                            .filter(|(k, _)| match hi {
                                Bound::Included(b) => cmp(k, b).is_le(),
                                Bound::Excluded(b) => cmp(k, b).is_lt(),
                                Bound::Unbounded => true,
                            })
                            .map(|((_, rid), e)| (e.clone(), *rid))
                            .collect();
                        for t in &trees {
                            let got: Vec<_> = t.range(lo, hi).collect();
                            prop_assert!(
                                same_entries(&got, &want),
                                "range {lo:?}..{hi:?} at step {step}"
                            );
                        }
                    }
                }
                for t in &trees {
                    t.check_invariants()
                        .map_err(|e| TestCaseError::fail(format!("step {step}: {e}")))?;
                    prop_assert_eq!(t.len(), model.len());
                }
            }
            for t in &trees {
                prop_assert!(
                    same_entries(&t.iter().collect::<Vec<_>>(), &listed(&model)),
                    "final listing"
                );
            }
            Ok(())
        },
    );
}

/// `SecondaryIndex::seek_visit` and `scan_visit` — the descent, the walk
/// and the seek's stop checks the executor runs — against a filter over
/// the rows: an equality prefix, then a range on the next key column,
/// each end included, excluded or open. Leaf columns are of every kind
/// `tree_kind` draws, half the rows bulk-built and half inserted. Every
/// entry handed on is checked for its row id and the variant and bits of
/// every value, and the count of entries visited for the number that
/// qualify.
///
/// A float past 2^53 or a NaN, which equals more than one stored number,
/// is drawn as any equality value and as either range bound: under an
/// equality value equal to several stored values the entries are in no
/// order in the later columns, and the seek must still find every entry
/// that qualifies, and nothing else.
///
/// Salted with `CHAOS_SEED`, so CI's chaos matrix draws different cases
/// per seed.
#[test]
fn index_seeks_match_a_filter_over_the_rows() {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
    // Cases whose index had more than one leaf.
    let deep = AtomicUsize::new(0);
    let seed = std::env::var("CHAOS_SEED").unwrap_or_default();
    proptest::run_prop_test(
        &format!("index_seeks_match_a_filter_over_the_rows/{seed}"),
        &ProptestConfig::with_cases(32),
        (1usize..=6, 200usize..2500, any::<u64>()),
        |(width, rows, salt)| {
            let mut x = salt | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let key_len = 1 + (salt >> 8) as usize % width.min(3);
            let kinds = Kinds::new(width, salt);
            let columns = (kinds.types().into_iter().enumerate())
                .map(|(j, ty)| ColumnDef::new(format!("c{j}"), ty))
                .collect();
            let table = TableDef::new("t", columns);
            let def = IndexDef::new(
                "ix",
                TableId(0),
                (0..key_len as u32).map(ColumnId).collect(),
                (key_len as u32..width as u32).map(ColumnId).collect(),
            );
            let mut heap = Heap::new(&table.types(), table.avg_row_width());
            let mut index = SecondaryIndex::new(def, &table);
            let mut all: Vec<(Row, RowId)> = Vec::with_capacity(rows);
            for i in 0..rows {
                if i == rows / 2 {
                    index.build(&heap);
                }
                let row: Row = (0..width).map(|j| kinds.value(j, next())).collect();
                let rid = heap.insert(row.clone());
                if i >= rows / 2 {
                    index.insert_row(rid, &row);
                }
                all.push((row, rid));
            }
            index
                .check_invariants()
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(index.len(), rows);
            // The entries' order: key values, then row id.
            all.sort_by(|a, b| a.0[..key_len].cmp(&b.0[..key_len]).then(a.1.cmp(&b.1)));

            let listed = |e: &Entries| -> Vec<(RowId, Vec<Value>)> {
                let values = |i| (0..width).map(|j| e.value(i, j)).collect();
                e.positions().map(|i| (e.rid(i), values(i))).collect()
            };
            let agree = |found: &[(RowId, Vec<Value>)], want: &[&(Row, RowId)]| {
                found.len() == want.len()
                    && found
                        .iter()
                        .zip(want)
                        .all(|((rid, vals), (row, want_rid))| {
                            rid == want_rid && vals.iter().zip(row).all(|(v, w)| same_value(v, w))
                        })
            };
            let mut found = Vec::new();
            let (visited, _) = index.scan_visit(|e| found.extend(listed(&e)));
            let want: Vec<&(Row, RowId)> = all.iter().collect();
            prop_assert!(agree(&found, &want), "scan");
            prop_assert_eq!(visited, rows as u64);

            for seek in 0..60 {
                let r = next();
                let p = r as usize % (key_len + 1);
                let ranged = p < key_len && (r >> 8) % 3 != 0;
                let draw = |j: usize, r: u64| match (r >> 4) % 8 {
                    0 => Value::Float(((1i64 << 53) + 1) as f64),
                    1 => Value::Float(f64::NAN),
                    _ => kinds.value(j, r >> 8),
                };
                let eq: Vec<Value> = (0..p).map(|j| draw(j, next())).collect();
                let bound = |how: u64, v: Value| match how % 3 {
                    0 => ColBound::Included(v),
                    1 => ColBound::Excluded(v),
                    _ => ColBound::Unbounded,
                };
                let (lo, hi) = if ranged {
                    let lo = bound(next(), draw(p, next()));
                    (lo, bound(next(), draw(p, next())))
                } else {
                    (ColBound::Unbounded, ColBound::Unbounded)
                };
                let holds = |v: &Value, b: &ColBound, lower: bool| match b {
                    ColBound::Unbounded => true,
                    ColBound::Included(x) if lower => v >= x,
                    ColBound::Excluded(x) if lower => v > x,
                    ColBound::Included(x) => v <= x,
                    ColBound::Excluded(x) => v < x,
                };
                let want: Vec<&(Row, RowId)> = (all.iter())
                    .filter(|(row, _)| {
                        row[..p] == eq[..]
                            && (p == key_len
                                || holds(&row[p], &lo, true) && holds(&row[p], &hi, false))
                    })
                    .collect();
                let mut found = Vec::new();
                let (visited, pages) =
                    index.seek_visit(&eq, lo.clone(), hi.clone(), |e| found.extend(listed(&e)));
                prop_assert!(
                    agree(&found, &want),
                    "seek {seek}: {eq:?} then {lo:?}..{hi:?}: {} found, {} qualify",
                    found.len(),
                    want.len()
                );
                prop_assert_eq!(visited, want.len() as u64);
                prop_assert!(pages >= index.height() as u64);
            }
            if index.height() > 1 {
                deep.fetch_add(1, Relaxed);
            }
            Ok(())
        },
    );
    let deep = deep.into_inner();
    assert!(deep >= 16, "{deep} indexes deeper than a leaf");
}
