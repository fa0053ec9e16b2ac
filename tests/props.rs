//! Property-based tests on the core invariants, spanning crates.
//!
//! The heavyweight property is *plan semantic equivalence*: whatever
//! access path the optimizer picks for a random query over random data
//! and random indexes, the executor must return exactly the rows a
//! brute-force scan returns. Index tuning is only safe because index
//! choice never changes results.

use proptest::prelude::*;
use sqlmini::btree::BTree;
use sqlmini::clock::SimClock;
use sqlmini::engine::{Database, DbConfig};
use sqlmini::heap::RowId;
use sqlmini::query::{CmpOp, Predicate, QueryTemplate, SelectQuery, Statement};
use sqlmini::schema::{ColumnDef, ColumnId, IndexDef, TableDef};
use sqlmini::stats::TableStats;
use sqlmini::types::{Row, Value, ValueType};
use std::collections::BTreeMap;

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
        let mut tree = BTree::new(fanout, 2, 1);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        for op in ops {
            match op {
                TreeOp::Insert(k, v) => {
                    let entry = vec![Value::Int(i64::from(k)), Value::Int(i64::from(v))];
                    let old = tree.insert(entry, RowId(0)).map(|e| int(&e[1]) as u32);
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
        let rows: Vec<Row> = vals.iter().map(|&v| vec![Value::Int(v)]).collect();
        let stats = TableStats::build_full(rows.iter(), 1);
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
