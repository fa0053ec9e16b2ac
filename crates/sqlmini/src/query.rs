//! Logical query representation.
//!
//! Queries are structured ASTs: a conjunctive predicate list over a primary
//! table, an optional equi-join, grouping/aggregation, ordering, and a
//! projection. This is deliberately the fragment that index tuning reasons
//! about — sargable predicates, join keys, group-by and order-by columns
//! (the candidate sources DTA's candidate selection considers, per §5.1.1).
//!
//! A [`QueryTemplate`] is a query with parameter placeholders plus the
//! metadata Query Store needs (fingerprint, text). Executions bind
//! parameters to concrete values.

use crate::schema::{ColumnId, TableId};
use crate::types::{Row, Value};
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Comparison operators supported in predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether a B+ tree seek can use this operator (everything but `!=`).
    pub fn sargable(self) -> bool {
        !matches!(self, CmpOp::Ne)
    }

    /// Whether this is an equality operator.
    pub fn is_equality(self) -> bool {
        matches!(self, CmpOp::Eq)
    }

    pub fn eval(self, lhs: &Value, rhs: &Value) -> bool {
        let ord = match (lhs, rhs) {
            // Nearly every predicate the executor evaluates compares two
            // integers: skip `Value::cmp`'s dispatch over the pair.
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            // SQL three-valued logic collapsed: NULL comparisons are false
            // except NULL = NULL which we treat as true for simplicity of
            // the simulator (IS NULL semantics).
            _ if lhs.is_null() || rhs.is_null() => {
                return self == CmpOp::Eq && lhs.is_null() && rhs.is_null();
            }
            _ => lhs.cmp(rhs),
        };
        match self {
            CmpOp::Eq => ord == std::cmp::Ordering::Equal,
            CmpOp::Ne => ord != std::cmp::Ordering::Equal,
            CmpOp::Lt => ord == std::cmp::Ordering::Less,
            CmpOp::Le => ord != std::cmp::Ordering::Greater,
            CmpOp::Gt => ord == std::cmp::Ordering::Greater,
            CmpOp::Ge => ord != std::cmp::Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar operand: a literal or a parameter placeholder.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Scalar {
    Lit(Value),
    Param(u16),
}

impl Scalar {
    /// Resolve against a parameter binding.
    pub fn resolve<'a>(&'a self, params: &'a [Value]) -> &'a Value {
        match self {
            Scalar::Lit(v) => v,
            Scalar::Param(i) => params.get(*i as usize).unwrap_or(&Value::Null),
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::Lit(v) => write!(f, "{v}"),
            Scalar::Param(i) => write!(f, "@p{i}"),
        }
    }
}

/// A simple sargable predicate: `column op scalar`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Predicate {
    pub column: ColumnId,
    pub op: CmpOp,
    pub value: Scalar,
}

impl Predicate {
    pub fn eq(column: ColumnId, value: impl Into<Value>) -> Predicate {
        Predicate {
            column,
            op: CmpOp::Eq,
            value: Scalar::Lit(value.into()),
        }
    }

    pub fn cmp(column: ColumnId, op: CmpOp, value: impl Into<Value>) -> Predicate {
        Predicate {
            column,
            op,
            value: Scalar::Lit(value.into()),
        }
    }

    pub fn param(column: ColumnId, op: CmpOp, idx: u16) -> Predicate {
        Predicate {
            column,
            op,
            value: Scalar::Param(idx),
        }
    }

    pub fn matches(&self, row: &Row, params: &[Value]) -> bool {
        self.op
            .eval(&row[self.column.0 as usize], self.value.resolve(params))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.column, self.op, self.value)
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// An inner equi-join from the primary table to a second table.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct JoinSpec {
    pub table: TableId,
    /// Join key on the primary (outer) table.
    pub outer_col: ColumnId,
    /// Join key on this (inner) table.
    pub inner_col: ColumnId,
    /// Conjunctive predicates on the inner table.
    pub predicates: Vec<Predicate>,
    /// Columns projected from the inner table.
    pub projection: Vec<ColumnId>,
}

/// Ordering specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct OrderKey {
    pub column: ColumnId,
    pub asc: bool,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SelectQuery {
    pub table: TableId,
    pub predicates: Vec<Predicate>,
    pub projection: Vec<ColumnId>,
    pub join: Option<JoinSpec>,
    pub group_by: Vec<ColumnId>,
    pub aggregates: Vec<(AggFunc, ColumnId)>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    /// Index hint: force the named index (paper §5.4 — hinted indexes must
    /// never be auto-dropped; dropping one breaks the query).
    pub index_hint: Option<String>,
}

impl SelectQuery {
    pub fn new(table: TableId) -> SelectQuery {
        SelectQuery {
            table,
            predicates: Vec::new(),
            projection: Vec::new(),
            join: None,
            group_by: Vec::new(),
            aggregates: Vec::new(),
            order_by: Vec::new(),
            limit: None,
            index_hint: None,
        }
    }

    /// All columns of the primary table the query must be able to produce
    /// or evaluate (projection + predicates + join key + group/order/aggs).
    pub fn needed_columns(&self) -> Vec<ColumnId> {
        let mut cols: Vec<ColumnId> = self.projection.clone();
        cols.extend(self.predicates.iter().map(|p| p.column));
        if let Some(j) = &self.join {
            cols.push(j.outer_col);
        }
        cols.extend(self.group_by.iter().copied());
        cols.extend(self.aggregates.iter().map(|(_, c)| *c));
        cols.extend(self.order_by.iter().map(|o| o.column));
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

/// A statement: the unit Query Store tracks and the tuner analyzes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Statement {
    Select(SelectQuery),
    /// Insert one row (values may contain parameters).
    Insert {
        table: TableId,
        values: Vec<Scalar>,
    },
    /// Bulk-load many rows. SQL Server's BULK INSERT cannot be costed by
    /// the what-if API; DTA rewrites it to an equivalent INSERT (§5.3.2).
    BulkInsert {
        table: TableId,
        values: Vec<Scalar>,
        rows: u32,
    },
    Update {
        table: TableId,
        predicates: Vec<Predicate>,
        set: Vec<(ColumnId, Scalar)>,
    },
    Delete {
        table: TableId,
        predicates: Vec<Predicate>,
    },
}

impl Statement {
    pub fn table(&self) -> TableId {
        match self {
            Statement::Select(q) => q.table,
            Statement::Insert { table, .. }
            | Statement::BulkInsert { table, .. }
            | Statement::Update { table, .. }
            | Statement::Delete { table, .. } => *table,
        }
    }

    pub fn is_select(&self) -> bool {
        matches!(self, Statement::Select(_))
    }

    pub fn is_write(&self) -> bool {
        !self.is_select()
    }

    /// Every table whose physical configuration can influence this
    /// statement's plan or cost: the primary table plus, for joins, the
    /// inner table. Sorted and deduplicated, so the result is a stable
    /// part of a what-if cache key — an index on any *other* table can
    /// never change this statement's optimizer estimate.
    pub fn tables_touched(&self) -> Vec<TableId> {
        let mut out = vec![self.table()];
        if let Statement::Select(q) = self {
            if let Some(j) = &q.join {
                out.push(j.table);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Predicates usable for index qualification (none for inserts).
    pub fn predicates(&self) -> &[Predicate] {
        match self {
            Statement::Select(q) => &q.predicates,
            Statement::Update { predicates, .. } | Statement::Delete { predicates, .. } => {
                predicates
            }
            Statement::Insert { .. } | Statement::BulkInsert { .. } => &[],
        }
    }
}

/// Stable identifier of a query template (Query Store's query_id).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub struct QueryId(pub u64);

impl fmt::Display for QueryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{:x}", self.0)
    }
}

/// How completely the statement's text was captured — Query Store text can
/// be a fragment of a larger batch that the what-if API cannot optimize
/// (§5.3.2's central workload-acquisition challenge).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize, Default,
)]
pub enum TextFidelity {
    /// Full statement text available.
    #[default]
    Complete,
    /// Fragment of a batch; full definition recoverable from the plan cache.
    FragmentInPlanCache,
    /// Part of a stored procedure; recoverable from module metadata.
    FragmentInMetadata,
    /// Irrecoverably incomplete; cannot be what-if costed.
    Incomplete,
}

/// A parameterized statement template.
#[derive(Debug, Clone)]
pub struct QueryTemplate {
    pub statement: Statement,
    /// Number of parameters the template takes.
    pub n_params: u16,
    /// Fidelity of the captured text (drives DTA's ability to cost it).
    pub fidelity: TextFidelity,
    /// Memoized [`query_id`](Self::query_id). Deriving the id Debug-formats
    /// the whole statement, which is far too expensive to repeat on every
    /// execution; the fields above are only mutated through constructors,
    /// so the cached value can never go stale.
    cached_id: std::cell::OnceCell<QueryId>,
}

impl PartialEq for QueryTemplate {
    fn eq(&self, other: &QueryTemplate) -> bool {
        self.statement == other.statement
            && self.n_params == other.n_params
            && self.fidelity == other.fidelity
    }
}

// Hand-written (de)serialization: the memo cell is an implementation
// detail and must not appear on the wire, so the serialized shape is
// exactly the three semantic fields the derive used to emit.
impl serde::Serialize for QueryTemplate {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("statement".into(), self.statement.to_value()),
            ("n_params".into(), self.n_params.to_value()),
            ("fidelity".into(), self.fidelity.to_value()),
        ])
    }
}

impl serde::Deserialize for QueryTemplate {
    fn from_value(v: &serde::Value) -> Result<QueryTemplate, serde::Error> {
        let field = |k: &str| {
            v.get(k)
                .ok_or_else(|| serde::Error::msg(format!("QueryTemplate missing field {k}")))
        };
        Ok(QueryTemplate {
            statement: serde::Deserialize::from_value(field("statement")?)?,
            n_params: serde::Deserialize::from_value(field("n_params")?)?,
            fidelity: serde::Deserialize::from_value(field("fidelity")?)?,
            cached_id: std::cell::OnceCell::new(),
        })
    }
}

impl QueryTemplate {
    pub fn new(statement: Statement, n_params: u16) -> QueryTemplate {
        QueryTemplate {
            statement,
            n_params,
            fidelity: TextFidelity::Complete,
            cached_id: std::cell::OnceCell::new(),
        }
    }

    pub fn with_fidelity(mut self, f: TextFidelity) -> QueryTemplate {
        self.fidelity = f;
        self.cached_id = std::cell::OnceCell::new();
        self
    }

    /// Stable fingerprint of the template's structure.
    pub fn query_id(&self) -> QueryId {
        *self.cached_id.get_or_init(|| {
            let mut h = DefaultHasher::new();
            // Hash the serialized structure; serde_json is not a dependency
            // of this crate, so hash a debug rendering (stable within a
            // build, and templates are compared only within one simulation).
            format!("{:?}|{}|{:?}", self.statement, self.n_params, self.fidelity).hash(&mut h);
            QueryId(h.finish())
        })
    }

    /// Whether the tuner's what-if path can cost this statement. BULK
    /// INSERT is uncostable pre-rewrite; incomplete fragments always are.
    pub fn costable(&self) -> bool {
        !matches!(self.fidelity, TextFidelity::Incomplete)
            && !matches!(self.statement, Statement::BulkInsert { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_eval_matrix() {
        let a = Value::Int(3);
        let b = Value::Int(5);
        assert!(CmpOp::Lt.eval(&a, &b));
        assert!(CmpOp::Le.eval(&a, &a));
        assert!(CmpOp::Ne.eval(&a, &b));
        assert!(!CmpOp::Eq.eval(&a, &b));
        assert!(CmpOp::Gt.eval(&b, &a));
        assert!(CmpOp::Ge.eval(&b, &b));
    }

    /// `eval` answers from `Value`'s order, whatever shortcut it takes for
    /// a pair of operands: each operator holds exactly on the orderings it
    /// names, and a NULL operand makes every comparison false but
    /// NULL = NULL.
    #[test]
    fn eval_agrees_with_value_order_on_every_operand_pair() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        let operands = [
            Value::Int(-4),
            Value::Int(3),
            Value::Int(i64::MAX),
            Value::Float(-4.0),
            Value::Float(2.5),
            Value::Float(3.0),
            Value::Null,
            Value::Str("a".into()),
            Value::Str("b".into()),
        ];
        let holds_on = |op: CmpOp| match op {
            CmpOp::Eq => vec![Equal],
            CmpOp::Ne => vec![Less, Greater],
            CmpOp::Lt => vec![Less],
            CmpOp::Le => vec![Less, Equal],
            CmpOp::Gt => vec![Greater],
            CmpOp::Ge => vec![Equal, Greater],
        };
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for lhs in &operands {
            for rhs in &operands {
                for op in ops {
                    let want = if lhs.is_null() || rhs.is_null() {
                        op == CmpOp::Eq && lhs.is_null() && rhs.is_null()
                    } else {
                        holds_on(op).contains(&lhs.cmp(rhs))
                    };
                    assert_eq!(op.eval(lhs, rhs), want, "{lhs:?} {op} {rhs:?}");
                }
            }
        }
        assert!(CmpOp::Eq.eval(&Value::Int(3), &Value::Float(3.0)));
        assert!(CmpOp::Eq.eval(&Value::Float(3.0), &Value::Int(3)));
    }

    #[test]
    fn null_comparisons() {
        assert!(CmpOp::Eq.eval(&Value::Null, &Value::Null));
        assert!(!CmpOp::Eq.eval(&Value::Null, &Value::Int(1)));
        assert!(!CmpOp::Lt.eval(&Value::Null, &Value::Int(1)));
    }

    #[test]
    fn predicate_param_resolution() {
        let p = Predicate::param(ColumnId(0), CmpOp::Eq, 0);
        let row = vec![Value::Int(7)];
        assert!(p.matches(&row, &[Value::Int(7)]));
        assert!(!p.matches(&row, &[Value::Int(8)]));
        // Missing params resolve to NULL.
        assert!(!p.matches(&row, &[]));
    }

    #[test]
    fn needed_columns_dedup_and_sorted() {
        let mut q = SelectQuery::new(TableId(0));
        q.projection = vec![ColumnId(3), ColumnId(1)];
        q.predicates = vec![Predicate::eq(ColumnId(1), 5i64)];
        q.order_by = vec![OrderKey {
            column: ColumnId(2),
            asc: true,
        }];
        assert_eq!(
            q.needed_columns(),
            vec![ColumnId(1), ColumnId(2), ColumnId(3)]
        );
    }

    #[test]
    fn query_id_stability_and_sensitivity() {
        let t1 = QueryTemplate::new(Statement::Select(SelectQuery::new(TableId(0))), 0);
        let t2 = QueryTemplate::new(Statement::Select(SelectQuery::new(TableId(0))), 0);
        assert_eq!(t1.query_id(), t2.query_id());
        let t3 = QueryTemplate::new(Statement::Select(SelectQuery::new(TableId(1))), 0);
        assert_ne!(t1.query_id(), t3.query_id());
    }

    #[test]
    fn costability() {
        let sel = QueryTemplate::new(Statement::Select(SelectQuery::new(TableId(0))), 0);
        assert!(sel.costable());
        let bulk = QueryTemplate::new(
            Statement::BulkInsert {
                table: TableId(0),
                values: vec![],
                rows: 100,
            },
            0,
        );
        assert!(!bulk.costable());
        let frag = sel.clone().with_fidelity(TextFidelity::Incomplete);
        assert!(!frag.costable());
        let in_cache = sel.with_fidelity(TextFidelity::FragmentInPlanCache);
        assert!(in_cache.costable());
    }

    #[test]
    fn tables_touched_primary_and_join() {
        let mut q = SelectQuery::new(TableId(3));
        assert_eq!(
            Statement::Select(q.clone()).tables_touched(),
            vec![TableId(3)]
        );
        q.join = Some(JoinSpec {
            table: TableId(1),
            outer_col: ColumnId(0),
            inner_col: ColumnId(0),
            predicates: vec![],
            projection: vec![],
        });
        assert_eq!(
            Statement::Select(q.clone()).tables_touched(),
            vec![TableId(1), TableId(3)],
            "sorted primary + join inner table"
        );
        // Self-join collapses to one entry.
        q.join.as_mut().unwrap().table = TableId(3);
        assert_eq!(Statement::Select(q).tables_touched(), vec![TableId(3)]);
        let del = Statement::Delete {
            table: TableId(9),
            predicates: vec![],
        };
        assert_eq!(del.tables_touched(), vec![TableId(9)]);
    }

    #[test]
    fn statement_write_classification() {
        assert!(Statement::Select(SelectQuery::new(TableId(0))).is_select());
        assert!(Statement::Delete {
            table: TableId(0),
            predicates: vec![]
        }
        .is_write());
    }

    #[test]
    fn sargability() {
        assert!(CmpOp::Eq.sargable());
        assert!(CmpOp::Le.sargable());
        assert!(!CmpOp::Ne.sargable());
    }
}
