//! Physical plan representation.
//!
//! Plans are produced by `crate::optimizer` and interpreted by
//! [`crate::exec`]. A plan records which index (if any) each table access
//! uses, which predicates are satisfied by the seek versus evaluated as
//! residuals, the join strategy, and whether sorting/aggregation can ride
//! on index order. Plans carry the optimizer's estimates so Query Store can
//! expose estimated-vs-actual discrepancies.

use crate::query::{CmpOp, Scalar};
use crate::schema::IndexId;
use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Stable identifier of a plan's structure (Query Store's plan_id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanId(pub(crate) u64);

impl fmt::Display for PlanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:x}", self.0)
    }
}

/// Reference to an index from a plan. What-if plans may reference
/// hypothetical indexes (which cannot be executed); executable plans only
/// reference real ones.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum IndexRef {
    Real { id: IndexId, name: String },
    Hypothetical { name: String },
}

impl IndexRef {
    pub fn name(&self) -> &str {
        match self {
            IndexRef::Real { name, .. } | IndexRef::Hypothetical { name } => name,
        }
    }

    pub(crate) fn real_id(&self) -> Option<IndexId> {
        match self {
            IndexRef::Real { id, .. } => Some(*id),
            IndexRef::Hypothetical { .. } => None,
        }
    }

    #[cfg(test)]
    fn is_hypothetical(&self) -> bool {
        matches!(self, IndexRef::Hypothetical { .. })
    }
}

/// A one-sided bound on the seek's range column.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBound {
    pub(crate) op: CmpOp,
    pub(crate) value: Scalar,
}

/// How a table's rows are obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Full heap scan.
    SeqScan,
    /// B+ tree seek: equality prefix + optional range on the next key
    /// column. `covering` means no heap lookup is needed.
    IndexSeek {
        index: IndexRef,
        /// Values for the leading equality key columns (index key order).
        eq: Vec<Scalar>,
        lo: Option<RangeBound>,
        hi: Option<RangeBound>,
        covering: bool,
    },
    /// Ordered full scan of an index's leaf level.
    IndexScan { index: IndexRef, covering: bool },
}

impl Access {
    pub(crate) fn index_ref(&self) -> Option<&IndexRef> {
        match self {
            Access::SeqScan => None,
            Access::IndexSeek { index, .. } | Access::IndexScan { index, .. } => Some(index),
        }
    }

    /// Structural shape for plan fingerprinting (ignores literal values so
    /// different parameter bindings share a plan id).
    fn shape(&self, h: &mut DefaultHasher) {
        match self {
            Access::SeqScan => "seq".hash(h),
            Access::IndexSeek {
                index,
                eq,
                lo,
                hi,
                covering,
            } => {
                "seek".hash(h);
                index.name().hash(h);
                eq.len().hash(h);
                lo.is_some().hash(h);
                hi.is_some().hash(h);
                covering.hash(h);
            }
            Access::IndexScan { index, covering } => {
                "scan".hash(h);
                index.name().hash(h);
                covering.hash(h);
            }
        }
    }
}

/// Join strategy for the optional inner table.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStrategy {
    /// Build a hash table on the inner side (accessed via `inner_access`),
    /// probe with outer rows.
    Hash { inner_access: Box<Access> },
    /// For each outer row, seek the inner index on the join key.
    IndexNestedLoop {
        inner_index: IndexRef,
        covering: bool,
    },
}

/// Plan for the inner side of a join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinPlan {
    pub strategy: JoinStrategy,
    /// Indices into the join spec's predicate list evaluated as residuals.
    pub(crate) residual: Vec<usize>,
}

/// Aggregation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggStrategy {
    /// No aggregation in the query.
    None,
    /// Hash aggregation (unordered input).
    Hash,
    /// Stream aggregation riding on index-provided order.
    Stream,
}

/// Optimizer cost estimates attached to a plan.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlanEstimates {
    /// Estimated rows produced by the plan.
    pub rows_out: f64,
    /// Estimated rows examined at the access path.
    pub(crate) rows_examined: f64,
    /// Estimated logical page reads.
    pub(crate) pages: f64,
    /// Estimated CPU time in microseconds (same cost model the executor's
    /// actual accounting uses — the *estimates* differ, not the units).
    pub cpu_us: f64,
}

/// An executable (or what-if) plan for a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectPlan {
    pub access: Access,
    /// Indices into the statement's predicate list evaluated as residuals
    /// after the access path.
    pub residual: Vec<usize>,
    pub join: Option<JoinPlan>,
    pub agg: AggStrategy,
    /// Whether an explicit sort is required for ORDER BY (false when index
    /// order already satisfies it).
    pub(crate) needs_sort: bool,
    pub(crate) est: PlanEstimates,
}

impl SelectPlan {
    /// Names of all indexes the plan references.
    fn referenced_indexes(&self) -> Vec<&str> {
        let mut out = Vec::new();
        if let Some(ix) = self.access.index_ref() {
            out.push(ix.name());
        }
        if let Some(j) = &self.join {
            match &j.strategy {
                JoinStrategy::Hash { inner_access } => {
                    if let Some(ix) = inner_access.index_ref() {
                        out.push(ix.name());
                    }
                }
                JoinStrategy::IndexNestedLoop { inner_index, .. } => out.push(inner_index.name()),
            }
        }
        out
    }

    /// Whether the plan references any hypothetical index (not executable).
    #[cfg(test)]
    fn is_hypothetical(&self) -> bool {
        let hypo_access = |a: &Access| a.index_ref().is_some_and(IndexRef::is_hypothetical);
        hypo_access(&self.access)
            || self.join.as_ref().is_some_and(|j| match &j.strategy {
                JoinStrategy::Hash { inner_access } => hypo_access(inner_access),
                JoinStrategy::IndexNestedLoop { inner_index, .. } => inner_index.is_hypothetical(),
            })
    }

    /// Structural fingerprint.
    fn plan_id(&self) -> PlanId {
        let mut h = DefaultHasher::new();
        self.access.shape(&mut h);
        self.residual.hash(&mut h);
        match &self.join {
            None => 0u8.hash(&mut h),
            Some(j) => {
                1u8.hash(&mut h);
                match &j.strategy {
                    JoinStrategy::Hash { inner_access } => {
                        "hash".hash(&mut h);
                        inner_access.shape(&mut h);
                    }
                    JoinStrategy::IndexNestedLoop {
                        inner_index,
                        covering,
                    } => {
                        "inlj".hash(&mut h);
                        inner_index.name().hash(&mut h);
                        covering.hash(&mut h);
                    }
                }
                j.residual.hash(&mut h);
            }
        }
        (self.agg as u8).hash(&mut h);
        self.needs_sort.hash(&mut h);
        PlanId(h.finish())
    }
}

/// Plan for a DML statement (the qualifying-row search part).
#[derive(Debug, Clone, PartialEq)]
pub struct DmlPlan {
    pub access: Access,
    pub(crate) residual: Vec<usize>,
    pub(crate) est: PlanEstimates,
}

impl DmlPlan {
    fn referenced_indexes(&self) -> Vec<&str> {
        self.access
            .index_ref()
            .map(|i| vec![i.name()])
            .unwrap_or_default()
    }

    fn plan_id(&self) -> PlanId {
        let mut h = DefaultHasher::new();
        "dml".hash(&mut h);
        self.access.shape(&mut h);
        self.residual.hash(&mut h);
        PlanId(h.finish())
    }
}

/// Any statement plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    Select(SelectPlan),
    /// Insert paths are trivial: append + maintain every index.
    Insert {
        est: PlanEstimates,
    },
    Update(DmlPlan),
    Delete(DmlPlan),
}

impl Plan {
    pub(crate) fn estimates(&self) -> PlanEstimates {
        match self {
            Plan::Select(p) => p.est,
            Plan::Insert { est } => *est,
            Plan::Update(p) | Plan::Delete(p) => p.est,
        }
    }

    pub fn referenced_indexes(&self) -> Vec<&str> {
        match self {
            Plan::Select(p) => p.referenced_indexes(),
            Plan::Insert { .. } => Vec::new(),
            Plan::Update(p) | Plan::Delete(p) => p.referenced_indexes(),
        }
    }

    pub(crate) fn plan_id(&self) -> PlanId {
        match self {
            Plan::Select(p) => p.plan_id(),
            Plan::Insert { .. } => {
                let mut h = DefaultHasher::new();
                "insert".hash(&mut h);
                PlanId(h.finish())
            }
            Plan::Update(p) => {
                let mut h = DefaultHasher::new();
                "u".hash(&mut h);
                p.plan_id().0.hash(&mut h);
                PlanId(h.finish())
            }
            Plan::Delete(p) => {
                let mut h = DefaultHasher::new();
                "d".hash(&mut h);
                p.plan_id().0.hash(&mut h);
                PlanId(h.finish())
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn is_hypothetical(&self) -> bool {
        match self {
            Plan::Select(p) => p.is_hypothetical(),
            Plan::Insert { .. } => false,
            Plan::Update(p) | Plan::Delete(p) => {
                p.access.index_ref().is_some_and(IndexRef::is_hypothetical)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Scalar;
    use crate::types::Value;

    fn seek(name: &str, covering: bool) -> Access {
        Access::IndexSeek {
            index: IndexRef::Real {
                id: IndexId(1),
                name: name.into(),
            },
            eq: vec![Scalar::Lit(Value::Int(1))],
            lo: None,
            hi: None,
            covering,
        }
    }

    fn plan(access: Access) -> SelectPlan {
        SelectPlan {
            access,
            residual: vec![],
            join: None,
            agg: AggStrategy::None,
            needs_sort: false,
            est: PlanEstimates::default(),
        }
    }

    #[test]
    fn plan_id_ignores_literal_values() {
        let mut a = plan(seek("ix", true));
        let mut b = plan(seek("ix", true));
        if let Access::IndexSeek { eq, .. } = &mut a.access {
            eq[0] = Scalar::Lit(Value::Int(42));
        }
        if let Access::IndexSeek { eq, .. } = &mut b.access {
            eq[0] = Scalar::Lit(Value::Int(7));
        }
        assert_eq!(a.plan_id(), b.plan_id());
    }

    #[test]
    fn plan_id_distinguishes_access_paths() {
        let a = plan(seek("ix", true));
        let b = plan(seek("ix", false));
        let c = plan(Access::SeqScan);
        let d = plan(seek("other", true));
        assert_ne!(a.plan_id(), b.plan_id());
        assert_ne!(a.plan_id(), c.plan_id());
        assert_ne!(a.plan_id(), d.plan_id());
    }

    #[test]
    fn referenced_indexes_include_join_side() {
        let mut p = plan(seek("outer_ix", true));
        p.join = Some(JoinPlan {
            strategy: JoinStrategy::IndexNestedLoop {
                inner_index: IndexRef::Real {
                    id: IndexId(2),
                    name: "inner_ix".into(),
                },
                covering: true,
            },
            residual: vec![],
        });
        assert_eq!(p.referenced_indexes(), vec!["outer_ix", "inner_ix"]);
    }

    #[test]
    fn hypothetical_detection() {
        let p = plan(Access::IndexScan {
            index: IndexRef::Hypothetical {
                name: "hypo".into(),
            },
            covering: true,
        });
        assert!(p.is_hypothetical());
        assert!(!plan(Access::SeqScan).is_hypothetical());
    }

    #[test]
    fn dml_plan_ids_differ_by_kind() {
        let d = DmlPlan {
            access: Access::SeqScan,
            residual: vec![],
            est: PlanEstimates::default(),
        };
        assert_ne!(Plan::Update(d.clone()).plan_id(), Plan::Delete(d).plan_id());
    }
}
