//! Sim-clock tracing spans over the control plane's pipelines.
//!
//! Production debugging of the auto-indexing service leans on structured
//! traces: one span tree per orchestration pass, with the
//! recommend → implement → validate → revert phases as children, each
//! timestamped in **simulated** time so a replayed incident carries the
//! exact timings of the original run. A [`Tracer`] is shard-owned like
//! the [`MetricsRegistry`](crate::metrics::MetricsRegistry): plain
//! `Vec` pushes on the hot path, no synchronization, and JSON span-tree
//! export at quiesce.
//!
//! Tracing is **off by default** ([`Tracer::disabled`]) — an idle tracer
//! costs one branch per span and retains nothing, so enabling it never
//! has to be weighed against the determinism contract: span collection
//! is per-tenant state and replays byte-identically either way.

use sqlmini::clock::Timestamp;

/// One completed span: a named interval of simulated time with
/// small-cardinality attributes and nested children.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Span {
    pub name: String,
    start: Timestamp,
    end: Timestamp,
    /// Key/value attributes (state names, counts — never query text).
    attrs: Vec<(String, String)>,
    pub children: Vec<Span>,
}

impl Span {
    /// First attribute value with the given key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// The span collector. `start`/`end` pairs nest: ending a span attaches
/// it to its parent, or to the finished-roots list when it has none.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tracer {
    enabled: bool,
    stack: Vec<Span>,
    roots: Vec<Span>,
    /// Cap on retained root spans (oldest dropped first), so an
    /// always-on tracer cannot grow without bound over a long run.
    retain_roots: usize,
}

impl Tracer {
    /// A tracer that records nothing — the default for fleet runs.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    pub(crate) fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            stack: Vec::new(),
            roots: Vec::new(),
            retain_roots: 10_000,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span at simulated instant `at`.
    pub fn start(&mut self, name: &str, at: Timestamp) {
        if !self.enabled {
            return;
        }
        self.stack.push(Span {
            name: name.to_string(),
            start: at,
            end: at,
            attrs: Vec::new(),
            children: Vec::new(),
        });
    }

    /// Attach an attribute to the innermost open span.
    pub(crate) fn attr(&mut self, key: &str, value: impl Into<String>) {
        if !self.enabled {
            return;
        }
        if let Some(open) = self.stack.last_mut() {
            open.attrs.push((key.to_string(), value.into()));
        }
    }

    /// Close the innermost open span at simulated instant `at`.
    pub fn end(&mut self, at: Timestamp) {
        if !self.enabled {
            return;
        }
        let Some(mut span) = self.stack.pop() else {
            return;
        };
        span.end = at;
        match self.stack.last_mut() {
            Some(parent) => parent.children.push(span),
            None => {
                self.roots.push(span);
                if self.roots.len() > self.retain_roots {
                    let excess = self.roots.len() - self.retain_roots;
                    self.roots.drain(..excess);
                }
            }
        }
    }

    /// Completed root spans, oldest first.
    pub fn roots(&self) -> &[Span] {
        &self.roots
    }

    /// JSON export of the completed span trees.
    pub fn export_json(&self) -> String {
        serde_json::to_string_pretty(&self.roots).expect("spans serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_into_trees() {
        let mut t = Tracer::enabled();
        t.start("tick", Timestamp(0));
        t.start("analysis", Timestamp(0));
        t.attr("recommendations", "2");
        t.end(Timestamp(10));
        t.start("implement", Timestamp(10));
        t.end(Timestamp(25));
        t.end(Timestamp(30));
        assert_eq!(t.roots().len(), 1);
        let root = &t.roots()[0];
        assert_eq!(root.name, "tick");
        assert_eq!((root.start, root.end), (Timestamp(0), Timestamp(30)));
        assert_eq!(root.children.len(), 2);
        assert!(root.children.iter().all(|c| c.children.is_empty()));
        assert_eq!(root.children[0].attr("recommendations"), Some("2"));
        assert_eq!(root.children[1].name, "implement");
        assert_eq!(root.children[1].start, Timestamp(10));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.start("tick", Timestamp(0));
        t.attr("k", "v");
        t.end(Timestamp(5));
        assert!(t.roots().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn unbalanced_end_is_a_no_op() {
        let mut t = Tracer::enabled();
        t.end(Timestamp(1));
        assert!(t.roots().is_empty());
        t.start("a", Timestamp(2));
        t.end(Timestamp(3));
        assert_eq!(t.roots().len(), 1);
    }

    #[test]
    fn root_retention_cap_drops_oldest() {
        let mut t = Tracer::enabled();
        t.retain_roots = 3;
        for i in 0..5u64 {
            t.start("tick", Timestamp(i));
            t.end(Timestamp(i + 1));
        }
        assert_eq!(t.roots().len(), 3);
        assert_eq!(t.roots()[0].start, Timestamp(2));
    }

    #[test]
    fn export_json_round_trips_span_trees() {
        let mut t = Tracer::enabled();
        t.start("tick", Timestamp(100));
        t.start("validate", Timestamp(100));
        t.attr("verdict", "Improved");
        t.end(Timestamp(160));
        t.end(Timestamp(200));
        let j = t.export_json();
        let parsed: serde::Value = serde_json::from_str(&j).unwrap();
        assert_eq!(serde_json::to_string_pretty(&parsed).unwrap(), j);
    }
}
