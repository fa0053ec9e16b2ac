//! In-memory spans around the calls into each layer, written out when
//! the traced run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One call into a layer: name, start and end in nanoseconds since the
/// recorder was created, the span that caused it, and the tenant whose
/// run it belongs to (spans of one tenant share the identifier).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub tenant: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, tenant: u32) {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            tenant,
        });
        self.open.push(id);
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        let id = self.open.pop().expect("exit matches an enter");
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    /// Time `f` as a span; returns its result and the span's duration.
    pub fn span<T>(&mut self, name: &'static str, tenant: u32, f: impl FnOnce() -> T) -> (T, u64) {
        self.enter(name, tenant);
        let out = f();
        (out, self.exit())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON document (written by hand: a region-sized trace
/// holds tens of thousands of spans).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 80);
    let _ = write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
    );
    for (id, span) in spans.iter().enumerate() {
        if id > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
            span.name, span.start_ns, span.end_ns
        );
        match span.parent {
            Some(p) => {
                let _ = write!(out, "{p}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"tenant\":{}}}", span.tenant);
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            tenant: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child by 10
            span(60, 70, Some(0)),
            span(22, 28, Some(2)), // grandchild: not the root's child
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - (40 + 10));
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 6);
        assert_eq!(own[4], 6);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        rec.enter("tenant", 7);
        let ((), inner) = rec.span("hydrate", 7, || ());
        let outer = rec.exit();
        assert!(outer >= inner);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[0].parent, None);
        assert!(to_json("w", 1, rec.spans()).contains("\"name\":\"hydrate\""));
    }
}
