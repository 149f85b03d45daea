//! In-memory spans for the traced run.
//!
//! A span records a name, a start and an end (nanoseconds since the
//! tracer's epoch), the span that caused it, and the id of the request
//! it belongs to; every span of one request shares that id. Spans stay
//! in memory while the workload runs and are written out once, when the
//! run ends. A span's self time is its duration minus the durations of
//! its children. Children may be replays of the parent's work through a
//! layer's public function, timed after the fact, so self time subtracts
//! durations rather than intersecting intervals. A replay span around a
//! single operation is shortened by the cost of its two clock reads.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Request the span belongs to.
    pub req: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
}

/// Total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Sum of span durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` precedes it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let (start, end) = (self.ns(start), self.ns(end));
        self.push(name, req, parent, start, end)
    }

    /// Records a span given in epoch nanoseconds.
    pub fn push(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<SpanId>,
        start: u64,
        end: u64,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            req,
            parent,
            start,
            end: end.max(start),
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self time per span name.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, &kids) in self.spans.iter().zip(&child_ns) {
            let d = s.end - s.start;
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += d;
            e.self_ns += d.saturating_sub(kids);
        }
        out
    }

    /// Share of the `roots`' total duration that their direct children
    /// cover: what the layer spans under them account for.
    pub fn coverage(&self, roots: &[SpanId]) -> f64 {
        let mut is_root = vec![false; self.spans.len()];
        let mut total = 0u64;
        for &r in roots {
            is_root[r as usize] = true;
            let s = &self.spans[r as usize];
            total += s.end - s.start;
        }
        let covered: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| is_root[p as usize]))
            .map(|s| s.end - s.start)
            .sum();
        covered as f64 / total.max(1) as f64
    }

    /// The last span named `name`.
    pub fn last(&self, name: &str) -> Option<SpanId> {
        self.spans
            .iter()
            .rposition(|s| s.name == name)
            .map(|i| i as SpanId)
    }

    /// `span.<name> = <count> spans, <self> ns self per span` lines.
    pub fn summary_lines(&self) -> Vec<String> {
        self.layer_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "span.{name} = {} spans, {:.1} ns self per span",
                    t.count,
                    t.self_ns as f64 / t.count.max(1) as f64
                )
            })
            .collect()
    }

    /// Writes `# <title>`, then every span as a tab-separated line: id,
    /// request, parent (`-` for a root), name, start and end in ns.
    pub fn write_tsv(&self, path: &Path, title: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {title}")?;
        writeln!(w, "id\treq\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}\t{}",
                s.req, s.name, s.start, s.end
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.push("op", 7, None, 0, 100);
        t.push("parse", 7, Some(root), 10, 30);
        t.push("execute", 7, Some(root), 40, 70);
        let lt = t.layer_times();
        assert_eq!(lt["op"].total_ns, 100);
        assert_eq!(lt["op"].self_ns, 50);
        assert_eq!(lt["parse"].self_ns, 20);
        assert_eq!(lt["execute"].count, 1);
        assert!(t.spans().iter().all(|s| s.req == 7));
        assert_eq!(t.coverage(&[root]), 0.5);
        assert_eq!(t.last("parse"), Some(1));
    }
}
