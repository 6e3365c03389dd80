//! In-memory spans and the self-time ledger built from them.
//!
//! A span has a name, a start, an end, the span that caused it, and the
//! id of the request (or cycle, or replay pass) it belongs to. Spans are
//! only recorded in a traced run, kept in memory, and written out as
//! JSON lines when the run ends. A span's *self time* is its duration
//! minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanIdx = usize;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `gen.send` or `replay.meta.getattr`.
    pub name: &'static str,
    /// Request, cycle or pass the span belongs to.
    pub id: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanIdx>,
}

/// A span store with one time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose origin is `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// ns from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a span between two instants and return its index.
    pub fn record(
        &mut self,
        name: &'static str,
        id: u64,
        start: Instant,
        end: Instant,
        parent: Option<SpanIdx>,
    ) -> SpanIdx {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(Span {
            name,
            id,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
        })
    }

    /// Record a span given in ns offsets.
    pub fn push(&mut self, span: Span) -> SpanIdx {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// End an open span (recorded with its start as its end) at `end`.
    pub fn close(&mut self, idx: SpanIdx, end: Instant) {
        let end_ns = self.ns(end);
        let s = &mut self.spans[idx];
        s.end_ns = end_ns.max(s.start_ns);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, ns, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Self time of each name within each id, summed over the id's
    /// spans of that name, in µs: one value per (name, id).
    pub fn self_us_per_id_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut sums: BTreeMap<(&'static str, u64), u64> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *sums.entry((s.name, s.id)).or_default() += t;
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), t) in sums {
            out.entry(name).or_default().push(t as f64 / 1_000.0);
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        self.write_jsonl_to(&mut w)?;
        w.flush()
    }

    /// [`Tracer::write_jsonl`] into any writer.
    pub fn write_jsonl_to(&self, w: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of each span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanIdx>) -> Span {
        Span {
            name,
            id: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union is 10..60
            span("c", 90, 130, Some(0)), // sticks out: clipped to 90..100
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![40, 25, 30, 40, 5]);
    }

    #[test]
    fn self_times_are_non_negative_and_within_the_parent() {
        // A pseudo-random forest: every self time must lie in
        // [0, duration], and a parent's self time plus the union of its
        // children can never exceed its duration.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut spans = Vec::new();
        for root in 0..50u64 {
            let base = root * 1_000;
            let r = spans.len();
            spans.push(span("root", base, base + 500, None));
            for _ in 0..6 {
                let a = base + next() % 600;
                let len = next() % 300;
                let parent = if next() % 3 == 0 && spans.len() > r + 1 {
                    spans.len() - 1
                } else {
                    r
                };
                spans.push(span("kid", a, a + len, Some(parent)));
            }
        }
        for (s, t) in spans.iter().zip(self_times(&spans)) {
            assert!(t <= s.end_ns - s.start_ns, "{s:?} self {t}");
        }
    }

    #[test]
    fn spans_round_trip_through_jsonl() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.record("root", 7, origin, origin, None);
        t.record("leaf", 7, origin, origin, Some(root));
        let mut out = Vec::new();
        t.write_jsonl_to(&mut out).expect("write spans");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"leaf\",\"id\":7"));
        assert!(text.contains("\"parent\":0"));
    }
}
