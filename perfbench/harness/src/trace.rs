//! The benchmark's own span tracer for the traced run.
//!
//! A span has a name, a start and an end (ns since the tracer was
//! created), a parent and the id of the op it belongs to. Spans are kept
//! in memory and written as JSONL when the run ends, so tracing costs
//! two clock reads and a push per span. Only the benchmark's files open
//! spans: they wrap calls into each layer's public functions and never
//! reach inside the program.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One closed (or still open, `end_ns == u64::MAX`) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `graph.io_read`.
    pub name: String,
    /// Op the span belongs to.
    pub op: u64,
    /// Enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with a LIFO stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Tracer {
    /// Sets the op id new spans are tagged with.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span; returns its
    /// duration in ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans close LIFO");
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        self.spans[id].dur_ns()
    }

    /// Runs `f` under a span named `name`; returns its value and the
    /// span's duration in ns.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Records an already-measured interval as a closed child of the
    /// innermost open span (used for per-round samples, which are timed
    /// with bare clock reads to keep the loop tight).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            op: self.op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Self time of every span: its duration minus the time its
    /// children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, c)| self_time(s.start_ns, s.end_ns, c))
            .collect()
    }

    /// JSONL rendering, one span per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.op, s.start_ns, s.end_ns,
            );
        }
        out
    }
}

/// `end - start` minus the measure of the union of `children`, each
/// clipped to `[start, end]`. Children may nest, touch or overlap; time
/// covered twice is subtracted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|&(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    end.saturating_sub(start).saturating_sub(covered)
}

/// Self time of an `arbmis_obs` span: the recorder's spans close LIFO on
/// one thread, so direct children are disjoint and the time they cover
/// is the sum of their durations.
pub fn obs_self_ns(spans: &[(String, u64)], path: &str) -> u64 {
    let own: u64 = spans
        .iter()
        .filter(|(p, _)| p == path)
        .map(|(_, ns)| ns)
        .sum();
    let prefix = format!("{path}/");
    let children: u64 = spans
        .iter()
        .filter(|(p, _)| {
            p.strip_prefix(&prefix)
                .is_some_and(|rest| !rest.contains('/'))
        })
        .map(|(_, ns)| ns)
        .sum();
    own.saturating_sub(children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        // Parent [0, 100): adjacent children [10, 20) and [20, 35), a
        // child [30, 50) overlapping the second, and a grandchild-like
        // interval [40, 45) nested inside it. Covered: [10, 50) = 40.
        let children = [(10, 20), (20, 35), (30, 50), (40, 45)];
        assert_eq!(self_time(0, 100, &children), 60);
        // A child running past the parent's end is clipped.
        assert_eq!(self_time(0, 100, &[(90, 130)]), 90);
        // Disjoint children add up; no children leave the whole span.
        assert_eq!(self_time(0, 100, &[(0, 10), (50, 60)]), 80);
        assert_eq!(self_time(5, 9, &[]), 4);
    }

    #[test]
    fn tracer_self_time_counts_only_direct_children() {
        let mut t = Tracer::default();
        let root = t.begin("root");
        let child = t.begin("child");
        let grandchild = t.begin("grandchild");
        t.end(grandchild);
        t.end(child);
        t.end(root);
        // Overwrite the clock readings with known values: root [0, 100),
        // child [10, 60), grandchild [20, 40), plus an adjacent second
        // child [60, 70).
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        t.spans[child].start_ns = 10;
        t.spans[child].end_ns = 60;
        t.spans[grandchild].start_ns = 20;
        t.spans[grandchild].end_ns = 40;
        t.spans.push(Span {
            name: "child2".into(),
            op: 0,
            parent: Some(root),
            start_ns: 60,
            end_ns: 70,
        });
        assert_eq!(t.self_times(), vec![40, 30, 20, 10]);
        assert_eq!(t.spans[grandchild].parent, Some(child));
    }

    #[test]
    fn obs_self_time_ignores_grandchildren() {
        let spans = vec![
            ("arbmis/shattering".to_string(), 30),
            ("arbmis/bad_components/forest_decomp".to_string(), 5),
            ("arbmis/bad_components".to_string(), 10),
            ("arbmis".to_string(), 50),
        ];
        assert_eq!(obs_self_ns(&spans, "arbmis"), 10);
        assert_eq!(obs_self_ns(&spans, "arbmis/bad_components"), 5);
    }
}
