//! In-memory spans recorded around calls into each layer's public entry
//! point. Nothing inside the program is instrumented: a span opens just
//! before the benchmark calls into a layer and closes when the call
//! returns. Spans that split a compile into passes are placed inside
//! the compile's span from the `PassStats` durations the call returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `cache.key`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    /// Nanoseconds since the tracer started.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The request (or compile) this span belongs to.
    pub request: u64,
}

/// The span store.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span. Returns `f`'s result and the span's index.
    pub(crate) fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, request });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        (r, id)
    }

    /// Record a child of `parent` lasting `ns` nanoseconds, placed right
    /// after `parent`'s start plus `offset` (used for pass splits, whose
    /// durations come from the compile's own statistics).
    pub(crate) fn placed(&mut self, name: &'static str, parent: usize, offset: u64, ns: u64) {
        let p = &self.spans[parent];
        let start = (p.start + offset).min(p.end);
        let end = (start + ns).min(p.end);
        let request = p.request;
        self.spans.push(Span { name, start, end, parent: Some(parent), request });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children never overlap each other).
    pub(crate) fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end - s.start).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end - s.start);
            }
        }
        own
    }

    /// Self times (ns) grouped by span name, in span order.
    pub(crate) fn self_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut out: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t);
        }
        out
    }

    /// The spans as JSON lines (name, start, end, parent, request, self).
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"self_ns\":{own}}}",
                s.name, s.start, s.end, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        let ((), root) = t.span("root", 7, |t| {
            t.span("child", 7, |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let own = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[1].request, 7);
        let root_ns = spans[0].end - spans[0].start;
        let child_ns = spans[1].end - spans[1].start;
        assert!(child_ns >= 2_000_000);
        assert_eq!(own[0], root_ns - child_ns);
        assert_eq!(t.self_by_name()["child"], vec![child_ns]);
        assert_eq!(t.jsonl().lines().count(), 2);
    }

    #[test]
    fn placed_children_stay_inside_their_parent() {
        let mut t = Tracer::default();
        let ((), root) =
            t.span("root", 1, |_| std::thread::sleep(std::time::Duration::from_millis(1)));
        t.placed("pass", root, 0, u64::MAX / 4);
        let s = &t.spans()[1];
        assert_eq!((s.start, s.end), (t.spans()[0].start, t.spans()[0].end));
        assert_eq!(t.self_times()[0], 0);
    }
}
