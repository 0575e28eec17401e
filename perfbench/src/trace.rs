//! In-memory span recorder for the traced replay.
//!
//! Each span stores its name, start, end, parent and trial id. Self time
//! is a span's duration minus the time covered by its direct children,
//! so nested layers never count the same nanosecond twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Layer-qualified name, e.g. `linker.link`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Trial the span belongs to (`u64::MAX` outside any trial).
    pub trial: u64,
}

impl SpanRec {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed self time.
    pub self_ns: u64,
}

impl Totals {
    /// Mean self time per call in nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Records spans into a vector; enter/exit must nest.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    trial: u64,
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trial: u64::MAX,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `trial`.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            trial: self.trial,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name call counts and self time.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        self_times(&self.spans)
    }

    /// Writes the spans as tab-separated lines (`name start end parent
    /// trial`, parent `-1` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\ttrial")?;
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let trial = if s.trial == u64::MAX {
                -1
            } else {
                s.trial as i64
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{trial}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children (grandchildren are already inside the children).
pub fn self_times(spans: &[SpanRec]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, children) in spans.iter().zip(child_ns) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            trial: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // trial [0, 100] ⊃ link [10, 40] ⊃ scan [15, 25]; sim [50, 90].
        let spans = vec![
            span("trial", 0, 100, None),
            span("link", 10, 40, Some(0)),
            span("scan", 15, 25, Some(1)),
            span("sim", 50, 90, Some(0)),
            span("sim", 200, 210, None),
        ];
        let t = self_times(&spans);
        assert_eq!(t["trial"].self_ns, 100 - 30 - 40);
        assert_eq!(t["link"].self_ns, 30 - 10);
        assert_eq!(t["scan"].self_ns, 10);
        assert_eq!(
            t["sim"],
            Totals {
                calls: 2,
                self_ns: 50
            }
        );
        assert_eq!(t["sim"].mean_ns(), 25.0);
        // Self times partition the root's wall time plus the second root.
        let sum: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100 + 10);
    }

    #[test]
    fn tracer_nests_and_tags_trials() {
        let mut tr = Tracer::new();
        tr.set_trial(7);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.trial == 7 && s.end_ns >= s.start_ns));
        let t = tr.totals();
        assert_eq!(t["outer"].calls, 1);
        assert!(t["outer"].self_ns <= spans[0].dur_ns());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn exits_must_nest() {
        let mut tr = Tracer::new();
        let a = tr.enter("a");
        let _b = tr.enter("b");
        tr.exit(a);
    }
}
