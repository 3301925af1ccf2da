//! The span recorder of the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer's
//! public functions. A span has a name (`<layer>.<call>`), a start and
//! an end in nanoseconds since the recorder's origin, the index of the
//! span that was open when it began (its parent), and the id of the
//! operation it belongs to: one writer step, one read, one setup or one
//! recovery. Spans stay in memory while the run measures and are
//! written out once, at the end.
//!
//! A recorder that is switched off records nothing and costs one branch
//! per call, so the untraced run goes through the same code.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start: u64,
    /// Nanoseconds since the recorder's origin.
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    on: bool,
    slice: usize,
    slice_traced: bool,
    every: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; `None` when the recorder was off.
pub type SpanId = Option<usize>;

impl Tracer {
    /// A recorder whose clock starts at `origin`; off until
    /// [`Tracer::set_on`].
    pub fn new(origin: Instant) -> Self {
        Tracer {
            on: false,
            slice: 0,
            slice_traced: false,
            every: 1,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switch recording on or off (between operations only).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Enter slice `slice` of the measured phase, traced or not.
    pub fn enter_slice(&mut self, slice: usize, on: bool) {
        self.slice = slice;
        self.slice_traced = on;
        self.on = on;
    }

    /// Record only every `n`th operation of a traced slice, each of
    /// them in full, so that the spans of a fast workload stay within
    /// memory; sums over spans are then scaled by [`Tracer::every`].
    pub fn sample_every(&mut self, n: u64) {
        self.every = n.max(1);
    }

    /// One in how many operations is recorded.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Start operation `op` of the measured phase: recorded if the
    /// slice is traced and `op` is sampled.
    pub fn enter_op(&mut self, op: u64) {
        self.on = self.slice_traced && self.sampled(op);
    }

    /// Whether operation `op` is among the recorded ones. The choice is
    /// a hash of `op`, not `op % every`, so that work the benchmark
    /// does every n-th step (publish, refresh) is sampled at the same
    /// rate as the rest.
    pub fn sampled(&self, op: u64) -> bool {
        (op.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32).is_multiple_of(self.every)
    }

    /// Whether the current slice of the measured phase is traced.
    pub fn slice_traced(&self) -> bool {
        self.slice_traced
    }

    /// The slice the measured phase is in; samples are kept per
    /// slice.
    pub fn slice(&self) -> usize {
        self.slice
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a span now; it becomes the parent of spans opened before
    /// [`Tracer::end`] closes it.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span `id` now.
    pub fn end(&mut self, id: SpanId) {
        if let Some(id) = id {
            self.spans[id].end = self.ns(Instant::now());
            if self.open.last() == Some(&id) {
                self.open.pop();
            }
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let out = f();
        self.end(id);
        out
    }

    /// Record a span the caller timed itself, as a child of the
    /// currently open span.
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if self.on {
            let (start, end) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                start,
                end,
                parent: self.open.last().copied(),
                op,
            });
        }
    }

    /// Rename a recorded span, e.g. an apply found afterwards to have
    /// cut a checkpoint.
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per span: its duration minus the part of its interval that its
/// direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns() - covered.min(s.ns())
        })
        .collect()
}

/// Self time in nanoseconds summed per layer, over the spans `keep`
/// selects.
pub fn self_by_layer(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        if keep(s) {
            *out.entry(s.layer()).or_insert(0) += t;
        }
    }
    out
}

/// Durations in nanoseconds of the spans called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Write spans as tab-separated lines: name, start, end, parent (-1
/// for none), op.
pub fn write_tsv(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
    for s in spans {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start, s.end, parent, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("bench.step", 0, 100, None, 7),
            span("core.delta_build", 5, 15, Some(0), 7),
            span("durability.apply", 20, 90, Some(0), 7),
            span("durability.checkpoint", 30, 80, Some(2), 7),
        ];
        assert_eq!(self_times(&spans), vec![20, 10, 20, 50]);
        let by = self_by_layer(&spans, |_| true);
        assert_eq!(by["bench"], 20);
        assert_eq!(by["core"], 10);
        assert_eq!(by["durability"], 70);
        // Every nanosecond of the root is attributed exactly once.
        assert_eq!(by.values().sum::<u64>(), 100);
        let only = self_by_layer(&spans, |s| s.layer() == "durability");
        assert_eq!(
            only.into_iter().collect::<Vec<_>>(),
            vec![("durability", 70)]
        );
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("bench.step", 10, 50, None, 1),
            span("executor.apply", 0, 20, Some(0), 1),
            span("executor.apply", 15, 30, Some(0), 1),
            span("snapshot.publish", 45, 70, Some(0), 1),
        ];
        // Covered inside [10, 50]: [10, 30] and [45, 50].
        assert_eq!(self_times(&spans)[0], 15);
    }

    #[test]
    fn recorder_nests_spans_and_stays_silent_when_off() {
        let mut t = Tracer::new(Instant::now());
        assert!(t.begin("bench.step", 0).is_none());
        t.set_on(true);
        let root = t.begin("bench.step", 3);
        t.span("core.delta_build", 3, || ());
        let apply = t.begin("durability.apply", 3);
        t.end(apply);
        t.rename(apply, "durability.checkpoint");
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert_eq!(s[2].name, "durability.checkpoint");
        assert!(s.iter().all(|x| x.op == 3 && x.end >= x.start));
    }
}
