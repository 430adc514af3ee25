//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each crate's public functions: a span has a name (the layer),
//! start and end offsets from the tracer's epoch, the span that was open
//! when it started, and the id of the operation it served. A layer's
//! self time is its span's duration minus the time its child spans
//! cover. Nothing is written until [`Tracer::write_csv`] at the end.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer name, e.g. `vql.parse`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation the span served (0 for spans outside any operation).
    pub op: u64,
}

/// Records nested spans; a disabled tracer records nothing.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

/// Aggregate of one span name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their self times, nanoseconds.
    pub self_ns: u64,
}

impl SelfTime {
    /// Mean self time per span, microseconds (0 without spans).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1000.0
        }
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), enabled: true }
    }

    /// Turns recording on or off; spans opened while off are not kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span returned by [`Tracer::enter`]; spans close in
    /// reverse order of opening.
    pub fn exit(&mut self, idx: Option<u32>) {
        let Some(idx) = idx else { return };
        let end = self.now_ns();
        self.spans[idx as usize].end_ns = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.enter(name, op);
        let r = f();
        self.exit(idx);
        r
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the summed
    /// durations of its direct children (children never overlap: the
    /// recorder is single-threaded and closes spans innermost first).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Writes the first `limit` spans, one CSV line each:
    /// `index,name,start_ns,end_ns,parent,op` (parent empty at the root).
    /// Returns how many were written.
    pub fn write_csv(&self, path: &Path, limit: usize) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "index,name,start_ns,end_ns,parent,op")?;
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(out, "{i},{},{},{},{parent},{}", s.name, s.start_ns, s.end_ns, s.op)?;
        }
        out.flush()?;
        Ok(self.spans.len().min(limit))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 1);
        t.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.exit(outer);
        let st = t.self_times();
        let (outer, inner) = (st["outer"], st["inner"]);
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.self_ns >= 2_000_000);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let outer_dur = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(outer.self_ns, outer_dur - inner.self_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new();
        t.set_enabled(false);
        assert_eq!(t.span("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }
}
