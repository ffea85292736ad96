//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Every thread owns a [`Tracer`]; the spans are merged and
//! written out when the run ends. A disabled tracer records nothing and
//! reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the merged list.
    pub parent: Option<usize>,
    /// The op the span belongs to; 0 for set-up.
    pub op: u64,
    pub thread: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    thread: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
    /// Duration of the span closed last.
    closed_ns: u64,
}

impl Tracer {
    /// `origin` is shared by all threads of a run so their spans line up.
    pub fn new(on: bool, origin: Instant, thread: usize) -> Tracer {
        Tracer {
            on,
            origin,
            thread,
            open: Vec::new(),
            spans: Vec::new(),
            closed_ns: 0,
        }
    }

    pub fn begin(&mut self, name: &'static str, op: u64) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
            thread: self.thread,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("end() matches a begin()");
        self.spans[i].end_ns = now;
        self.closed_ns = self.spans[i].dur_ns();
    }

    /// The duration of the span closed last; 0 while disabled.
    pub fn closed_ns(&self) -> u64 {
        self.closed_ns
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Concatenates span lists, rebasing parent indices.
pub fn merge(parts: impl IntoIterator<Item = Vec<Span>>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for part in parts {
        let base = out.len();
        out.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Per span name: calls, total time and self time (a span's duration
/// minus the time its child spans cover), in ns.
#[derive(Default, Clone, Copy)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTime {
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    // Children of one parent run one after another on the parent's
    // thread, so their durations never overlap and simply add up.
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(child);
    }
    out
}

/// The self-time table: one line per span name, largest self time first.
pub fn self_time_table(times: &BTreeMap<&'static str, LayerTime>) -> Vec<String> {
    let all: u64 = times.values().map(|t| t.self_ns).sum();
    let mut rows: Vec<_> = times.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut lines = vec![format!(
        "{:<36} {:>9} {:>12} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self_us/call", "self_%"
    )];
    for (name, t) in rows {
        lines.push(format!(
            "{:<36} {:>9} {:>12.3} {:>12.3} {:>12.2} {:>6.1}%",
            name,
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / t.calls.max(1) as f64,
            100.0 * t.self_ns as f64 / all.max(1) as f64
        ));
    }
    lines
}

/// Writes one JSON object per span.
pub fn write_dump(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            r#"{{"id":{i},"parent":{parent},"op":{},"thread":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.op, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true, Instant::now(), 0);
        t.begin("outer", 1);
        t.time("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let spans = merge([t.into_spans()]);
        assert_eq!(spans[1].parent, Some(0));
        let times = layer_times(&spans);
        let (o, i) = (times["outer"], times["inner"]);
        assert_eq!(o.total_ns, spans[0].dur_ns());
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert!(i.total_ns >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        assert_eq!(t.time("x", 1, || 7), 7);
        assert!(t.into_spans().is_empty());
    }
}
