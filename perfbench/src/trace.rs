//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public function, kept in memory while the run is timed, and written
//! out once at the end. A disabled tracer calls straight through, so the
//! untraced run executes the same request code with no recording.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to; `None` for set-up work.
    pub request: Option<u32>,
}

/// Self time of one span name, summed over its spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub spans: u64,
    pub self_ns: f64,
}

impl SelfTime {
    /// Mean self time per span, milliseconds (0 when the layer never ran).
    pub fn mean_ms(&self) -> f64 {
        if self.spans == 0 {
            0.0
        } else {
            self.self_ns / self.spans as f64 / 1e6
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Adds `value` to the counter `name` (traced runs only).
    pub fn add(&mut self, name: &'static str, value: f64) {
        if self.on {
            *self.counters.entry(name).or_default() += value;
        }
    }

    /// The counter `name`; 0 when never added to.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: Option<u32>,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Ends every span a caught panic left open, at the current time.
    pub fn close_open(&mut self) {
        let now = self.now_ns();
        for idx in std::mem::take(&mut self.open) {
            self.spans[idx].end_ns = now;
        }
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Per-name self time: each span's duration minus the part of its
    /// interval covered by its children.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&mut children) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let entry = out.entry(s.name).or_default();
            entry.spans += 1;
            entry.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered) as f64;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request.map(u64::from)),
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            request: Some(0),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            rec("request", 0, 100, None),
            rec("check", 10, 30, Some(0)),
            rec("sim", 25, 50, Some(0)), // overlaps check by 5 ns
            rec("inner", 26, 27, Some(2)),
        ];
        let st = t.self_times();
        assert_eq!(st["request"].self_ns, 60.0); // 100 − |[10, 50]|
        assert_eq!(st["check"].self_ns, 20.0);
        assert_eq!(st["sim"].self_ns, 24.0);
        assert_eq!(st["inner"].self_ns, 1.0);
    }

    #[test]
    fn spans_nest_and_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let v = t.span("request", Some(7), |t| t.span("check", Some(7), |_| 3));
        assert_eq!(v, 3);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, Some(7));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", None, |_| 4), 4);
        assert!(off.spans().is_empty());
    }
}
