//! In-memory span recorder for the traced run. Spans are recorded
//! from the benchmark's side of each layer boundary, kept in memory,
//! and written out once when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a layer call, or a whole request.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The op (request or recipe call) the span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    kept: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one time origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, op: u32, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.record(name, op, parent, start_ns, start_ns)
    }

    /// Closes a span now and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.dur_ns()
    }

    /// Drops a span from the output (the work ran but is not part of
    /// the op's chain).
    pub fn discard(&mut self, id: usize) {
        self.spans[id].kept = false;
    }

    /// Records an already-measured span.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u32,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent,
            kept: true,
        });
        self.spans.len() - 1
    }

    /// Durations, in nanoseconds, of every kept span with this name.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.kept && s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Number of kept spans.
    pub fn len(&self) -> usize {
        self.spans.iter().filter(|s| s.kept).count()
    }

    /// The kept spans as a JSON array (times in microseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.kept) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{parent}}}",
                s.name,
                s.op,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        out.push_str("\n]\n");
        out
    }
}
