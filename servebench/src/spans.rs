//! In-memory span trees for the traced run.
//!
//! Spans are recorded by the benchmark's own code around calls into the
//! repository's public functions: name, start, end, parent, and the id of
//! the request they belong to. They stay in memory until the run ends and
//! are then written out as tab-separated rows.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

#[derive(Debug, Clone)]
struct Span {
    request: u64,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A recorder of nested spans; `open`/`close` must pair up like brackets.
#[derive(Debug)]
pub struct Spans {
    /// `fairnn_obs::monotonic_ns` at creation; span times are relative.
    origin_ns: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin_ns: fairnn_obs::monotonic_ns(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on the spans opened from now on.
    pub fn request(&mut self, id: u64) {
        debug_assert!(self.stack.is_empty(), "request changed inside a span");
        self.request = id;
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            request: self.request,
            parent: self.stack.last().copied(),
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost span (which must be `idx`) and returns its
    /// duration in nanoseconds.
    pub fn close(&mut self, idx: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(self.stack.pop(), Some(idx), "spans closed out of order");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let idx = self.open(name);
        let out = f();
        let ns = self.close(idx);
        (out, ns)
    }

    fn now_ns(&self) -> u64 {
        fairnn_obs::monotonic_ns() - self.origin_ns
    }

    /// Self time per span name — duration minus the time covered by the
    /// span's children — with the number of spans of that name.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let own = (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            let entry = out.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += 1;
        }
        out
    }

    /// Writes every span as `request span parent name start_ns end_ns`
    /// (`-` for a root's parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
