//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span has a name (`<layer>.<call>`), start and end (wall clock since
//! the tracer was created), the calling thread's CPU time over the call,
//! its parent span and the job it served. A layer's self time is the
//! summed duration of its spans minus the part covered by their
//! children. A disabled tracer records nothing and reads no clock.

use crate::host;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub job: Option<String>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    cpu_start: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: &'static str, job: Option<&str>) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            job: job.map(str::to_string),
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            cpu_ns: 0,
            cpu_start: host::thread_cpu_ns(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else {
            return;
        };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let cpu = host::thread_cpu_ns();
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.cpu_ns = cpu.saturating_sub(span.cpu_start);
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, job: Option<&str>, f: impl FnOnce() -> T) -> T {
        let open = self.open(name, job);
        let out = f();
        self.close(open);
        out
    }

    /// Summed thread-CPU nanoseconds and count of the spans named `name`.
    pub fn cpu_of(&self, name: &str) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + s.cpu_ns, n + 1))
    }

    /// Wall-clock self time per layer (the span name up to its first
    /// `.`), in nanoseconds.
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.wall_ns();
            }
        }
        let mut layers = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0) += span.wall_ns().saturating_sub(children);
        }
        layers
    }

    /// Writes every span as one JSONL record.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{index},\"name\":\"{}\",\"parent\":{},\"job\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.name,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job
                    .as_deref()
                    .map_or("null".to_string(), |j| format!("\"{j}\"")),
                s.start_ns,
                s.end_ns,
                s.cpu_ns
            )?;
        }
        out.flush()
    }
}
