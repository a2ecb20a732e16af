//! In-memory spans, recorded by the benchmark around its calls into each
//! layer and written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// Request id, shared by the spans of one input across the stacks.
    pub rid: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e6
    }
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Record a span; returns its index for use as a parent.
    pub fn span(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            rid,
            parent,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
        });
        self.spans.len() - 1
    }

    /// Record a child whose duration a layer reported itself, placed
    /// `after` the start of its parent.
    pub fn reported(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: usize,
        after: Duration,
        took: Duration,
    ) -> usize {
        let start = self.spans[parent].start + after;
        self.spans.push(Span {
            name,
            rid,
            parent: Some(parent),
            start,
            end: start + took,
        });
        self.spans.len() - 1
    }

    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }

    /// Duration in µs of every span called `name`, by request id.
    pub fn by_rid(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.rid, s.us()))
            .collect()
    }

    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"rid\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.rid,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

/// Per-request differences `a[rid] - b[rid]` over the requests both have.
pub fn paired_diff(a: &BTreeMap<u64, f64>, b: &BTreeMap<u64, f64>) -> BTreeMap<u64, f64> {
    a.iter()
        .filter_map(|(rid, x)| b.get(rid).map(|y| (*rid, x - y)))
        .collect()
}
