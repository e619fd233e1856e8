//! In-memory spans for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing inside the program is
//! instrumented. Each thread records into its own [`Spans`] and the
//! phases merge them; the whole set is written as JSON lines when the
//! benchmark exits.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One timed call into a layer.
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<u64>,
    /// Wire request id, for service calls.
    pub request: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Tags handed to recorders, so span ids stay unique when recorders merge.
static NEXT_TAG: AtomicU64 = AtomicU64::new(0);

/// A span recorder. Span ids are `(tag << 40) | sequence` with a tag of
/// its own, so spans of different recorders never collide when merged.
pub struct Spans {
    epoch: Instant,
    tag: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            tag: NEXT_TAG.fetch_add(1, Ordering::Relaxed),
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) -> u64 {
        let id = (self.tag << 40) | self.next;
        self.next += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Reserves a span id for a parent whose end is not known yet; close
    /// it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u64>) -> (u64, Instant) {
        let start = Instant::now();
        let id = self.record(name, start, start, parent, None);
        (id, start)
    }

    /// Sets the end of a span opened with [`Spans::open`].
    pub fn close(&mut self, id: u64) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            s.end_ns = end.max(s.start_ns);
        }
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (r, end - start)
    }

    pub fn merge(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name,
                s.id,
                opt(s.parent),
                opt(s.request),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
