//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Coarse spans (one check, one phase) are stored individually. Calls made
//! hundreds of thousands of times per check (canonicalisation, cache
//! lookups, witness searches, record decoding) are folded into one *rollup*
//! span per parent and name: first start, last end, call count and summed
//! busy time. The spans are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
    count: u64,
    busy_ns: u64,
}

/// Span store for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a coarse span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            count: 1,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a coarse span opened with [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        let now = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Runs `f` inside a coarse span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// A rollup span under `parent`, empty until calls are
    /// [`add`](Self::add)ed to it.
    pub fn rollup(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns: u64::MAX,
            end_ns: 0,
            count: 0,
            busy_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Folds one call, from `start` to `end`, into rollup `id`.
    pub fn add(&mut self, id: SpanId, start: Instant, end: Instant) {
        let (s, e) = (self.ns(start), self.ns(end));
        let span = &mut self.spans[id];
        span.start_ns = span.start_ns.min(s);
        span.end_ns = span.end_ns.max(e);
        span.count += 1;
        span.busy_ns += e.saturating_sub(s);
    }

    /// Runs `f` as one call of rollup `id`.
    pub fn time<R>(&mut self, id: SpanId, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(id, start, Instant::now());
        out
    }

    /// Busy seconds of one span.
    pub fn secs(&self, id: SpanId) -> f64 {
        self.spans[id].busy_ns as f64 / 1e9
    }

    /// Calls folded into one span.
    pub fn count(&self, id: SpanId) -> u64 {
        self.spans[id].count
    }

    /// Busy seconds and calls summed over the spans named `name` opened
    /// at or after span `first`.
    pub fn sum_since(&self, first: SpanId, name: &str) -> (f64, u64) {
        self.spans[first..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(secs, count), s| {
                (secs + s.busy_ns as f64 / 1e9, count + s.count)
            })
    }

    /// The spans as JSON: one object per span with its name, parent,
    /// start and end (nanoseconds since the run began), call count and
    /// busy nanoseconds.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let start = if s.count == 0 { 0 } else { s.start_ns };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {start}, \
                 \"end_ns\": {}, \"count\": {}, \"busy_ns\": {}}}{}",
                s.name,
                s.end_ns,
                s.count,
                s.busy_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}
