//! In-memory spans and counts recorded around the public calls of each
//! layer, written out when the run ends.
//!
//! A span keeps its name, start, end, parent span and request id (the
//! compile, ticket or fleet run it belongs to). Self time is a span's
//! duration minus the part of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `core.session.search`.
    pub name: &'static str,
    /// Start, in ns since the tracer's origin.
    pub start_ns: u64,
    /// End, in ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request this span serves.
    pub request: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans and counts for one thread of a run. A disabled
/// tracer records nothing, so untraced runs pay only a branch.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    /// An empty tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            enabled: true,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            name,
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Runs `call` inside a span and returns its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return call();
        }
        let start = Instant::now();
        let out = call();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Opens a span whose end is set later with [`close`](Tracer::close);
    /// children recorded in between may name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    /// Ends a span opened with [`open`](Tracer::open).
    pub fn close(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end = self.offset(Instant::now());
        self.spans[id].end_ns = end;
    }

    /// Adds `by` to the named count.
    pub fn count(&mut self, name: &'static str, by: u64) {
        if !self.enabled {
            return;
        }
        *self.counts.entry(name).or_insert(0) += by;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded counts.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Writes every span as one JSON line, then the counts, then
    /// per-name totals of wall and self time.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.request, span.start_ns, span.end_ns
            )?;
        }
        for (name, value) in &self.counts {
            writeln!(out, "{{\"count\":\"{name}\",\"value\":{value}}}")?;
        }
        for (name, (calls, wall, own)) in totals(&self.spans) {
            writeln!(
                out,
                "{{\"total\":\"{name}\",\"calls\":{calls},\"wall_ns\":{wall},\"self_ns\":{own}}}"
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered.min(span.duration_ns())
        })
        .collect()
}

/// Per span name: `(calls, wall ns, self ns)`.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_insert((0, 0, 0));
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    out
}
