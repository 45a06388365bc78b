//! In-memory spans around the harness's calls into each layer, written
//! out as JSON when the traced run ends.
//!
//! A span is `(name, start, end, parent, op id)` plus `calls`, the number
//! of identical calls the interval covers: sub-microsecond calls are timed
//! in batches, so the per-call time is `(end - start) / calls`. A layer's
//! self time is its span's per-call time minus its children's.

use std::io::Write;
use std::time::Instant;

/// Spans kept per run; one past this is counted as dropped.
pub const CAPACITY: usize = 1 << 16;

/// Identifies a recorded span (its index), for use as a parent.
pub type SpanId = u32;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    op: u64,
    calls: u64,
    start_ns: u64,
    end_ns: u64,
}

/// The recorder. Preallocated, so recording never touches the allocator.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans { origin: Instant::now(), spans: Vec::with_capacity(CAPACITY), dropped: 0 }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (`None` when dropped).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        calls: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span { name, parent, op, calls, start_ns, end_ns });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a span whose end is filled in by [`Spans::close`], so that
    /// children can name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        let now = self.now();
        self.record(name, parent, op, 1, now, now)
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now();
        }
    }

    pub fn recorded(&self) -> u64 {
        self.spans.len() as u64
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes every span to `path` (directories are created as needed).
    pub fn write_json(
        &self,
        path: &std::path::Path,
        workload: &str,
        seed: u64,
    ) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"recorded\":{},\"dropped\":{},\"spans\":[",
            self.spans.len(),
            self.dropped
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"calls\":{},\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.op, s.name, s.calls, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// What an op of a sampled batch gets: the recorder and the op's span.
pub type OpTrace<'a> = Option<(&'a mut Spans, Option<SpanId>)>;

/// Runs `f`; when the op is traced, as a child span of it that covers
/// `calls` identical calls.
pub fn timed<R>(
    trace: &mut OpTrace<'_>,
    name: &'static str,
    op: u64,
    calls: u64,
    f: impl FnOnce() -> R,
) -> R {
    let Some((spans, parent)) = trace else {
        return f();
    };
    let start = spans.now();
    let out = f();
    let end = spans.now();
    spans.record(name, *parent, op, calls, start, end);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_overflow_is_counted() {
        let mut spans = Spans::new();
        let root = spans.open("op", None, 7);
        assert_eq!(timed(&mut Some((&mut spans, root)), "child", 7, 16, || 1 + 1), 2);
        assert_eq!(timed(&mut None, "untraced", 7, 1, || 3), 3);
        spans.close(root);
        assert_eq!(spans.recorded(), 2);
        let (parent, child) = (&spans.spans[0], &spans.spans[1]);
        assert_eq!(child.parent, Some(0));
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);
        for i in 0..CAPACITY as u64 {
            spans.record("fill", None, i, 1, 0, 1);
        }
        assert_eq!(spans.recorded(), CAPACITY as u64);
        assert_eq!(spans.dropped(), 2);
    }
}
