//! The traced run's instruments: an in-memory span recorder, an RNG
//! wrapper that counts drawn words, and an observer that timestamps
//! stage ends.
//!
//! Spans are recorded by the benchmark around each call into a layer of
//! the library (the library itself is not instrumented). They stay in
//! memory until the run ends and are then written out as one JSON file.

use crate::clock::{now_ns, secs};
use bib_core::protocol::Observer;
use bib_rng::Rng64;
use std::fmt::Write as _;

/// Identifier of a recorded span (its index in the recorder).
pub type SpanId = usize;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the interval is attributed to (`core.faithful`, …).
    pub layer: &'static str,
    /// What ran: protocol, sizes, replicate.
    pub label: String,
    /// Start, nanoseconds since the benchmark's time origin.
    pub start_ns: u64,
    /// End, same time base.
    pub end_ns: u64,
    /// The span this one ran inside of.
    pub parent: Option<SpanId>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        secs(self.start_ns, self.end_ns)
    }
}

/// In-memory span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an interval measured elsewhere (e.g. on a worker thread).
    pub fn record(
        &mut self,
        layer: &'static str,
        label: impl Into<String>,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        self.spans.push(Span {
            layer,
            label: label.into(),
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a new span and returns its result with the span.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        label: impl Into<String>,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Self, SpanId) -> T,
    ) -> (T, SpanId) {
        let id = self.record(layer, label, parent, now_ns(), 0);
        let out = f(self, id);
        self.spans[id].end_ns = now_ns();
        (out, id)
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total seconds of the spans attributed to `layer`.
    pub fn busy(&self, layer: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(Span::secs)
            .sum()
    }

    /// Number of spans attributed to `layer`.
    pub fn count(&self, layer: &str) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Seconds of span `id`.
    pub fn secs_of(&self, id: SpanId) -> f64 {
        self.spans[id].secs()
    }

    /// Renders every span as JSON (one object per span, with its id),
    /// under a header of `(key, value)` pairs that are already JSON.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            let _ = writeln!(out, "  \"{k}\": {v},");
        }
        out.push_str("  \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "    {{\"id\": {i}, \"parent\": {parent}, \"layer\": \"{}\", \"label\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer,
                s.label.replace('"', "'"),
                s.start_ns,
                s.end_ns
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// An [`Rng64`] that counts the 64-bit words drawn through it.
#[derive(Debug, Clone)]
pub struct CountingRng<R> {
    inner: R,
    /// Words drawn so far.
    pub draws: u64,
}

impl<R> CountingRng<R> {
    /// Wraps `inner` with a zero count.
    pub fn new(inner: R) -> Self {
        Self { inner, draws: 0 }
    }
}

impl<R: Rng64> Rng64 for CountingRng<R> {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// An observer that timestamps every `on_stage_end`. Attach it only
/// where stage ends fire inline with the work (the faithful sequential
/// driver and the faithful round loops); elsewhere the timestamps do not
/// mark when the stage's work happened.
#[derive(Debug, Default)]
pub struct StageClock {
    /// Nanosecond timestamp of each stage end, in order.
    pub ends_ns: Vec<u64>,
}

impl Observer for StageClock {
    fn on_stage_end(&mut self, _tau: u64, _loads: &[u32], _total: u64) {
        self.ends_ns.push(now_ns());
    }
}

impl StageClock {
    /// Records one child span of `parent` per stage: stage `k` runs from
    /// the previous stage end (or the start of `parent`) to its own end.
    pub fn record_stages(&self, tr: &mut Tracer, layer: &'static str, parent: SpanId) {
        let mut prev = tr.spans[parent].start_ns;
        for (k, &end) in self.ends_ns.iter().enumerate() {
            tr.record(layer, format!("stage {}", k + 1), Some(parent), prev, end);
            prev = end;
        }
    }
}
