//! Host-time instrumentation the benchmark wraps around the public
//! calls it makes: the one clock read, a span recorder for the traced
//! run, and a timing [`TraceSource`] wrapper.

use std::fmt::Write as _;
use std::time::Instant;

use litmus_platform::{TraceEvent, TraceSource};

/// Reads the host clock. Every timing in the benchmark starts here.
pub fn now() -> Instant {
    Instant::now() // lint:allow(wall-clock): benchmark timing around public calls; the reading never reaches simulated state
}

/// Host seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// One recorded span: a layer-tagged host-time interval and the span
/// that was open when it began.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled recorders ignore every call, so
/// the timed runs carry no tracing cost; enabled ones keep every span
/// until [`Tracer::to_jsonl`] writes them out at the end of the run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that keeps spans (`enabled`) or ignores them.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.offset_ns(now());
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.offset_ns(now());
        let id = self.open.pop().expect("exit matches an enter");
        self.spans[id].end_ns = end_ns;
    }

    /// Records an interval measured elsewhere (e.g. by
    /// [`TimedSource`]) as a child of the innermost open span.
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            parent: self.open.last().copied(),
            layer,
            name,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
    }

    /// Every span as one JSON object per line, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.layer, span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// A [`TraceSource`] wrapper that times every pull of the inner source
/// and remembers when (host time) each simulated arrival was pulled.
pub struct TimedSource<S> {
    inner: S,
    /// `(host instant, sim arrival ms)` of every event pulled.
    pulls: Vec<(Instant, u64)>,
    /// Host time spent inside the inner `next_event`, ns.
    pull_ns: u64,
    /// Host instant of the first pull that found the source exhausted.
    exhausted: Option<Instant>,
}

impl<S: TraceSource> TimedSource<S> {
    /// Wraps `inner`; nothing is pulled until the replay asks.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            pulls: Vec::new(),
            pull_ns: 0,
            exhausted: None,
        }
    }

    /// Events pulled so far.
    pub fn events(&self) -> usize {
        self.pulls.len()
    }

    /// Host microseconds spent inside the inner source.
    pub fn pull_us(&self) -> f64 {
        self.pull_ns as f64 / 1e3
    }

    /// Host-time interval of each simulated day of length `day_ms`:
    /// from the first pull of an arrival in that day to the first pull
    /// of the next day (or to exhaustion, for the last day). Days with
    /// no arrivals are skipped.
    pub fn day_intervals(&self, day_ms: u64) -> Vec<(Instant, Instant)> {
        let mut starts: Vec<(u64, Instant)> = Vec::new();
        for &(at, sim_ms) in &self.pulls {
            let day = sim_ms / day_ms;
            if starts.last().is_none_or(|&(d, _)| d != day) {
                starts.push((day, at));
            }
        }
        let mut intervals = Vec::with_capacity(starts.len());
        for (i, &(_, start)) in starts.iter().enumerate() {
            let end = match starts.get(i + 1) {
                Some(&(_, next)) => next,
                None => match self.exhausted {
                    Some(end) => end,
                    None => break,
                },
            };
            intervals.push((start, end));
        }
        intervals
    }
}

impl<S: TraceSource> TraceSource for TimedSource<S> {
    fn next_event(&mut self) -> Option<TraceEvent> {
        let started = now();
        let event = self.inner.next_event();
        self.pull_ns += started.elapsed().as_nanos() as u64;
        match &event {
            Some(event) => self.pulls.push((started, event.at_ms)),
            None => {
                if self.exhausted.is_none() {
                    self.exhausted = Some(started);
                }
            }
        }
        event
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}
