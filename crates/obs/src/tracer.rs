//! The span tracer and its thread-safe event sink.
//!
//! A [`Tracer`] is a cheap clonable handle. [`Tracer::disabled`] (the
//! default) carries no sink at all: every recording method starts with a
//! branch on `inner.is_none()` and returns before any formatting or
//! allocation happens, which is what keeps instrumented hot paths zero-cost
//! when observability is off. [`Tracer::enabled`] shares one mutex-guarded
//! event log between all clones.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use crate::flight::{FlightKind, FlightRecorder};
use crate::hist::HistogramRegistry;
use crate::report::Report;

/// One recorded observability event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span opened.
    SpanStart {
        /// Span id, unique within the tracer.
        id: u64,
        /// Enclosing span, if any.
        parent: Option<u64>,
        /// Span name.
        name: String,
        /// Microseconds since the tracer was created.
        at_us: u64,
    },
    /// A span closed (its guard dropped).
    SpanEnd {
        /// The span that closed.
        id: u64,
        /// Microseconds since the tracer was created.
        at_us: u64,
    },
    /// A named counter increment, attributed to the innermost open span.
    Counter {
        /// Owning span (`None` at top level).
        span: Option<u64>,
        /// Counter name.
        name: String,
        /// Amount added.
        delta: u64,
    },
    /// A named gauge sample (last write wins per span).
    Gauge {
        /// Owning span (`None` at top level).
        span: Option<u64>,
        /// Gauge name.
        name: String,
        /// Sampled value.
        value: f64,
    },
    /// A key/value annotation.
    Note {
        /// Owning span (`None` at top level).
        span: Option<u64>,
        /// Annotation key.
        key: String,
        /// Annotation value.
        value: String,
    },
}

#[derive(Debug)]
struct State {
    events: Vec<Event>,
    /// Open-span stacks, one per thread; metrics recorded by a thread
    /// attach to the top of *that thread's* stack. Keeping the stacks
    /// per-thread is what lets scoped threads (a `par_map` fan-out, a
    /// speculated signal count) trace concurrently without corrupting
    /// each other's span nesting.
    stacks: HashMap<ThreadId, Vec<u64>>,
    next_span: u64,
}

impl State {
    fn current_span(&self) -> Option<u64> {
        self.stacks
            .get(&std::thread::current().id())
            .and_then(|s| s.last().copied())
    }
}

#[derive(Debug)]
struct Sink {
    epoch: Instant,
    state: Mutex<State>,
}

impl Sink {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        lock(&self.state)
    }
}

/// Locks `mutex`, recovering it from a panicking holder: a panicking
/// instrumented thread must not take observability down with it, and
/// every log it leaves is still valid.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Histogram observations as `(name, value)`, in the order recorded.
type HeldObservations = Vec<(String, u64)>;

/// A clonable tracing handle. See the module docs for the enabled/disabled
/// design.
///
/// Beyond the event sink, a tracer can carry three always-on
/// attachments, each independent of whether the sink is enabled:
///
/// * a [`FlightRecorder`] ([`Tracer::with_flight`]) receiving compact
///   span/counter/fault events on a bounded ring behind one mutex;
/// * a [`HistogramRegistry`] ([`Tracer::with_histograms`]) receiving
///   latency/size observations via [`Tracer::record_hist`] (a
///   [`Tracer::detached`] tracer holds them back instead);
/// * a trace id ([`Tracer::with_trace`]) stamped onto every flight event,
///   which is how one request's events are found again in the shared ring.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Sink>>,
    flight: Option<FlightRecorder>,
    hists: Option<HistogramRegistry>,
    /// A detached tracer's histogram observations, held in order until
    /// [`Tracer::adopt`] records them: a plain log, since a registry
    /// costs 15 KB per histogram.
    held: Option<Arc<Mutex<HeldObservations>>>,
    trace_id: u64,
}

impl Tracer {
    /// A tracer that records events (shared by all clones).
    pub fn enabled() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Sink {
                epoch: Instant::now(),
                state: Mutex::new(State {
                    events: Vec::new(),
                    stacks: HashMap::new(),
                    next_span: 0,
                }),
            })),
            ..Tracer::default()
        }
    }

    /// The no-op tracer: every method returns immediately without locking,
    /// formatting or allocating.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// Whether events are being recorded. Callers computing anything
    /// non-trivial purely for tracing should branch on this first.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether *any* observability is attached: the event sink, a flight
    /// recorder, or a histogram registry. Instrumented paths that would
    /// skip tracing entirely must branch on this, not [`Tracer::is_enabled`],
    /// or always-on telemetry silently disappears.
    pub fn is_observed(&self) -> bool {
        self.inner.is_some() || self.flight.is_some() || self.records_hists()
    }

    /// Whether [`Tracer::record_hist`] keeps its observations.
    fn records_hists(&self) -> bool {
        self.hists.is_some() || self.held.is_some()
    }

    /// This tracer with `recorder` attached; all derived clones record
    /// flight events into it.
    pub fn with_flight(&self, recorder: FlightRecorder) -> Tracer {
        Tracer {
            flight: Some(recorder),
            ..self.clone()
        }
    }

    /// This tracer with `hists` attached; [`Tracer::record_hist`] calls on
    /// derived clones land in it.
    pub fn with_histograms(&self, hists: HistogramRegistry) -> Tracer {
        Tracer {
            hists: Some(hists),
            ..self.clone()
        }
    }

    /// This tracer stamped with `trace_id` (a cheap clone; the serving
    /// path makes one per request and threads it through the job).
    pub fn with_trace(&self, trace_id: u64) -> Tracer {
        Tracer {
            trace_id,
            ..self.clone()
        }
    }

    /// The trace id stamped on flight events; 0 when untraced.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// A tracer with the same trace id and, for each of this tracer's
    /// event sink, flight recorder and histograms, an empty one of its
    /// own (for histograms, a log of observations). Work whose
    /// observations may be thrown away records into one, and
    /// [`Tracer::adopt`] moves what is kept back here; what is never
    /// adopted reaches none of this tracer's attachments.
    pub fn detached(&self) -> Tracer {
        Tracer {
            inner: self.inner.as_ref().and_then(|_| Tracer::enabled().inner),
            flight: self.flight.as_ref().map(|_| FlightRecorder::new()),
            hists: None,
            held: self.records_hists().then(Default::default),
            trace_id: self.trace_id,
        }
    }

    /// Moves everything `other` recorded into this tracer's attachments,
    /// as if it had been recorded here: histogram observations in order,
    /// flight events in order, stamped now, and sink events in order under
    /// the calling thread's innermost open span. `other`'s spans are
    /// renumbered and keep their place in time; its root spans and
    /// top-level metrics attach to that innermost span. Attachments only
    /// one of the two tracers has are left alone.
    pub fn adopt(&self, other: &Tracer) {
        if let Some(held) = &other.held {
            let observations = std::mem::take(&mut *lock(held));
            for (name, value) in observations {
                self.record_hist(&name, value);
            }
        }
        if let (Some(to), Some(from)) = (&self.flight, &other.flight) {
            to.absorb(from);
        }
        let (Some(sink), Some(from)) = (&self.inner, &other.inner) else {
            return;
        };
        let (events, spans) = {
            let mut st = from.lock();
            (std::mem::take(&mut st.events), st.next_span)
        };
        let shift = from.epoch.saturating_duration_since(sink.epoch).as_micros() as u64;
        let mut st = sink.lock();
        let base = st.next_span;
        st.next_span += spans;
        let at = st.current_span();
        let owner = |span: Option<u64>| span.map(|id| base + id).or(at);
        st.events
            .extend(events.into_iter().map(|event| match event {
                Event::SpanStart {
                    id,
                    parent,
                    name,
                    at_us,
                } => Event::SpanStart {
                    id: base + id,
                    parent: owner(parent),
                    name,
                    at_us: at_us + shift,
                },
                Event::SpanEnd { id, at_us } => Event::SpanEnd {
                    id: base + id,
                    at_us: at_us + shift,
                },
                Event::Counter { span, name, delta } => Event::Counter {
                    span: owner(span),
                    name,
                    delta,
                },
                Event::Gauge { span, name, value } => Event::Gauge {
                    span: owner(span),
                    name,
                    value,
                },
                Event::Note { span, key, value } => Event::Note {
                    span: owner(span),
                    key,
                    value,
                },
            }));
    }

    /// Records `value` into the named histogram; a no-op without a
    /// registry attached.
    pub fn record_hist(&self, name: &str, value: u64) {
        if let Some(hists) = &self.hists {
            hists.record(name, value);
        } else if let Some(held) = &self.held {
            lock(held).push((name.to_string(), value));
        }
    }

    /// Records one flight event; a no-op without a recorder attached.
    pub fn flight_event(&self, kind: FlightKind, name: &'static str, value: u64) {
        if let Some(flight) = &self.flight {
            flight.record(kind, name, self.trace_id, value);
        }
    }

    /// Opens a flight-recorder span: a `SpanOpen` event now, a `SpanClose`
    /// carrying the duration in µs when the guard drops (also on unwind).
    /// Independent of [`Tracer::span`] — flight spans survive in the ring
    /// after the sink's unbounded log would be unaffordable.
    pub fn flight_span(&self, name: &'static str) -> FlightSpanGuard {
        let Some(flight) = &self.flight else {
            return FlightSpanGuard {
                flight: None,
                name,
                trace: 0,
                opened_us: 0,
            };
        };
        flight.record(FlightKind::SpanOpen, name, self.trace_id, 0);
        FlightSpanGuard {
            flight: Some(flight.clone()),
            name,
            trace: self.trace_id,
            opened_us: flight.now_us(),
        }
    }

    /// Opens a nested span; it closes when the returned guard drops (also
    /// on unwind).
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(sink) = &self.inner else {
            return SpanGuard {
                tracer: Tracer::disabled(),
                id: None,
            };
        };
        let at_us = sink.now_us();
        let mut st = sink.lock();
        let id = st.next_span;
        st.next_span += 1;
        let parent = st.current_span();
        st.events.push(Event::SpanStart {
            id,
            parent,
            name: name.to_string(),
            at_us,
        });
        st.stacks
            .entry(std::thread::current().id())
            .or_default()
            .push(id);
        SpanGuard {
            tracer: self.clone(),
            id: Some(id),
        }
    }

    /// Adds `delta` to the named counter of the innermost open span.
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(sink) = &self.inner else { return };
        let mut st = sink.lock();
        let span = st.current_span();
        st.events.push(Event::Counter {
            span,
            name: name.to_string(),
            delta,
        });
    }

    /// Samples the named gauge on the innermost open span.
    pub fn gauge(&self, name: &str, value: f64) {
        let Some(sink) = &self.inner else { return };
        let mut st = sink.lock();
        let span = st.current_span();
        st.events.push(Event::Gauge {
            span,
            name: name.to_string(),
            value,
        });
    }

    /// Attaches a key/value annotation to the innermost open span.
    pub fn note(&self, key: &str, value: &str) {
        let Some(sink) = &self.inner else { return };
        let mut st = sink.lock();
        let span = st.current_span();
        st.events.push(Event::Note {
            span,
            key: key.to_string(),
            value: value.to_string(),
        });
    }

    /// A snapshot of all events recorded so far.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            None => Vec::new(),
            Some(sink) => sink.lock().events.clone(),
        }
    }

    /// Builds the aggregated [`Report`] (span tree + metrics) from the
    /// events recorded so far.
    pub fn report(&self) -> Report {
        match &self.inner {
            None => Report::from_events(&[], 0),
            Some(sink) => {
                let now = sink.now_us();
                Report::from_events(&sink.lock().events, now)
            }
        }
    }
}

/// Closes its flight span on drop, recording the duration. Returned by
/// [`Tracer::flight_span`].
#[derive(Debug)]
pub struct FlightSpanGuard {
    flight: Option<FlightRecorder>,
    name: &'static str,
    trace: u64,
    opened_us: u64,
}

impl Drop for FlightSpanGuard {
    fn drop(&mut self) {
        if let Some(flight) = &self.flight {
            let dur_us = flight.now_us().saturating_sub(self.opened_us);
            flight.record(FlightKind::SpanClose, self.name, self.trace, dur_us);
        }
    }
}

/// Closes its span on drop. Returned by [`Tracer::span`].
#[derive(Debug)]
pub struct SpanGuard {
    tracer: Tracer,
    id: Option<u64>,
}

impl SpanGuard {
    /// The span id, `None` for a disabled tracer.
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let Some(sink) = &self.tracer.inner else {
            return;
        };
        let at_us = sink.now_us();
        let mut st = sink.lock();
        // Guards are usually dropped LIFO on the thread that opened them,
        // but tolerate out-of-order and cross-thread drops: prefer the
        // dropping thread's stack, then search the others.
        let tid = std::thread::current().id();
        let mut removed = false;
        if let Some(stack) = st.stacks.get_mut(&tid) {
            if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                stack.remove(pos);
                removed = true;
            }
        }
        if !removed {
            for stack in st.stacks.values_mut() {
                if let Some(pos) = stack.iter().rposition(|&s| s == id) {
                    stack.remove(pos);
                    break;
                }
            }
        }
        st.stacks.retain(|_, stack| !stack.is_empty());
        st.events.push(Event::SpanEnd { id, at_us });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        let _span = t.span("x");
        t.counter("c", 1);
        t.gauge("g", 1.0);
        t.note("k", "v");
        assert!(t.events().is_empty());
    }

    #[test]
    fn adopted_events_nest_under_the_open_span() {
        let t = Tracer::enabled();
        let _outer = t.span("outer");
        let kept = t.detached();
        let dropped = t.detached();
        assert!(kept.is_enabled() && kept.events().is_empty());
        {
            let _a = kept.span("attempt");
            kept.counter("conflicts", 3);
            let _b = kept.span("solve");
        }
        kept.note("top", "level");
        drop(dropped.span("cancelled"));
        let _mid = t.span("mid");
        drop(_mid);
        t.adopt(&kept);
        assert!(kept.events().is_empty(), "adopting drains the source");
        assert!(Tracer::disabled().detached().events().is_empty());

        let report = t.report();
        assert_eq!(report.roots.len(), 1);
        let outer = &report.roots[0];
        let names: Vec<&str> = outer.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["mid", "attempt"]);
        let attempt = &outer.children[1];
        assert_eq!(attempt.counter("conflicts"), Some(3));
        assert_eq!(attempt.children[0].name, "solve");
        assert_eq!(outer.note("top"), Some("level"));
        assert!(report.spans_with_prefix("cancelled").is_empty());
        // Fresh spans do not reuse an adopted id.
        let _next = t.span("next");
        let ids: Vec<u64> = t
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }

    #[test]
    fn only_adopted_work_reaches_the_flight_recorder_and_histograms() {
        let (flight, hists) = (FlightRecorder::new(), HistogramRegistry::new());
        let t = Tracer::disabled()
            .with_flight(flight.clone())
            .with_histograms(hists.clone())
            .with_trace(9);
        let (kept, dropped) = (t.detached(), t.detached());
        assert!(kept.is_observed() && !kept.is_enabled());
        for (tracer, value) in [(&kept, 4), (&dropped, 5)] {
            drop(tracer.flight_span("sat.solve"));
            tracer.record_hist("sat_conflicts", value);
        }
        assert!(flight.snapshot().is_empty() && hists.snapshot().is_empty());
        t.adopt(&kept);
        let events = flight.snapshot();
        let kinds: Vec<_> = events.iter().map(|e| (e.kind, e.name, e.trace)).collect();
        assert_eq!(
            kinds,
            [
                (FlightKind::SpanOpen, "sat.solve", 9),
                (FlightKind::SpanClose, "sat.solve", 9)
            ]
        );
        let snapshot = hists.snapshot();
        assert_eq!(snapshot.len(), 1);
        assert_eq!((snapshot[0].1.count(), snapshot[0].1.max()), (1, 4));
        // Histograms alone still make a detached tracer observed.
        let only_hists = Tracer::disabled().with_histograms(hists.clone());
        let side = only_hists.detached();
        assert!(side.is_observed());
        side.record_hist("sat_conflicts", 6);
        only_hists.adopt(&side);
        only_hists.adopt(&side);
        assert_eq!(hists.snapshot()[0].1.count(), 2, "adopted once");
    }

    #[test]
    fn spans_nest_and_attribute_metrics() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("outer");
            t.counter("top", 1);
            {
                let _inner = t.span("inner");
                t.counter("deep", 2);
            }
        }
        let events = t.events();
        let ids: Vec<(u64, Option<u64>)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { id, parent, .. } => Some((*id, *parent)),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![(0, None), (1, Some(0))]);
        assert!(events.iter().any(
            |e| matches!(e, Event::Counter { span: Some(0), name, delta: 1 } if name == "top")
        ));
        assert!(events.iter().any(
            |e| matches!(e, Event::Counter { span: Some(1), name, delta: 2 } if name == "deep")
        ));
        let ends = events
            .iter()
            .filter(|e| matches!(e, Event::SpanEnd { .. }))
            .count();
        assert_eq!(ends, 2);
    }

    #[test]
    fn span_closes_on_unwind() {
        let t = Tracer::enabled();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _span = t.span("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        let events = t.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnd { id: 0, .. })),
            "span did not close on unwind: {events:?}"
        );
        // The stack unwound too: a new span is a root again.
        let _after = t.span("after");
        assert!(t
            .events()
            .iter()
            .any(|e| matches!(e, Event::SpanStart { parent: None, name, .. } if name == "after")));
    }

    #[test]
    fn clones_share_the_sink_across_threads() {
        let t = Tracer::enabled();
        let t2 = t.clone();
        let handle = std::thread::spawn(move || {
            t2.counter("thread", 5);
        });
        handle.join().unwrap();
        t.counter("main", 1);
        let events = t.events();
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::Counter { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn worker_threads_get_independent_span_stacks() {
        let t = Tracer::enabled();
        let _main = t.span("main");
        let t2 = t.clone();
        std::thread::spawn(move || {
            let _w = t2.span("worker");
            t2.counter("work", 1);
        })
        .join()
        .unwrap();
        t.counter("steps", 1);
        let events = t.events();
        // The worker span roots at its own thread, not under "main"...
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::SpanStart { parent: None, name, .. } if name == "worker")));
        // ...its counter attaches to it...
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Counter { span: Some(1), name, .. } if name == "work")));
        // ...and the main thread's stack is untouched by the worker.
        assert!(events
            .iter()
            .any(|e| matches!(e, Event::Counter { span: Some(0), name, .. } if name == "steps")));
    }

    #[test]
    fn attachments_work_with_a_disabled_sink() {
        let flight = FlightRecorder::with_capacity(32);
        let hists = HistogramRegistry::new();
        let t = Tracer::disabled()
            .with_flight(flight.clone())
            .with_histograms(hists.clone())
            .with_trace(0xabcd);
        assert!(!t.is_enabled());
        assert!(t.is_observed());
        {
            let _fs = t.flight_span("work");
            t.flight_event(FlightKind::Counter, "steps", 3);
            t.record_hist("latency_us", 120);
        }
        assert!(t.events().is_empty(), "the sink stays off");
        let events = flight.events_for_trace(0xabcd);
        let names: Vec<&str> = events.iter().map(|e| e.name).collect();
        assert_eq!(names, ["work", "steps", "work"]);
        assert_eq!(events[0].kind, FlightKind::SpanOpen);
        assert_eq!(events[2].kind, FlightKind::SpanClose);
        assert_eq!(hists.snapshot()[0].1.count(), 1);
    }

    #[test]
    fn with_trace_isolates_requests_in_the_shared_ring() {
        let flight = FlightRecorder::with_capacity(32);
        let base = Tracer::disabled().with_flight(flight.clone());
        assert_eq!(base.trace_id(), 0);
        let a = base.with_trace(1);
        let b = base.with_trace(2);
        a.flight_event(FlightKind::Counter, "a", 0);
        b.flight_event(FlightKind::Counter, "b", 0);
        assert_eq!(flight.events_for_trace(1).len(), 1);
        assert_eq!(flight.events_for_trace(2).len(), 1);
        assert_eq!(flight.events_for_trace(1)[0].name, "a");
    }

    #[test]
    fn flight_span_closes_on_unwind() {
        let flight = FlightRecorder::with_capacity(8);
        let t = Tracer::disabled().with_flight(flight.clone());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _fs = t.flight_span("doomed");
            panic!("boom");
        }));
        assert!(result.is_err());
        let kinds: Vec<FlightKind> = flight.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [FlightKind::SpanOpen, FlightKind::SpanClose]);
    }

    #[test]
    fn out_of_order_guard_drop_is_tolerated() {
        let t = Tracer::enabled();
        let a = t.span("a");
        let b = t.span("b");
        drop(a); // drop outer first
        t.counter("after", 1);
        drop(b);
        // "after" attaches to b, the only still-open span.
        assert!(t
            .events()
            .iter()
            .any(|e| matches!(e, Event::Counter { span: Some(1), .. })));
    }
}
