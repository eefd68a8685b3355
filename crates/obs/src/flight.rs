//! The always-on flight recorder: one bounded ring of compact events
//! behind one mutex.
//!
//! The [`crate::Tracer`] event sink is a mutex around an unbounded `Vec` —
//! right for a single CLI run, wrong for a daemon that must record every
//! request forever. The recorder trades detail for a hard bound: it holds
//! the newest events up to its capacity and overwrites the oldest after
//! that. A poison-tolerant mutex guards the ring. [`FlightRecorder::record`]
//! stamps each event's sequence number and timestamp under it, so ring
//! order is time order and a drain needs no sort. The lock is a leaf:
//! nothing else is locked or called back while it is held.
//!
//! Event names are `&'static str`, so an event is a plain copyable value.
//! Every event carries the recording tracer's trace id, which is what lets
//! `GET /debug/flight?trace=…` reconstruct one request's span chain out of
//! the shared ring.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use crate::json::Json;

/// Events a [`FlightRecorder::new`] ring holds before it overwrites the
/// oldest.
const CAPACITY: usize = 32_768;

/// What happened. The recorder's whole vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// A span opened (`value` unused).
    SpanOpen,
    /// A span closed (`value` = duration in µs).
    SpanClose,
    /// A counter-style observation (`value` = the amount).
    Counter,
    /// An armed fault site fired (`value` = how many times so far).
    Fault,
}

impl FlightKind {
    /// The kebab-case label used in JSON dumps.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::SpanOpen => "span-open",
            FlightKind::SpanClose => "span-close",
            FlightKind::Counter => "counter",
            FlightKind::Fault => "fault",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recorder-wide sequence number: the ring holds consecutive numbers,
    /// and the first one held is past 0 once older events were overwritten.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Trace id of the request that recorded it; 0 when untraced.
    pub trace: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Event name.
    pub name: &'static str,
    /// Kind-dependent payload (see [`FlightKind`]).
    pub value: u64,
}

impl FlightEvent {
    /// The event as a JSON object (trace rendered as 16-digit hex, the
    /// same form the `X-Modsyn-Trace` header uses).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("at_us", Json::from(self.at_us)),
            ("trace", Json::from(format!("{:016x}", self.trace))),
            ("kind", Json::from(self.kind.label())),
            ("name", Json::from(self.name)),
            ("value", Json::from(self.value)),
        ])
    }
}

#[derive(Debug)]
struct Ring {
    /// The held events, oldest first.
    events: VecDeque<FlightEvent>,
    /// Events ever recorded; the next event's `seq`.
    recorded: u64,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    capacity: usize,
    ring: Mutex<Ring>,
}

/// A cheap clonable handle to the shared ring. See the module docs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Inner>,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::with_capacity(CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the newest 32,768 events.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder holding the newest `capacity` events (at least 1). The
    /// ring grows as events arrive, up to `capacity`.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                capacity: capacity.max(1),
                ring: Mutex::new(Ring {
                    events: VecDeque::new(),
                    recorded: 0,
                }),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Ring> {
        // Nothing under the lock panics and every ring state is valid, so
        // a poisoned lock is recovered rather than passed on.
        self.inner
            .ring
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Microseconds since the recorder was created (the `at_us` clock).
    pub fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    /// How many events the ring holds before it overwrites the oldest.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Total events ever recorded (including ones already overwritten).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// Records one event, overwriting the oldest once the ring is full.
    pub fn record(&self, kind: FlightKind, name: &'static str, trace: u64, value: u64) {
        let mut ring = self.lock();
        let event = FlightEvent {
            seq: ring.recorded,
            at_us: self.now_us(),
            trace,
            kind,
            name,
            value,
        };
        ring.recorded += 1;
        if ring.events.len() == self.inner.capacity {
            ring.events.pop_front();
        }
        ring.events.push_back(event);
    }

    /// Records every event `other` holds here, oldest first, and empties
    /// `other`. Each is stamped anew, so ring order stays time order; a
    /// `SpanClose` keeps the duration it measured.
    pub fn absorb(&self, other: &FlightRecorder) {
        if Arc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let events = std::mem::take(&mut other.lock().events);
        for e in events {
            self.record(e.kind, e.name, e.trace, e.value);
        }
    }

    /// The held events, oldest first. May be called at any moment,
    /// including while writers are recording.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        self.lock().events.iter().copied().collect()
    }

    /// [`FlightRecorder::snapshot`] filtered to one trace id.
    pub fn events_for_trace(&self, trace: u64) -> Vec<FlightEvent> {
        let ring = self.lock();
        ring.events
            .iter()
            .filter(|e| e.trace == trace)
            .copied()
            .collect()
    }

    /// Renders events as the `/debug/flight` JSON document.
    pub fn to_json(events: &[FlightEvent]) -> Json {
        Json::obj([
            ("count", Json::from(events.len())),
            (
                "events",
                Json::Arr(events.iter().map(FlightEvent::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_drains_in_order() {
        let rec = FlightRecorder::with_capacity(16);
        rec.record(FlightKind::SpanOpen, "a", 7, 0);
        rec.record(FlightKind::Counter, "b", 7, 42);
        rec.record(FlightKind::SpanClose, "a", 7, 3);
        let events = rec.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.name).collect::<Vec<_>>(),
            ["a", "b", "a"]
        );
        assert_eq!(events[1].kind, FlightKind::Counter);
        assert_eq!(events[1].value, 42);
        assert!(events.iter().all(|e| e.trace == 7));
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn absorbed_events_are_recorded_anew() {
        let rec = FlightRecorder::with_capacity(16);
        let side = FlightRecorder::with_capacity(16);
        side.record(FlightKind::SpanOpen, "s", 5, 0);
        rec.record(FlightKind::Counter, "c", 7, 1);
        side.record(FlightKind::SpanClose, "s", 5, 9);
        rec.absorb(&side);
        rec.absorb(&rec);
        assert!(side.snapshot().is_empty(), "absorbing drains the source");
        let events = rec.snapshot();
        let seen: Vec<_> = events
            .iter()
            .map(|e| (e.seq, e.name, e.trace, e.value))
            .collect();
        assert_eq!(seen, [(0, "c", 7, 1), (1, "s", 5, 0), (2, "s", 5, 9)]);
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn ring_wraps_keeping_the_newest_events() {
        let rec = FlightRecorder::with_capacity(8);
        for i in 0..50u64 {
            rec.record(FlightKind::Counter, "tick", 0, i);
        }
        assert_eq!(rec.recorded(), 50);
        let events = rec.snapshot();
        assert_eq!(events.len(), 8, "bounded by capacity");
        let values: Vec<u64> = events.iter().map(|e| e.value).collect();
        assert_eq!(values, (42..50).collect::<Vec<_>>(), "newest survive");
    }

    #[test]
    fn trace_filter_selects_one_request() {
        let rec = FlightRecorder::with_capacity(64);
        for i in 0..10u64 {
            rec.record(FlightKind::Counter, "x", i % 3, i);
        }
        let ours = rec.events_for_trace(1);
        assert!(!ours.is_empty());
        assert!(ours.iter().all(|e| e.trace == 1));
        assert!(rec.events_for_trace(99).is_empty());
    }

    #[test]
    fn concurrent_writers_and_drains_stay_well_formed() {
        let rec = FlightRecorder::with_capacity(256);
        let writers: Vec<_> = (0..8)
            .map(|t| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        rec.record(FlightKind::Counter, "spin", t, i);
                    }
                })
            })
            .collect();
        // Drain repeatedly while writers hammer the ring.
        for _ in 0..50 {
            let events = rec.snapshot();
            assert!(events.windows(2).all(|w| w[1].seq == w[0].seq + 1));
            assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
            for e in events {
                assert_eq!(e.name, "spin");
                assert_eq!(e.kind, FlightKind::Counter);
                assert!(e.trace < 8 && e.value < 500, "{e:?}");
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        let recorded = rec.recorded();
        assert_eq!(recorded, 8 * 500);
        // One sequence across all writers: the ring holds the newest
        // `capacity` numbers, consecutive, ending at the last one issued.
        let seqs: Vec<u64> = rec.snapshot().iter().map(|e| e.seq).collect();
        let held = recorded.min(rec.capacity() as u64);
        assert_eq!(seqs, (recorded - held..recorded).collect::<Vec<_>>());
    }

    #[test]
    fn json_dump_round_trips() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(FlightKind::SpanOpen, "svc.request", 0xdead_beef, 0);
        let json = FlightRecorder::to_json(&rec.snapshot());
        let text = json.pretty();
        let parsed = crate::parse_json(&text).unwrap();
        let events = parsed.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("trace").and_then(Json::as_str),
            Some("00000000deadbeef")
        );
        assert_eq!(
            events[0].get("kind").and_then(Json::as_str),
            Some("span-open")
        );
        assert_eq!(events[0].get("seq").and_then(Json::as_f64), Some(0.0));
        assert!(events[0].get("shard").is_none());
    }
}
