//! Zero-dependency observability for the modsyn pipeline.
//!
//! Per the workspace §5 dependency policy this crate uses the standard
//! library only — no `tracing`, no `serde`. It provides:
//!
//! * [`Tracer`] — a clonable handle recording nested spans with monotonic
//!   timings, named counters, gauges and notes into a thread-safe sink.
//!   [`Tracer::disabled`] is a true no-op: every recording method branches
//!   on an `Option` and returns before any formatting or allocation, so
//!   instrumented code paths cost one branch when observability is off.
//! * [`Report`] — the aggregated span tree with a human-readable summary
//!   renderer ([`Report::render`]) and a machine-readable dump
//!   ([`Report::to_json`]).
//! * [`Json`] — a small hand-rolled JSON value with correct string
//!   escaping, a writer (compact and pretty) and a parser for round-trip
//!   tests and downstream tooling.
//! * [`FlightRecorder`] — the always-on flight recorder: one bounded ring
//!   of compact trace-tagged events behind one mutex, drainable at any
//!   moment (`/debug/flight` in `modsynd`).
//! * [`Histogram`] / [`HistogramRegistry`] — log-scale fixed-bucket
//!   latency histograms, named in one locked registry, with percentile
//!   queries (the `p50/p90/p99/max` lines on `GET /metrics`).
//!
//! A [`Tracer`] ties the three planes together: the event sink is opt-in,
//! while a flight recorder, histogram registry and per-request trace id
//! ([`Tracer::with_flight`], [`Tracer::with_histograms`],
//! [`Tracer::with_trace`]) ride on any tracer — including a disabled one.
//! Each recorded flight event or histogram observation takes one short
//! lock (the ring's, or the registry's map); the daemon keeps both on.
//!
//! # Example
//!
//! ```
//! use modsyn_obs::Tracer;
//!
//! let tracer = Tracer::enabled();
//! {
//!     let _solve = tracer.span("sat.solve");
//!     tracer.gauge("vars", 120.0);
//!     tracer.counter("conflicts", 17);
//! }
//! let report = tracer.report();
//! assert_eq!(report.roots[0].name, "sat.solve");
//! assert_eq!(report.roots[0].counter("conflicts"), Some(17));
//! println!("{}", report.render());
//! let json = report.to_json().pretty();
//! assert!(modsyn_obs::parse_json(&json).is_ok());
//! ```

mod flight;
mod hist;
mod json;
mod report;
mod tracer;

pub use flight::{FlightEvent, FlightKind, FlightRecorder};
pub use hist::{Histogram, HistogramRegistry};
pub use json::{escape_into, parse_json, Json, JsonError};
pub use report::{Report, SpanNode};
pub use tracer::{Event, FlightSpanGuard, SpanGuard, Tracer};
