//! The modsyn synthesis **service**: a zero-dependency HTTP daemon that
//! turns the one-shot synthesis pipeline into a serving system.
//!
//! `POST /synth` takes a `.g`-format STG and returns the synthesised,
//! two-level-minimised logic as JSON — but only after the independent
//! `modsyn-check` oracle has certified the result (consistency, CSC,
//! speed independence, observation equivalence). The service never serves
//! an uncertified circuit; Verbeek & Schmaltz's argument that verification
//! belongs *inside* the flow, applied to the request path.
//!
//! The serving shape mirrors a production inference stack:
//!
//! * **Content-addressed caching** — certified responses are stored under
//!   the canonical STG digest ([`modsyn_stg::stg_digest`]) and method, in
//!   the same byte-bounded LRU [`modsyn_store::SynthStore`] that holds the
//!   per-module solves ([`ServerConfig::store_bytes`]). Reformatted copies
//!   of the same STG hit the same entry; bodies are deterministic, so hits
//!   are byte-identical to computed responses.
//! * **Admission control** — a bounded queue in front of the synthesis
//!   gate ([`ServerConfig::jobs`] syntheses at once, each on its own
//!   connection thread); when it is full the service sheds load with
//!   `503` + `Retry-After` instead of queueing unboundedly.
//! * **Deadlines** — per-request [`modsyn_par::CancelToken`] deadlines
//!   (server-wide cap, client-shortenable via `timeout_ms`), surfacing as
//!   `504` with an `aborted` metric.
//! * **Hardening** — the hand-rolled HTTP/1.1 layer ([`http`]) maps every
//!   malformed input to a typed 4xx/5xx, and handler and synthesis panics
//!   are contained; nothing a client sends kills the accept loop.
//! * **Observability** — `GET /metrics` exposes counters (requests, cache
//!   hits/misses/evictions, shed, aborted, certified), gauges (queue
//!   depth, in-flight, connections) and log-scale latency histograms
//!   (per-endpoint × per-method request latency, queue wait, synthesis
//!   cpu time — p50/p90/p99/max), mirrored into `modsyn-obs` traces. Each
//!   line is read where it is counted: the server's own [`Metrics`], the
//!   synthesis store, or its journal.
//!   Every request carries a trace id (`X-Modsyn-Trace`, caller-suppliable)
//!   stamped on every event in the always-on, fixed-memory flight
//!   recorder; `GET /debug/flight?trace=<hex>` dumps a request's span
//!   chain after the fact, and an optional JSON access log writes one
//!   line per request.
//! * **Graceful drain** — `POST /shutdown` (or [`ServerHandle::shutdown`])
//!   stops the accept loop and waits for in-flight work.
//!
//! The `modsynd` binary wraps [`Server`] for the command line; the
//! `loadgen` binary in `modsyn-bench` replays the Table-1 suite against it
//! and writes `BENCH_serve.json`.
//!
//! # Example
//!
//! ```
//! use modsyn_svc::{client, Server, ServerConfig};
//! use std::time::Duration;
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServerConfig::default(), modsyn_obs::Tracer::disabled())?;
//! let handle = server.handle();
//! let thread = std::thread::spawn(move || server.run());
//!
//! let g = modsyn_stg::write_g(&modsyn_stg::benchmarks::by_name("vbe-ex1").unwrap());
//! let response = client::request(
//!     handle.addr(),
//!     "POST",
//!     "/synth?method=modular",
//!     g.as_bytes(),
//!     Duration::from_secs(30),
//! )?;
//! assert_eq!(response.status, 200);
//! assert_eq!(response.header("x-modsyn-cache"), Some("miss"));
//!
//! handle.shutdown();
//! thread.join().unwrap()?;
//! # Ok(())
//! # }
//! ```

pub mod breaker;
pub mod client;
pub mod http;
mod metrics;
mod server;

pub use breaker::{Admission, BreakerConfig, CircuitBreaker};
pub use http::{HttpError, Limits, Request, Response};
pub use metrics::{Gauge, GaugeGuard, Metrics};
pub use server::{render_report, AccessLog, Server, ServerConfig, ServerHandle};
