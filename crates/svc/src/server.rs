//! The synthesis server: accept loop, routing, admission control, drain.
//!
//! ## Request lifecycle (`POST /synth`)
//!
//! 1. The accept loop hands the connection to a handler thread (bounded by
//!    [`ServerConfig::max_connections`]; beyond it the listener answers
//!    503 inline without spawning).
//! 2. The handler parses the request ([`crate::http`]) — every malformed
//!    input is a typed 4xx/5xx, and a handler panic is contained by a
//!    `catch_unwind` guard, so nothing a client sends can take down the
//!    accept loop.
//! 3. The request is assigned a **trace id** — the client's
//!    `X-Modsyn-Trace` header when it sent one, a fresh id otherwise. The
//!    id is stamped on every flight-recorder event the request produces
//!    (svc request → svc synth → retry ladder → SAT solve), echoed back as
//!    an `X-Modsyn-Trace` response header, written to the JSON access log,
//!    and queryable via `GET /debug/flight?trace=<hex>`.
//! 4. The body is parsed as a `.g` STG and keyed by its
//!    [`modsyn_stg::stg_digest`] and method ([`record_key`]) into the
//!    synthesis store. A hit returns the previously certified body
//!    verbatim (`X-Modsyn-Cache: hit`) without synthesising.
//! 5. A miss passes **admission control**: at most
//!    [`ServerConfig::queue_capacity`] misses may be admitted-but-unstarted;
//!    beyond that the request is shed with `503` + `Retry-After` instead
//!    of queueing unboundedly. The admission ticket is an RAII
//!    [`GaugeGuard`], so a miss that never starts still gives its slot
//!    back.
//! 6. The admitted miss then waits at the synthesis gate — at most
//!    [`ServerConfig::jobs`] syntheses run at once, counted in
//!    `modsynd_in_flight` — and runs on the connection thread that
//!    admitted it. A miss that enters while no other synthesis runs is
//!    lent the idle slots as extra threads (`SynthesisOptions::jobs`,
//!    capped by the machine's threads); they stay free for the next miss,
//!    which runs on one thread. It runs under one `catch_unwind`
//!    (a panic is a `500`, a `modsynd_panics_total` count and a breaker
//!    failure) and a [`CancelToken`] deadline — the smaller of the
//!    server-wide [`ServerConfig::request_timeout`] and the client's
//!    `timeout_ms` query parameter. A deadline that fires surfaces as `504`. Capacity
//!    failures (backtrack limit, injected solver aborts) climb the
//!    deterministic retry ladder (`modsyn::synthesize_with_retry_traced`,
//!    with the lavagno fallback disabled so the response method always
//!    matches the request) before the client sees an error.
//! 7. Every successful synthesis is certified against the independent
//!    `modsyn-check` oracle (consistency, CSC, speed independence,
//!    observation equivalence to the specification) *before* the 200 is
//!    written; an oracle rejection is a 500 and a `check_failures` metric
//!    — the service never serves an uncertified circuit.
//! 8. The certified body enters the store with the run's provenance, as
//!    one entry and one journal frame, before the 200 is written.
//!
//! Response bodies are deterministic (no timestamps or timing fields), so
//! identical requests produce byte-identical bodies whether computed or
//! cached; per-run timing travels in the `X-Modsyn-Cpu-Us` header only.
//!
//! ## Always-on observability
//!
//! The tracer handed to [`Server::bind`] is extended with a
//! [`FlightRecorder`] (the newest 32,768 events in one ring behind one
//! mutex; dumped by `GET /debug/flight`) and the metrics block's histogram
//! registry (per-endpoint × per-method request latency, queue wait,
//! synthesis cpu time, solver effort — rendered as quantile lines on
//! `GET /metrics`). Both stay on in production. Every flight event takes
//! the ring's lock and every histogram observation the registry's, and
//! each synthesis formats its `synth_cpu_us:<method>` histogram name.
//!
//! ## Drain
//!
//! [`ServerHandle::shutdown`] (wired to `POST /shutdown`) stops the accept
//! loop, then [`Server::run`] waits for open connections, and with them
//! every admitted synthesis, to finish before returning — SIGTERM-style
//! semantics without signal handlers, which `std` does not expose.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use modsyn::{certify_report, Method, Rejection, RetryPolicy, SynthesisError, SynthesisOptions};
use modsyn_fault::{site, Faults, SplitMix64};
use modsyn_obs::{FlightEvent, FlightKind, FlightRecorder, Json, Tracer};
use modsyn_par::{CancelToken, JobPanic};
use modsyn_petri::NetClass;
use modsyn_stg::{parse_g, stg_digest, Stg};
use modsyn_store::{
    record_key, restore_into, DurableConfig, DurableStore, Provenance, StoreLink, StoreSession,
    SynthRecord, SynthStore,
};

use crate::breaker::{Admission, BreakerConfig, CircuitBreaker};
use crate::http::{read_request, Limits, Request, Response};
use crate::metrics::{Gauge, GaugeGuard, Metrics};

/// Where the per-request JSON access log goes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum AccessLog {
    /// No access log (the default for embedded/test servers).
    #[default]
    Off,
    /// One JSON line per request on stderr (the `modsynd` default).
    Stderr,
    /// Append JSON lines to this file.
    File(PathBuf),
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// How many syntheses may run at once (at least one); further
    /// admitted misses wait for a slot on their connection threads.
    pub jobs: usize,
    /// Admitted-but-unstarted miss bound; beyond it `/synth` sheds with 503.
    pub queue_capacity: usize,
    /// Open-connection bound; beyond it the listener answers 503 inline.
    pub max_connections: usize,
    /// Byte bound of the synthesis store: module solves and certified
    /// responses together, each charged its encoded journal payload.
    /// Beyond it the least recently used entries are evicted.
    pub store_bytes: usize,
    /// Server-wide deadline for one synthesis run (`None` = unlimited).
    /// The client's `timeout_ms` query parameter can only shorten it.
    pub request_timeout: Option<Duration>,
    /// Socket read/write timeout (slowloris guard).
    pub io_timeout: Duration,
    /// How long [`Server::run`] waits for in-flight work on drain.
    pub drain_timeout: Duration,
    /// HTTP parser limits (head/body caps).
    pub limits: Limits,
    /// SAT backtrack limit forwarded to the solver (`None` = crate
    /// default). The Table-1 `direct` rows need a finite limit to fail
    /// fast instead of spinning for hours.
    pub backtrack_limit: Option<u64>,
    /// Per-method circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Fault-injection handle probed at the svc sites (`svc.*`), the
    /// store's `cache.evict-storm` site, and threaded into each synthesis
    /// run's `sat.*` sites. Inert by default.
    pub faults: Faults,
    /// Per-request access-log destination.
    pub access_log: AccessLog,
    /// Store persistence: a write-ahead journal plus atomic snapshot
    /// generations in this directory, so module solves, certified
    /// responses and their provenance survive a graceful drain and a
    /// `kill -9` alike. Recovery (snapshot load + journal replay) runs on
    /// a background thread after bind; `/synth` answers 503 +
    /// `Retry-After` and `/readyz` stays 503 until it finishes. `None`
    /// (the default) keeps the store memory-only.
    pub durable: Option<DurableConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs: modsyn_par::available_jobs(),
            queue_capacity: 64,
            max_connections: 256,
            store_bytes: DEFAULT_STORE_BYTES,
            request_timeout: Some(Duration::from_secs(60)),
            io_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(30),
            limits: Limits::default(),
            backtrack_limit: None,
            breaker: BreakerConfig::default(),
            faults: Faults::none(),
            access_log: AccessLog::Off,
            durable: None,
        }
    }
}

/// The default [`ServerConfig::store_bytes`]: 64 MiB.
const DEFAULT_STORE_BYTES: usize = 64 << 20;

#[derive(Debug)]
enum AccessSink {
    Off,
    Stderr,
    File(Mutex<std::fs::File>),
}

struct Shared {
    config: ServerConfig,
    metrics: Arc<Metrics>,
    /// The synthesis gate: the running count is `metrics.in_flight`,
    /// changed only under this lock so no more than `config.jobs` run;
    /// `synth_freed` wakes one waiter each time a synthesis finishes.
    synth_lock: Mutex<()>,
    synth_freed: Condvar,
    /// The machine's threads ([`modsyn_par::available_jobs`] at bind): the
    /// most a synthesis that enters alone uses ([`lent_jobs`]).
    cpus: usize,
    tracer: Tracer,
    flight: FlightRecorder,
    shutting_down: AtomicBool,
    /// True while background snapshot+journal recovery is still replaying;
    /// `/synth` sheds and `/readyz` answers 503 until it clears.
    recovering: AtomicBool,
    /// The synthesis store: per-module solves keyed by exact quotient
    /// renderings, plus certified responses with the provenance behind
    /// `/explain` — all serving state, under one byte bound.
    store: Arc<SynthStore>,
    /// One breaker per method, indexed by [`method_tag`].
    breakers: [CircuitBreaker; 4],
    /// Fresh-trace-id counter, mixed with `trace_salt` so ids from
    /// different server instances do not collide on restart.
    trace_seq: AtomicU64,
    trace_salt: u64,
    access: AccessSink,
}

impl Shared {
    fn injected_fault(&self, at: &'static str) {
        self.metrics.count(
            &self.metrics.injected_faults,
            &self.tracer,
            "injected_faults",
        );
        self.tracer.flight_event(FlightKind::Fault, at, 1);
    }

    /// Why this replica should not receive traffic now — `recovering`,
    /// `draining` or `breaker-open` — or `None` when it is ready. `/readyz`
    /// answers from this check and `modsynd_ready` renders it.
    fn unready(&self) -> Option<&'static str> {
        if self.recovering.load(Ordering::Acquire) {
            Some("recovering")
        } else if self.shutting_down.load(Ordering::Acquire) {
            Some("draining")
        } else if self.breakers.iter().any(|b| b.is_open(Instant::now())) {
            Some("breaker-open")
        } else {
            None
        }
    }

    /// Waits until fewer than [`ServerConfig::jobs`] syntheses run, then
    /// takes a slot; dropping the returned slot (unwinding included) gives
    /// it back and wakes a waiter. Also returns the threads the synthesis
    /// may use ([`lent_jobs`]).
    fn enter_synthesis(&self) -> (SynthSlot<'_>, usize) {
        let slots = self.config.jobs.max(1) as u64;
        let mut held = self
            .synth_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while self.metrics.in_flight.load(Ordering::Acquire) >= slots {
            held = self
                .synth_freed
                .wait(held)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let running = self.metrics.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
        (SynthSlot(self), lent_jobs(slots, running, self.cpus))
    }

    /// The `/metrics` exposition, read from each value's owner.
    fn render_metrics(&self) -> String {
        self.metrics.render(&self.store, self.unready().is_none())
    }

    /// A fresh nonzero trace id (0 means "untraced" throughout): one
    /// SplitMix64 step over the salted counter, so sequential ids look
    /// unrelated.
    fn next_trace(&self) -> u64 {
        let seq = self.trace_seq.fetch_add(1, Ordering::Relaxed);
        SplitMix64::new(self.trace_salt ^ seq).next_u64().max(1)
    }

    /// Writes one structured access-log line, if a sink is configured.
    fn log_access(
        &self,
        trace: u64,
        method: &str,
        path: &str,
        status: u16,
        latency_us: u64,
        endpoint: &str,
    ) {
        if matches!(self.access, AccessSink::Off) {
            return;
        }
        let line = Json::obj([
            ("trace", Json::from(format!("{trace:016x}"))),
            ("method", Json::from(method)),
            ("path", Json::from(path)),
            ("status", Json::from(u64::from(status))),
            ("latency_us", Json::from(latency_us)),
            ("endpoint", Json::from(endpoint)),
        ])
        .to_string();
        match &self.access {
            AccessSink::Off => {}
            AccessSink::Stderr => eprintln!("{line}"),
            AccessSink::File(file) => {
                use std::io::Write as _;
                let mut file = file.lock().unwrap_or_else(PoisonError::into_inner);
                let _ = writeln!(file, "{line}");
            }
        }
    }
}

/// The threads a synthesis entering the gate may use, with `running` of
/// `slots` taken (its own included): every slot, at most `cpus`, when it
/// enters alone, and one otherwise. The idle slots are lent, not
/// reserved, so a miss that arrives later still takes one at once and
/// the two share the machine until the first ends. A miss that enters
/// beside a running one gets no extra threads: with four clients on four
/// slots (`loadgen --concurrency 4 --jobs 4`, 2 vCPUs), lending every
/// miss its idle slots raised the cold pass's median latency from 4.0 to
/// 5.8 ms, while lending to a lone miss only left it at 3.8 ms.
fn lent_jobs(slots: u64, running: u64, cpus: usize) -> usize {
    if running == 1 {
        (slots as usize).min(cpus)
    } else {
        1
    }
}

/// One running synthesis's slot at the gate ([`Shared::enter_synthesis`]).
struct SynthSlot<'a>(&'a Shared);

impl Drop for SynthSlot<'_> {
    fn drop(&mut self) {
        let shared = self.0;
        let _held = shared
            .synth_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        shared.metrics.in_flight.fetch_sub(1, Ordering::AcqRel);
        shared.synth_freed.notify_one();
    }
}

/// A bound, not-yet-running server. [`Server::run`] consumes it.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

/// A cloneable remote control for a running [`Server`].
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server actually bound.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics the server itself counts.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// The full exposition `GET /metrics` answers with, rendered now:
    /// the server's counters, the store's and its journal's, and
    /// readiness.
    pub fn render_metrics(&self) -> String {
        self.shared.render_metrics()
    }

    /// The always-on flight recorder (the ring `GET /debug/flight`
    /// dumps).
    pub fn flight(&self) -> FlightRecorder {
        self.shared.flight.clone()
    }

    /// The synthesis store behind `/synth`, `/synth/incr` and `/explain`.
    pub fn store(&self) -> Arc<SynthStore> {
        Arc::clone(&self.shared.store)
    }

    /// Initiates a graceful drain: stop accepting, finish what's running.
    pub fn shutdown(&self) {
        if self.shared.shutting_down.swap(true, Ordering::AcqRel) {
            return; // already draining
        }
        self.shared.tracer.note("shutdown", "requested");
        // Poke the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

impl Server {
    /// Binds `config.addr` and builds the store, metrics and flight
    /// recorder. The given tracer is extended with the recorder and the
    /// metrics histograms, so the handler, retry ladder and solver all
    /// feed the always-on planes whether or not the event sink is enabled.
    ///
    /// # Errors
    ///
    /// The bind failure verbatim, or opening the access-log file.
    pub fn bind(config: ServerConfig, tracer: Tracer) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(Metrics::new());
        let flight = FlightRecorder::new();
        let tracer = tracer
            .with_flight(flight.clone())
            .with_histograms(metrics.hists.clone());
        let store = Arc::new(
            SynthStore::with_capacity(config.store_bytes).with_faults(config.faults.clone()),
        );
        let access = match &config.access_log {
            AccessLog::Off => AccessSink::Off,
            AccessLog::Stderr => AccessSink::Stderr,
            AccessLog::File(path) => AccessSink::File(Mutex::new(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )),
        };
        let trace_salt = {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map_or(0, |d| d.as_nanos() as u64);
            SplitMix64::new(nanos ^ u64::from(std::process::id())).next_u64()
        };
        let now = Instant::now();
        let breakers = [(); 4].map(|()| CircuitBreaker::new(config.breaker, now));
        let durable_config = config.durable.clone();
        let shared = Arc::new(Shared {
            config,
            metrics,
            synth_lock: Mutex::new(()),
            synth_freed: Condvar::new(),
            cpus: modsyn_par::available_jobs(),
            tracer,
            flight,
            shutting_down: AtomicBool::new(false),
            recovering: AtomicBool::new(durable_config.is_some()),
            store,
            breakers,
            trace_seq: AtomicU64::new(0),
            trace_salt,
            access,
        });
        if let Some(durable) = durable_config {
            // Recovery (snapshot load + journal replay) runs off the bind
            // path so a large journal never delays the port appearing;
            // `/readyz` reports 503 and `/synth` sheds until it finishes.
            let s = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name("modsynd-recover".to_string())
                .spawn({
                    let durable = durable.clone();
                    move || recover_durable(&s, durable)
                });
            if spawned.is_err() {
                recover_durable(&shared, durable);
            }
        }
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A remote control valid for the server's whole life.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.addr,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] (or `POST
    /// /shutdown`), then drains: waits for open connections and the
    /// syntheses they admitted, bounded by [`ServerConfig::drain_timeout`].
    ///
    /// # Errors
    ///
    /// Fatal listener failures only; per-connection errors are handled.
    pub fn run(self) -> std::io::Result<()> {
        let _span = self.shared.tracer.span("serve");
        let addr = self.addr;
        for stream in self.listener.incoming() {
            if self.shared.shutting_down.load(Ordering::Acquire) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                // Transient accept errors (EMFILE, ECONNABORTED) must not
                // kill the loop.
                Err(_) => continue,
            };
            if self.shared.config.faults.fire(site::SVC_ACCEPT) {
                // Injected accept failure: drop the connection on the
                // floor, exactly the transient-error branch above.
                self.shared.injected_fault(site::SVC_ACCEPT);
                continue;
            }
            self.shared.metrics.count(
                &self.shared.metrics.requests,
                &self.shared.tracer,
                "requests",
            );

            let open = self
                .shared
                .metrics
                .connections
                .fetch_add(1, Ordering::AcqRel);
            let guard = GaugeGuard::adopt(Arc::clone(&self.shared.metrics), Gauge::Connections);
            if open as usize >= self.shared.config.max_connections {
                // Over the connection bound: shed inline, never spawn.
                self.shared
                    .metrics
                    .count(&self.shared.metrics.shed, &self.shared.tracer, "shed");
                Self::try_write(&stream, &shed_response(), &self.shared.config);
                drop(guard);
                continue;
            }

            let shared = Arc::clone(&self.shared);
            let spawned = std::thread::Builder::new()
                .name("modsynd-conn".to_string())
                .spawn(move || {
                    let shared = shared; // owns guard + shared for the whole connection
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        handle_connection(&shared, addr, &stream);
                    }));
                    if result.is_err() {
                        shared.metrics.count(
                            &shared.metrics.panics,
                            &shared.tracer,
                            "handler_panics",
                        );
                        Self::try_write(
                            &stream,
                            &error_response(
                                500,
                                "Internal Server Error",
                                "panic",
                                "handler panicked",
                            ),
                            &shared.config,
                        );
                    }
                    drop(guard);
                });
            if spawned.is_err() {
                // Thread spawn failed (resource exhaustion): shed.
                self.shared
                    .metrics
                    .count(&self.shared.metrics.shed, &self.shared.tracer, "shed");
                // The guard moved into the failed closure was dropped with it.
            }
        }

        // Drain: wait for open connections alone. A queue ticket, a gate
        // slot and any threads a synthesis fans out to all live inside the
        // connection thread that admitted it, so no connection means none
        // of them either.
        let deadline = Instant::now() + self.shared.config.drain_timeout;
        let connections = &self.shared.metrics.connections;
        while Instant::now() < deadline && connections.load(Ordering::Acquire) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.tracer.note("shutdown", "drained");

        // Final checkpoint, only after the drain: every admitted synthesis
        // has finished, so the snapshot is a consistent post-quiescence view
        // and the next start recovers from it alone, with an (ideally)
        // empty journal suffix to replay.
        if let Some(d) = self.shared.store.durable() {
            let shared = &self.shared;
            match d.checkpoint(&shared.store) {
                Ok(()) => shared.tracer.note("store", "final-checkpoint"),
                Err(e) => shared
                    .tracer
                    .note("store", &format!("final checkpoint failed: {e}")),
            }
        }
        Ok(())
    }

    fn try_write(stream: &TcpStream, response: &Response, config: &ServerConfig) {
        let _ = stream.set_write_timeout(Some(config.io_timeout));
        let mut stream = stream;
        let _ = response.write_to(&mut stream);
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// Startup recovery for the journaled store: newest valid snapshot
/// generation, journal-suffix replay, then the journal attaches for
/// write-ahead appends. The attached durable store keeps the typed
/// report, which `/metrics` renders as `modsynd_recovery_*`; the flight
/// recorder notes it too. Runs with `Shared::recovering` raised; clears
/// it last.
fn recover_durable(shared: &Arc<Shared>, config: DurableConfig) {
    match DurableStore::open(config, shared.config.faults.clone()) {
        Ok((durable, data)) => {
            // Restoring re-applies the byte bound; attach only after it, so
            // replay is not re-journaled.
            restore_into(&shared.store, &data);
            shared.store.attach_durable(Arc::clone(&durable));
            let report = durable.recovery();
            let t = &shared.tracer;
            t.flight_event(
                FlightKind::Counter,
                "store.recovery_frames_replayed",
                report.frames_replayed,
            );
            t.flight_event(
                FlightKind::Counter,
                "store.recovery_frames_truncated",
                report.frames_truncated,
            );
            if report.snapshot_fallbacks > 0 {
                t.flight_event(FlightKind::Fault, "store.snapshot-corrupt", 1);
            }
            t.note(
                "store",
                &format!(
                    "recovered: snapshot={} fallbacks={} replayed={} skipped={} truncated={} \
                     checksum_failures={} wal_seq={}",
                    report.snapshot_loaded,
                    report.snapshot_fallbacks,
                    report.frames_replayed,
                    report.frames_skipped,
                    report.frames_truncated,
                    report.checksum_failures,
                    report.wal_seq,
                ),
            );
        }
        Err(e) => {
            // A real I/O failure (permissions, full disk — not corruption,
            // which the open itself absorbs): serve memory-only rather
            // than not at all. Durability degrades; certification doesn't.
            shared
                .tracer
                .note("store", &format!("durable open failed: {e}; memory-only"));
        }
    }
    shared.recovering.store(false, Ordering::Release);
}

/// The 400 for a `method=` value that names no method.
fn unknown_method_response() -> Response {
    let detail = format!("method must be {}", Method::choices());
    error_response(400, "Bad Request", "unknown-method", &detail)
}

fn shed_response() -> Response {
    error_response(
        503,
        "Service Unavailable",
        "overloaded",
        "admission queue is full",
    )
    .with_header("Retry-After", "1")
}

fn error_response(status: u16, reason: &'static str, tag: &str, detail: &str) -> Response {
    let body = Json::obj([("error", Json::from(tag)), ("detail", Json::from(detail))]);
    let mut rendered = String::new();
    body.write(&mut rendered);
    Response::json_bytes(status, reason, rendered.into_bytes())
}

/// The latency-histogram registry name for a request. `/synth` is keyed
/// by the *validated* method parameter — an arbitrary client string must
/// not mint unbounded histogram names.
fn request_hist_name(request: &Request) -> &'static str {
    match request.path.as_str() {
        "/synth" => match request.query_param("method").unwrap_or("modular") {
            "modular" => "request_us:synth:modular",
            "modular-min-area" => "request_us:synth:modular-min-area",
            "direct" => "request_us:synth:direct",
            "lavagno" => "request_us:synth:lavagno",
            _ => "request_us:other",
        },
        "/synth/incr" => "request_us:incr",
        "/explain" => "request_us:explain",
        "/metrics" => "request_us:metrics",
        "/healthz" => "request_us:healthz",
        "/readyz" => "request_us:readyz",
        "/debug/flight" => "request_us:flight",
        "/shutdown" => "request_us:shutdown",
        _ => "request_us:other",
    }
}

fn handle_connection(shared: &Arc<Shared>, addr: SocketAddr, stream: &TcpStream) {
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(shared.config.io_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.io_timeout));
    if shared.config.faults.fire(site::SVC_READ_TORN) {
        // Injected torn read: hang up before reading; the client sees a
        // premature EOF.
        shared.injected_fault(site::SVC_READ_TORN);
        return;
    }
    let mut reader = stream;
    let request = match read_request(&mut reader, &shared.config.limits) {
        Ok(r) => r,
        Err(e) => {
            shared
                .metrics
                .count(&shared.metrics.http_errors, &shared.tracer, "http_errors");
            let trace = shared.next_trace();
            let mut status = 0u16;
            if let Some((code, reason)) = e.status() {
                status = code;
                let response = error_response(code, reason, e.tag(), &e.to_string())
                    .with_header("X-Modsyn-Trace", format!("{trace:016x}"));
                Server::try_write(stream, &response, &shared.config);
            }
            let latency_us = started.elapsed().as_micros() as u64;
            shared.metrics.hists.record("request_us:other", latency_us);
            shared.log_access(trace, "", "", status, latency_us, "unparsed");
            return;
        }
    };

    // Trace id: honour a well-formed caller-supplied X-Modsyn-Trace
    // (16-digit hex, nonzero), assign a fresh one otherwise.
    let trace = request
        .header("x-modsyn-trace")
        .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
        .filter(|&t| t != 0)
        .unwrap_or_else(|| shared.next_trace());
    let tracer = shared.tracer.with_trace(trace);

    let response = {
        let _request_span = tracer.flight_span("svc.request");
        route(shared, addr, &request, &tracer)
    };

    let latency_us = started.elapsed().as_micros() as u64;
    let hist = request_hist_name(&request);
    shared.metrics.hists.record(hist, latency_us);
    let endpoint = hist.strip_prefix("request_us:").unwrap_or(hist);
    shared.log_access(
        trace,
        &request.method,
        &request.path,
        response.status,
        latency_us,
        endpoint,
    );
    let response = response.with_header("X-Modsyn-Trace", format!("{trace:016x}"));

    if let Some(delay) = shared.config.faults.stall(site::SVC_SLOW_PEER) {
        shared.injected_fault(site::SVC_SLOW_PEER);
        std::thread::sleep(delay);
    }
    if shared.config.faults.fire(site::SVC_WRITE_TORN) {
        // Injected torn write: serialise the response but hang up after
        // half of it, so the client must treat the reply as garbage.
        shared.injected_fault(site::SVC_WRITE_TORN);
        let mut bytes = Vec::new();
        let _ = response.write_to(&mut bytes);
        use std::io::Write as _;
        let mut writer = stream;
        let _ = writer.write_all(&bytes[..bytes.len() / 2]);
        return;
    }
    Server::try_write(stream, &response, &shared.config);
}

fn route(shared: &Arc<Shared>, addr: SocketAddr, request: &Request, tracer: &Tracer) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        // Liveness: the process is up and routing. Stays 200 through
        // recovery and drain — a supervisor must not kill a replica for
        // being busy replaying its journal.
        ("GET", "/healthz") => Response::text(200, "OK", "ok\n"),
        // Readiness: should this replica receive traffic right now?
        ("GET", "/readyz") => match shared.unready() {
            None => Response::text(200, "OK", "ready\n"),
            Some(reason) => {
                let response = Response::text(503, "Service Unavailable", format!("{reason}\n"));
                // A drain does not end in readiness; the other two do.
                if reason == "draining" {
                    response
                } else {
                    response.with_header("Retry-After", "1")
                }
            }
        },
        ("GET", "/metrics") => Response::text(200, "OK", shared.render_metrics()),
        ("GET", "/debug/flight") => debug_flight(shared, request),
        ("POST", "/shutdown") => {
            ServerHandle {
                addr,
                shared: Arc::clone(shared),
            }
            .shutdown();
            Response::text(202, "Accepted", "draining\n")
        }
        ("POST", "/synth") => synth(shared, request, tracer, None),
        ("POST", "/synth/incr") => synth_incr(shared, request, tracer),
        ("GET", "/explain") => explain(shared, request),
        (_, "/synth") | (_, "/synth/incr") | (_, "/shutdown") => {
            http_error_counted(shared);
            error_response(405, "Method Not Allowed", "method-not-allowed", "use POST")
                .with_header("Allow", "POST")
        }
        (_, "/healthz")
        | (_, "/readyz")
        | (_, "/metrics")
        | (_, "/debug/flight")
        | (_, "/explain") => {
            http_error_counted(shared);
            error_response(405, "Method Not Allowed", "method-not-allowed", "use GET")
                .with_header("Allow", "GET")
        }
        _ => {
            http_error_counted(shared);
            error_response(404, "Not Found", "not-found", "unknown path")
        }
    }
}

/// `GET /debug/flight[?trace=<hex>][&limit=<n>]`: the recorder's recent
/// events, newest-biased, optionally filtered to one trace id.
fn debug_flight(shared: &Shared, request: &Request) -> Response {
    let trace = match request.query_param("trace") {
        None => None,
        Some(v) => match u64::from_str_radix(v.trim(), 16) {
            Ok(t) => Some(t),
            Err(_) => {
                http_error_counted(shared);
                return error_response(
                    400,
                    "Bad Request",
                    "bad-trace",
                    "trace must be a hex trace id",
                );
            }
        },
    };
    let limit = request
        .query_param("limit")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(512);
    let mut events = match trace {
        Some(t) => shared.flight.events_for_trace(t),
        None => shared.flight.snapshot(),
    };
    if events.len() > limit {
        // Keep the tail: the newest events are the interesting ones.
        events.drain(..events.len() - limit);
    }
    let doc = Json::obj([
        (
            "trace",
            trace.map_or(Json::Null, |t| Json::from(format!("{t:016x}"))),
        ),
        ("recorded", Json::from(shared.flight.recorded())),
        ("capacity", Json::from(shared.flight.capacity())),
        ("count", Json::from(events.len())),
        (
            "events",
            Json::Arr(events.iter().map(FlightEvent::to_json).collect()),
        ),
    ]);
    let mut out = String::new();
    doc.write(&mut out);
    out.push('\n');
    Response::json_bytes(200, "OK", out.into_bytes())
}

/// `GET /explain?digest=<hex>&signal=<name>[&method=…]`: why an inserted
/// state signal exists, from the provenance the certified response entry
/// carries. 404s distinguish "not (or no longer) held here" from
/// "synthesised, but no such inserted signal".
fn explain(shared: &Shared, request: &Request) -> Response {
    let digest = match request.query_param("digest") {
        None => {
            http_error_counted(shared);
            return error_response(
                400,
                "Bad Request",
                "missing-digest",
                "GET /explain needs digest=<hex> (the X-Modsyn-Digest of a synthesis)",
            );
        }
        Some(v) => match u64::from_str_radix(v.trim(), 16) {
            Ok(d) => d,
            Err(_) => {
                http_error_counted(shared);
                return error_response(
                    400,
                    "Bad Request",
                    "bad-digest",
                    "digest must be a 16-digit hex digest",
                );
            }
        },
    };
    let Some(signal) = request.query_param("signal") else {
        http_error_counted(shared);
        return error_response(
            400,
            "Bad Request",
            "missing-signal",
            "GET /explain needs signal=<inserted state signal name>",
        );
    };
    let method = match request.query_param("method") {
        None => Method::Modular,
        Some(name) => match Method::parse(name) {
            Some(m @ (Method::Modular | Method::ModularMinArea)) => m,
            Some(_) => {
                http_error_counted(shared);
                return error_response(
                    400,
                    "Bad Request",
                    "incr-method",
                    "provenance exists for the modular methods only",
                );
            }
            None => {
                http_error_counted(shared);
                return unknown_method_response();
            }
        },
    };
    let Some(record) = shared
        .store
        .get_record(record_key(digest, method_tag(method)))
    else {
        http_error_counted(shared);
        return error_response(
            404,
            "Not Found",
            "unknown-digest",
            "no synthesis record for this digest (synthesise it, or again if evicted)",
        );
    };
    let chain: Vec<&Provenance> = record
        .provenance
        .iter()
        .filter(|p| p.signal == signal)
        .collect();
    if chain.is_empty() {
        http_error_counted(shared);
        let known = record.inserted.join(", ");
        return error_response(
            404,
            "Not Found",
            "unknown-signal",
            &format!("no provenance for this signal; inserted signals: [{known}]"),
        );
    }
    let doc = Json::obj([
        ("benchmark", Json::from(record.benchmark.as_str())),
        ("digest", Json::from(format!("{digest:016x}"))),
        ("method", Json::from(method.to_string())),
        ("signal", Json::from(signal)),
        (
            "provenance",
            Json::Arr(chain.into_iter().map(provenance_to_json).collect()),
        ),
    ]);
    let mut out = String::new();
    doc.write(&mut out);
    out.push('\n');
    Response::json_bytes(200, "OK", out.into_bytes())
}

/// One provenance step as `/explain` JSON (also what `modsyn --explain`
/// prints as text): the module that forced the signal, the CSC conflict
/// pairs it resolves, and the winning formula's clause families.
fn provenance_to_json(p: &Provenance) -> Json {
    Json::obj([
        ("module", Json::from(p.module_output.as_str())),
        ("module_key", Json::from(format!("{:016x}", p.module_key))),
        (
            "resolved_pairs",
            Json::Arr(
                p.resolved_pairs
                    .iter()
                    .map(|&(i, j)| Json::Arr(vec![Json::from(i), Json::from(j)]))
                    .collect(),
            ),
        ),
        ("state_signals", Json::from(p.state_signals)),
        ("variables", Json::from(p.variables)),
        ("clauses", Json::from(p.clauses)),
        (
            "families",
            Json::obj([
                ("consistency", Json::from(p.families.consistency)),
                ("persistence", Json::from(p.families.persistence)),
                ("usc", Json::from(p.families.usc)),
                ("resolution", Json::from(p.families.resolution)),
            ]),
        ),
    ])
}

fn http_error_counted(shared: &Shared) {
    shared
        .metrics
        .count(&shared.metrics.http_errors, &shared.tracer, "http_errors");
}

fn method_tag(method: Method) -> u8 {
    match method {
        Method::Modular => 0,
        Method::ModularMinArea => 1,
        Method::Direct => 2,
        Method::Lavagno => 3,
    }
}

/// `POST /synth/incr?base=<hex>[&method=…]`: incremental re-synthesis of
/// an edited STG against a warm store. The base digest must name a
/// benchmark this server has synthesised (422 otherwise) — the guarantee
/// a client actually wants is "my edit was computed *against* something",
/// not "the store happened to be warm". Only the modular methods
/// decompose into store-keyed modules, so only they are accepted.
///
/// The response body is produced by the exact same pipeline as `/synth`
/// and stored under the same key, so it is byte-identical to a
/// from-scratch synthesis of the edited STG. Freshly computed responses
/// carry `X-Modsyn-Dirty-Modules` (modules re-solved for real) and
/// `X-Modsyn-Total-Modules` (modules consulted); a stored-response hit
/// re-solved nothing and omits both.
fn synth_incr(shared: &Shared, request: &Request, tracer: &Tracer) -> Response {
    let base = match request.query_param("base") {
        None => {
            http_error_counted(shared);
            return error_response(
                400,
                "Bad Request",
                "missing-base",
                "POST /synth/incr needs base=<digest-hex> (the X-Modsyn-Digest of the base run)",
            );
        }
        Some(v) => match u64::from_str_radix(v.trim(), 16) {
            Ok(d) => d,
            Err(_) => {
                http_error_counted(shared);
                return error_response(
                    400,
                    "Bad Request",
                    "bad-base",
                    "base must be a 16-digit hex digest",
                );
            }
        },
    };
    synth(shared, request, tracer, Some(base))
}

fn synth(shared: &Shared, request: &Request, tracer: &Tracer, incr_base: Option<u64>) -> Response {
    // Journal recovery is still replaying: the store is mid-restore, so
    // shed rather than serve from a half-warm state.
    if shared.recovering.load(Ordering::Acquire) {
        shared
            .metrics
            .count(&shared.metrics.shed, &shared.tracer, "shed");
        return error_response(
            503,
            "Service Unavailable",
            "recovering",
            "store recovery is replaying the journal",
        )
        .with_header("Retry-After", "1");
    }
    // A synthesis request needs a .g body; a POST without Content-Length
    // parses as an empty one (RFC 7230), so point at the actual mistake.
    if request.header("content-length").is_none() {
        http_error_counted(shared);
        return error_response(
            411,
            "Length Required",
            "length-required",
            "POST /synth needs a Content-Length and a .g body",
        );
    }
    let method = match request.query_param("method") {
        None => Method::Modular,
        Some(name) => match Method::parse(name) {
            Some(m) => m,
            None => {
                http_error_counted(shared);
                return unknown_method_response();
            }
        },
    };
    if incr_base.is_some() && !matches!(method, Method::Modular | Method::ModularMinArea) {
        http_error_counted(shared);
        return error_response(
            400,
            "Bad Request",
            "incr-method",
            "incremental synthesis needs a modular method (modular|modular-min-area)",
        );
    }
    let client_timeout = match request.query_param("timeout_ms") {
        None => None,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(Duration::from_millis(ms)),
            Err(_) => {
                http_error_counted(shared);
                return error_response(
                    400,
                    "Bad Request",
                    "bad-timeout",
                    "timeout_ms must be an integer",
                );
            }
        },
    };
    let text = match std::str::from_utf8(&request.body) {
        Ok(t) => t,
        Err(_) => {
            http_error_counted(shared);
            return error_response(400, "Bad Request", "not-utf8", "body must be UTF-8 .g text");
        }
    };
    let stg = match parse_g(text) {
        Ok(s) => s,
        Err(e) => {
            http_error_counted(shared);
            return error_response(400, "Bad Request", "parse", &e.to_string());
        }
    };
    let digest = stg_digest(&stg);
    let key = record_key(digest, method_tag(method));
    let digest_hex = format!("{digest:016x}");

    // An incremental request against a base this server never synthesised
    // is the client's mistake: there is nothing to be incremental *to*.
    if let Some(base) = incr_base {
        if shared
            .store
            .get_record(record_key(base, method_tag(method)))
            .is_none()
        {
            shared.metrics.count(
                &shared.metrics.synth_failures,
                &shared.tracer,
                "synth_failures",
            );
            return error_response(
                422,
                "Unprocessable Entity",
                "unknown-base",
                "base digest has no synthesis record on this server (synthesise it first)",
            );
        }
    }

    if let Some(record) = shared.store.get_record(key) {
        shared
            .metrics
            .count(&shared.metrics.cache_hits, &shared.tracer, "cache_hits");
        return Response::json_bytes(200, "OK", record.body.clone().into_bytes())
            .with_header("X-Modsyn-Cache", "hit")
            .with_header("X-Modsyn-Digest", digest_hex);
    }
    shared
        .metrics
        .count(&shared.metrics.cache_misses, &shared.tracer, "cache_misses");

    // Circuit breaker: a method that keeps failing server-side (panics,
    // deadline aborts, oracle rejections) is rejected up front for the
    // cooldown instead of burning synthesis slots. Cache hits above are
    // always served — the breaker only guards fresh synthesis.
    let breaker = &shared.breakers[method_tag(method) as usize];
    let admission = breaker.admit(Instant::now());
    if let Admission::Rejected { retry_after } = admission {
        shared.metrics.count(
            &shared.metrics.breaker_rejections,
            &shared.tracer,
            "breaker_rejections",
        );
        return error_response(
            503,
            "Service Unavailable",
            "breaker-open",
            "circuit breaker is open for this method",
        )
        .with_header("Retry-After", retry_after.to_string());
    }

    // Admission control: bound the admitted-but-unstarted queue.
    let capacity = shared.config.queue_capacity as u64;
    let admitted =
        shared
            .metrics
            .queue_depth
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |depth| {
                (depth < capacity).then_some(depth + 1)
            });
    if admitted.is_err() {
        // A half-open probe shed before running must not wedge the
        // breaker half-open forever; re-open it for another cooldown.
        if admission == Admission::Probe && breaker.record(Instant::now(), false) {
            shared.metrics.count(
                &shared.metrics.breaker_opens,
                &shared.tracer,
                "breaker_opens",
            );
        }
        shared
            .metrics
            .count(&shared.metrics.shed, &shared.tracer, "shed");
        return shed_response();
    }
    // The admission ticket is an RAII guard: it is released when the
    // synthesis starts, or on any early exit before that.
    let queue_guard = GaugeGuard::adopt(Arc::clone(&shared.metrics), Gauge::QueueDepth);

    // Deadline: the tighter of the server-wide and the client's budget.
    let timeout = match (shared.config.request_timeout, client_timeout) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    let cancel = timeout.map_or_else(CancelToken::never, CancelToken::with_deadline);

    // The modular methods consult the synthesis store module-by-module: a
    // per-request session tallies this request's own hits (replayed) and
    // misses (solved for real — the *dirty* set of an incremental run),
    // while the solves themselves land in the server-wide store.
    let session = matches!(method, Method::Modular | Method::ModularMinArea)
        .then(|| StoreSession::new(Arc::clone(&shared.store)));

    let mut options = SynthesisOptions::for_method(method);
    options.cancel = cancel;
    options.faults = shared.config.faults.clone();
    options.store = session
        .as_ref()
        .map_or_else(StoreLink::none, |s| StoreLink::to(Arc::clone(s)));
    if let Some(limit) = shared.config.backtrack_limit {
        options.solver.max_backtracks = Some(limit);
    }
    // Retry ladder: escalate capacity failures (limit bumps up to 4× the
    // configured budget, then, under an armed fault plan, that budget
    // without the plan) before failing the request. Every rung runs the
    // configured engine. No lavagno fallback — the response's method must
    // be the method the client asked for, and cached bodies must stay
    // byte-identical across fault plans.
    let policy = RetryPolicy {
        backtrack_cap: shared
            .config
            .backtrack_limit
            .map_or(1_000_000, |l| l.saturating_mul(4)),
        fallback: false,
        max_attempts: 4,
    };

    let started = Instant::now();
    let (slot, jobs) = shared.enter_synthesis();
    options.jobs = jobs;
    drop(queue_guard);
    let wait_us = started.elapsed().as_micros() as u64;
    tracer.record_hist("queue_wait_us", wait_us);
    tracer.flight_event(FlightKind::Counter, "svc.queue_wait_us", wait_us);
    // One containment for the whole run: a panic anywhere in it, the
    // injected one included, discards the result.
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let _synth_span = tracer.flight_span("svc.synth");
        let cpu_started = Instant::now();
        let outcome = run_synthesis(&stg, &options, &policy, tracer);
        tracer.record_hist(
            &format!("synth_cpu_us:{method}"),
            cpu_started.elapsed().as_micros() as u64,
        );
        if shared.config.faults.fire(site::SVC_SYNTH_PANIC) {
            shared.injected_fault(site::SVC_SYNTH_PANIC);
            panic!("injected fault: {}", site::SVC_SYNTH_PANIC);
        }
        outcome
    }))
    .map_err(JobPanic::from_payload);
    drop(slot);
    // Breaker verdict: server-side trouble (panic, deadline abort, oracle
    // rejection) is failure; an unsolvable STG (422) is the *client's*
    // problem and counts as success, so bad inputs cannot lock the method.
    let healthy = matches!(
        outcome,
        Ok(SynthOutcome::Certified { .. }) | Ok(SynthOutcome::Failed(_))
    );
    if breaker.record(Instant::now(), healthy) {
        shared.metrics.count(
            &shared.metrics.breaker_opens,
            &shared.tracer,
            "breaker_opens",
        );
    }

    match outcome {
        Err(panic) => {
            shared
                .metrics
                .count(&shared.metrics.panics, &shared.tracer, "synth_panics");
            error_response(500, "Internal Server Error", "panic", &panic.message)
        }
        Ok(SynthOutcome::Aborted(e)) => {
            shared
                .metrics
                .count(&shared.metrics.aborted, &shared.tracer, "aborted");
            error_response(504, "Gateway Timeout", "aborted", &e)
        }
        Ok(SynthOutcome::Failed(e)) => {
            shared.metrics.count(
                &shared.metrics.synth_failures,
                &shared.tracer,
                "synth_failures",
            );
            // The structural class tells how far outside the supported
            // theory the input sat, so clients can tell a class rejection
            // from a capacity one without re-classifying. Only a 422
            // reads it, so only a 422 classifies.
            error_response(
                422,
                "Unprocessable Entity",
                Rejection::of(&e).tag(),
                &e.to_string(),
            )
            .with_header("X-Modsyn-Class", class_tag(stg.net().classify()))
        }
        Ok(SynthOutcome::CheckFailed(detail)) => {
            shared.metrics.count(
                &shared.metrics.check_failures,
                &shared.tracer,
                "check_failures",
            );
            error_response(500, "Internal Server Error", "check-failed", &detail)
        }
        Ok(SynthOutcome::Certified { record, recovered }) => {
            shared
                .metrics
                .count(&shared.metrics.certified, &shared.tracer, "certified");
            if recovered {
                shared.metrics.count(
                    &shared.metrics.retry_recoveries,
                    &shared.tracer,
                    "retry_recoveries",
                );
            }
            // The body and its provenance enter the store as one entry (one
            // journal frame) before the 200 is written, so `/explain` and
            // later `/synth/incr` base checks find them. It is stored only
            // here, after the run's containment: a result discarded by a
            // panic must leave nothing a later request could serve. Then
            // compact if the journal has grown past the checkpoint cadence.
            let body = record.body.clone().into_bytes();
            shared.store.put_record(key, record);
            if let Some(d) = shared.store.durable() {
                match d.maybe_checkpoint(&shared.store) {
                    Ok(true) => shared.tracer.note("store", "checkpoint"),
                    Ok(false) => {}
                    Err(e) => shared
                        .tracer
                        .note("store", &format!("checkpoint failed: {e}")),
                }
            }
            let mut response = Response::json_bytes(200, "OK", body)
                .with_header("X-Modsyn-Cache", "miss")
                .with_header("X-Modsyn-Digest", digest_hex)
                .with_header("X-Modsyn-Cpu-Us", started.elapsed().as_micros().to_string());
            if incr_base.is_some() {
                let session = session.as_ref().expect("incr implies a modular session");
                let dirty = session.misses();
                shared
                    .metrics
                    .store_dirty
                    .fetch_add(dirty, Ordering::Relaxed);
                shared.metrics.hists.record("incr_dirty_modules", dirty);
                response = response
                    .with_header("X-Modsyn-Dirty-Modules", dirty.to_string())
                    .with_header("X-Modsyn-Total-Modules", session.total().to_string());
            }
            response
        }
    }
}

enum SynthOutcome {
    /// Synthesised *and* oracle-certified; the rendered response body with
    /// its provenance. `recovered` marks a run that climbed the retry
    /// ladder first.
    Certified {
        record: SynthRecord,
        recovered: bool,
    },
    /// The per-request deadline fired.
    Aborted(String),
    /// The STG is unsolvable/unsupported under this method (client's problem).
    Failed(SynthesisError),
    /// The oracle rejected our own output (our bug; never served as a 200).
    CheckFailed(String),
}

/// Stable lowercase tag of a structural net class, carried in the
/// `X-Modsyn-Class` header of 422 rejections.
fn class_tag(class: NetClass) -> &'static str {
    match class {
        NetClass::MarkedGraph => "marked-graph",
        NetClass::FreeChoice => "free-choice",
        NetClass::AsymmetricChoice => "asymmetric-choice",
        NetClass::General => "general",
    }
}

fn run_synthesis(
    stg: &Stg,
    options: &SynthesisOptions,
    policy: &RetryPolicy,
    tracer: &Tracer,
) -> SynthOutcome {
    let (report, recovered) =
        match modsyn::synthesize_with_retry_traced(stg, options, policy, tracer) {
            Ok(out) => (out.report, !out.attempts.is_empty()),
            Err(e @ SynthesisError::Aborted { .. }) => return SynthOutcome::Aborted(e.to_string()),
            Err(SynthesisError::Exhausted { attempts }) => {
                // Surface the last rung's failure so clients keep seeing the
                // stable 422 tags (backtrack-limit, …) rather than a ladder
                // internal.
                return match attempts.into_iter().next_back() {
                    Some(last) => SynthOutcome::Failed(last.error),
                    None => SynthOutcome::Failed(SynthesisError::Exhausted {
                        attempts: Vec::new(),
                    }),
                };
            }
            Err(e) => return SynthOutcome::Failed(e),
        };
    // Re-derive the unsolved specification graph so the oracle can check
    // observation equivalence, not just the solved graph's own properties.
    let spec = match modsyn_sg::derive(stg, &options.derive) {
        Ok(s) => s,
        Err(e) => return SynthOutcome::CheckFailed(format!("specification rederivation: {e}")),
    };
    if let Err(e) = certify_report(Some(&spec), &report) {
        return SynthOutcome::CheckFailed(e.to_string());
    }
    let body = String::from_utf8(render_report(&report)).expect("rendered JSON is UTF-8");
    SynthOutcome::Certified {
        record: SynthRecord {
            benchmark: report.benchmark,
            inserted: report.csc.inserted,
            provenance: report.csc.provenance,
            body,
        },
        recovered,
    }
}

/// Renders the deterministic response body: no timing, no cache status —
/// identical requests yield byte-identical bodies, computed or cached.
/// Public so the `increment` benchmark and the incremental-identity tests
/// can byte-compare offline reports against service responses.
pub fn render_report(report: &modsyn::SynthesisReport) -> Vec<u8> {
    let functions = Json::Arr(
        report
            .functions
            .iter()
            .map(|f| {
                Json::obj([
                    ("name", Json::from(f.name.as_str())),
                    ("sop", Json::from(f.sop.to_string())),
                    ("literals", Json::from(f.literals)),
                ])
            })
            .collect(),
    );
    let inserted = Json::Arr(
        report
            .csc
            .inserted
            .iter()
            .map(|s| Json::from(s.as_str()))
            .collect(),
    );
    let body = Json::obj([
        ("benchmark", Json::from(report.benchmark.as_str())),
        ("method", Json::from(report.method.to_string())),
        ("certified", Json::from(true)),
        ("initial_states", Json::from(report.initial_states)),
        ("initial_signals", Json::from(report.initial_signals)),
        ("final_states", Json::from(report.final_states())),
        ("final_signals", Json::from(report.final_signals())),
        ("literals", Json::from(report.literals)),
        ("inserted", inserted),
        ("functions", functions),
    ]);
    let mut out = String::new();
    body.write(&mut out);
    out.push('\n');
    out.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::lent_jobs;

    #[test]
    fn only_a_synthesis_that_enters_alone_borrows_the_idle_slots() {
        // A lone synthesis on a two-slot server uses both slots.
        assert_eq!(lent_jobs(2, 1, 2), 2);
        // A saturated server lends nothing.
        assert_eq!(lent_jobs(2, 2, 2), 1);
        assert_eq!(lent_jobs(1, 1, 8), 1);
        // Idle slots beyond the machine's threads are not lent.
        assert_eq!(lent_jobs(8, 1, 2), 2);
        assert_eq!(lent_jobs(8, 1, 16), 8);
        // A synthesis that enters beside another gets one thread, idle
        // slots or not.
        assert_eq!(lent_jobs(8, 2, 16), 1);
        assert_eq!(lent_jobs(4, 3, 2), 1);
    }
}
