//! Service counters, gauges and latency histograms, exposed on
//! `GET /metrics`.
//!
//! Every value on `/metrics` has one owner, and [`Metrics::render`] reads
//! it from that owner when it renders:
//!
//! * what the server itself counts — requests, response-cache hits and
//!   misses, dirty modules, sheds, failures, breaker events, injected
//!   faults — and its gauges are the atomics of [`Metrics`] (a gauge needs
//!   a *current* value, which the append-only `modsyn-obs` event log does
//!   not model). Each event counted through [`Metrics::count`] is mirrored
//!   into the server's [`modsyn_obs::Tracer`] as well, so a `--trace-json`
//!   capture of a serving session shows the same story as `/metrics`;
//! * evictions and module hits/misses are the [`SynthStore`]'s own;
//! * journal appends, fsyncs and checkpoints are its
//!   [`DurableStore`](modsyn_store::DurableStore)'s,
//!   and the `modsynd_recovery_*` lines come from the
//!   [`RecoveryReport`](modsyn_store::RecoveryReport) that durable store
//!   keeps — all 0 without a journal;
//! * `modsynd_ready` is the server's readiness check, the one `/readyz`
//!   answers from.
//!
//! The [`HistogramRegistry`] carried in [`Metrics::hists`] is the same
//! registry the server attaches to its tracer at bind time, so request
//! latency (per endpoint × method), queue wait, synthesis cpu time and
//! solver effort all land here and render as
//! `modsynd_<metric>{key="…",q="p50|p90|p99|max|count"}` lines. The
//! standard names are pre-registered in [`Metrics::new`] so a fresh
//! scrape shows the full (all-zero) set — which is also what lets the
//! exposition format be pinned by a test.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use modsyn_obs::{HistogramRegistry, Tracer};
use modsyn_store::SynthStore;

/// Histogram names pre-registered on every server. The first `:`-segment
/// is the rendered metric name, the rest becomes the `key` label.
pub const STANDARD_HISTOGRAMS: &[&str] = &[
    "request_us:synth:modular",
    "request_us:synth:modular-min-area",
    "request_us:synth:direct",
    "request_us:synth:lavagno",
    "request_us:incr",
    "request_us:explain",
    "request_us:metrics",
    "request_us:healthz",
    "request_us:readyz",
    "request_us:flight",
    "request_us:shutdown",
    "request_us:other",
    "queue_wait_us",
    "synth_cpu_us:modular",
    "synth_cpu_us:modular-min-area",
    "synth_cpu_us:direct",
    "synth_cpu_us:lavagno",
    "sat_conflicts",
    "sat_decisions",
    // Average learned-clause LBD per CDCL solve (engine health: rising
    // glue means the learner is struggling).
    "sat_lbd",
    "incr_dirty_modules",
];

/// The quantile columns rendered per histogram.
const QUANTILES: &[(&str, f64)] = &[("p50", 0.50), ("p90", 0.90), ("p99", 0.99)];

/// The counters and gauges the server owns, plus its histograms. Field
/// order is their `/metrics` render order; [`Metrics::render`] places the
/// store's lines between them.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted off the listener (any endpoint).
    pub requests: AtomicU64,
    /// `/synth` requests answered from a stored response.
    pub cache_hits: AtomicU64,
    /// `/synth` requests that had to synthesise.
    pub cache_misses: AtomicU64,
    /// Dirty modules across `/synth/incr` runs: the handler adds each
    /// incremental request's re-solved module count.
    pub store_dirty: AtomicU64,
    /// `/synth` requests refused with 503 by admission control.
    pub shed: AtomicU64,
    /// Synthesis runs cancelled by the per-request deadline.
    pub aborted: AtomicU64,
    /// Responses certified by the oracle (every 200 from `/synth`).
    pub certified: AtomicU64,
    /// Malformed requests answered with a typed 4xx/5xx.
    pub http_errors: AtomicU64,
    /// Synthesis failures (unsolvable/unsupported STGs, 422s).
    pub synth_failures: AtomicU64,
    /// Oracle rejections of our own output (500s; always a bug).
    pub check_failures: AtomicU64,
    /// Handler panics contained by the connection guard.
    pub panics: AtomicU64,
    /// `/synth` requests rejected by an open circuit breaker (503s).
    pub breaker_rejections: AtomicU64,
    /// Circuit-breaker closed→open transitions.
    pub breaker_opens: AtomicU64,
    /// Retry-ladder escalations that ended in a served 200 (the request
    /// recovered without the client noticing anything but latency).
    pub retry_recoveries: AtomicU64,
    /// Faults fired by an armed [`modsyn_fault::FaultPlan`] in the svc
    /// layer (accept drops, torn reads/writes, slow-peer stalls; store
    /// eviction storms show in `modsynd_cache_evictions_total`). Always 0
    /// in production.
    pub injected_faults: AtomicU64,
    /// Gauge: admitted `/synth` misses waiting for a synthesis slot.
    pub queue_depth: AtomicU64,
    /// Gauge: syntheses running now; the server's synthesis gate owns it.
    pub in_flight: AtomicU64,
    /// Gauge: open connections being handled.
    pub connections: AtomicU64,
    /// Latency/effort histograms (see `STANDARD_HISTOGRAMS`).
    pub hists: HistogramRegistry,
}

impl Metrics {
    /// A fresh metrics block with the standard histograms pre-registered,
    /// so `/metrics` exposes the full set from the first scrape.
    pub fn new() -> Metrics {
        let m = Metrics::default();
        for name in STANDARD_HISTOGRAMS {
            m.hists.register(name);
        }
        m
    }

    /// Bumps a counter and mirrors it into `tracer`.
    pub fn count(&self, counter: &AtomicU64, tracer: &Tracer, name: &str) {
        counter.fetch_add(1, Ordering::Relaxed);
        tracer.counter(name, 1);
    }

    /// Renders the Prometheus-style text exposition: `name value` counter
    /// and gauge lines first (fixed order), then one
    /// `modsynd_<metric>{key="…",q="…"} value` line per histogram
    /// quantile, histograms sorted by name. The store's lines are read
    /// from `store` and its journal (0 without one); `ready` is the
    /// server's readiness.
    pub fn render(&self, store: &SynthStore, ready: bool) -> String {
        let own = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let durable = store.durable();
        let (appends, fsyncs, checkpoints) = durable.as_ref().map_or((0, 0, 0), |d| {
            (d.wal_appends(), d.wal_fsyncs(), d.checkpoints())
        });
        let recovery = durable.map(|d| d.recovery().clone()).unwrap_or_default();
        let mut out = String::new();
        for (name, value) in [
            ("modsynd_requests_total", own(&self.requests)),
            ("modsynd_cache_hits_total", own(&self.cache_hits)),
            ("modsynd_cache_misses_total", own(&self.cache_misses)),
            ("modsynd_cache_evictions_total", store.evictions()),
            ("modsynd_store_hits_total", store.hits()),
            ("modsynd_store_misses_total", store.misses()),
            ("modsynd_store_dirty_total", own(&self.store_dirty)),
            ("modsynd_shed_total", own(&self.shed)),
            ("modsynd_aborted_total", own(&self.aborted)),
            ("modsynd_certified_total", own(&self.certified)),
            ("modsynd_http_errors_total", own(&self.http_errors)),
            ("modsynd_synth_failures_total", own(&self.synth_failures)),
            ("modsynd_check_failures_total", own(&self.check_failures)),
            ("modsynd_panics_total", own(&self.panics)),
            (
                "modsynd_breaker_rejections_total",
                own(&self.breaker_rejections),
            ),
            ("modsynd_breaker_opens_total", own(&self.breaker_opens)),
            (
                "modsynd_retry_recoveries_total",
                own(&self.retry_recoveries),
            ),
            ("modsynd_injected_faults_total", own(&self.injected_faults)),
            ("modsynd_wal_appends_total", appends),
            ("modsynd_wal_fsyncs_total", fsyncs),
            ("modsynd_checkpoints_total", checkpoints),
            ("modsynd_recovery_frames_replayed", recovery.frames_replayed),
            (
                "modsynd_recovery_frames_truncated",
                recovery.frames_truncated,
            ),
            (
                "modsynd_recovery_checksum_failures",
                recovery.checksum_failures,
            ),
            (
                "modsynd_recovery_snapshot_fallbacks",
                recovery.snapshot_fallbacks,
            ),
            ("modsynd_queue_depth", own(&self.queue_depth)),
            ("modsynd_in_flight", own(&self.in_flight)),
            ("modsynd_connections", own(&self.connections)),
            ("modsynd_ready", u64::from(ready)),
        ] {
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (name, snap) in self.hists.snapshot() {
            let columns = QUANTILES
                .iter()
                .map(|&(q, frac)| (q, snap.percentile(frac)))
                .chain([("max", snap.max()), ("count", snap.count())]);
            for (q, value) in columns {
                out.push_str(&Self::hist_line_name(&name, q));
                out.push(' ');
                out.push_str(&value.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The exposition token for one histogram quantile:
    /// `modsynd_<metric>{key="rest",q="p99"}`, with the `key` label
    /// omitted for an un-keyed name.
    pub fn hist_line_name(registry_name: &str, q: &str) -> String {
        match registry_name.split_once(':') {
            Some((metric, key)) => format!("modsynd_{metric}{{key=\"{key}\",q=\"{q}\"}}"),
            None => format!("modsynd_{registry_name}{{q=\"{q}\"}}"),
        }
    }

    /// Reads one metric back out of a rendered exposition (used by tests
    /// and the loadgen report). Works for plain and histogram lines — the
    /// name is everything before the first space, labels included.
    pub fn parse_line(rendered: &str, name: &str) -> Option<u64> {
        rendered.lines().find_map(|line| {
            let (n, v) = line.split_once(' ')?;
            (n == name).then(|| v.parse().ok())?
        })
    }

    /// Reads one histogram quantile (`q` ∈ p50/p90/p99/max/count) for a
    /// registry name out of a rendered exposition.
    pub fn parse_hist(rendered: &str, registry_name: &str, q: &str) -> Option<u64> {
        Self::parse_line(rendered, &Self::hist_line_name(registry_name, q))
    }
}

/// The service gauges [`GaugeGuard`] manages (`modsynd_in_flight` is the
/// synthesis gate's own count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Gauge {
    /// `modsynd_queue_depth`.
    QueueDepth,
    /// `modsynd_connections`.
    Connections,
}

impl Gauge {
    fn cell(self, metrics: &Metrics) -> &AtomicU64 {
        match self {
            Gauge::QueueDepth => &metrics.queue_depth,
            Gauge::Connections => &metrics.connections,
        }
    }
}

/// An RAII increment of one service gauge: the decrement runs on drop, so
/// early returns and contained panics all give the increment back. Every
/// queue-depth and connection update in the serving path goes through one
/// of these — a leaked gauge is a drain that never finishes and an
/// admission queue that slowly chokes.
#[derive(Debug)]
pub(crate) struct GaugeGuard {
    metrics: Arc<Metrics>,
    gauge: Gauge,
}

impl GaugeGuard {
    /// Adopts an increment the caller already made (e.g. via a bounded
    /// `fetch_update`), decrementing it on drop without a second
    /// increment.
    pub(crate) fn adopt(metrics: Arc<Metrics>, gauge: Gauge) -> GaugeGuard {
        GaugeGuard { metrics, gauge }
    }
}

impl Drop for GaugeGuard {
    fn drop(&mut self) {
        self.gauge
            .cell(&self.metrics)
            .fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_store::StoreSession;

    #[test]
    fn render_and_parse_roundtrip() {
        let m = Metrics::new();
        m.requests.store(7, Ordering::Relaxed);
        m.queue_depth.store(3, Ordering::Relaxed);
        // The store lines are read from the store itself.
        let store = Arc::new(SynthStore::new());
        assert!(StoreSession::new(Arc::clone(&store))
            .get_module(1)
            .is_none());
        let text = m.render(&store, true);
        assert_eq!(
            Metrics::parse_line(&text, "modsynd_requests_total"),
            Some(7)
        );
        assert_eq!(Metrics::parse_line(&text, "modsynd_queue_depth"), Some(3));
        assert_eq!(
            Metrics::parse_line(&text, "modsynd_cache_hits_total"),
            Some(0)
        );
        assert_eq!(
            Metrics::parse_line(&text, "modsynd_store_misses_total"),
            Some(1)
        );
        assert_eq!(Metrics::parse_line(&text, "modsynd_ready"), Some(1));
        assert_eq!(Metrics::parse_line(&text, "no_such_metric"), None);
    }

    #[test]
    fn count_mirrors_into_tracer() {
        let tracer = Tracer::enabled();
        let m = Metrics::new();
        m.count(&m.shed, &tracer, "shed");
        m.count(&m.shed, &tracer, "shed");
        assert_eq!(m.shed.load(Ordering::Relaxed), 2);
        assert_eq!(tracer.report().total_counter("shed"), 2);
    }

    #[test]
    fn histogram_lines_render_and_parse() {
        let m = Metrics::new();
        for v in [100u64, 200, 300] {
            m.hists.record("request_us:synth:modular", v);
        }
        let text = m.render(&SynthStore::new(), false);
        assert_eq!(
            Metrics::parse_hist(&text, "request_us:synth:modular", "count"),
            Some(3)
        );
        assert_eq!(
            Metrics::parse_hist(&text, "request_us:synth:modular", "max"),
            Some(300)
        );
        let p50 = Metrics::parse_hist(&text, "request_us:synth:modular", "p50").unwrap();
        assert!((190..=210).contains(&p50), "p50 ≈ 200, got {p50}");
        // Un-keyed names render without the key label.
        assert!(text.contains("modsynd_queue_wait_us{q=\"p50\"} 0\n"));
    }

    /// The full exposition of a fresh server is pinned: adding, removing
    /// or reordering lines is a contract change for scrapers and must be
    /// deliberate (update this test when it is).
    #[test]
    fn fresh_exposition_format_is_pinned() {
        let counter_lines = "\
modsynd_requests_total 0
modsynd_cache_hits_total 0
modsynd_cache_misses_total 0
modsynd_cache_evictions_total 0
modsynd_store_hits_total 0
modsynd_store_misses_total 0
modsynd_store_dirty_total 0
modsynd_shed_total 0
modsynd_aborted_total 0
modsynd_certified_total 0
modsynd_http_errors_total 0
modsynd_synth_failures_total 0
modsynd_check_failures_total 0
modsynd_panics_total 0
modsynd_breaker_rejections_total 0
modsynd_breaker_opens_total 0
modsynd_retry_recoveries_total 0
modsynd_injected_faults_total 0
modsynd_wal_appends_total 0
modsynd_wal_fsyncs_total 0
modsynd_checkpoints_total 0
modsynd_recovery_frames_replayed 0
modsynd_recovery_frames_truncated 0
modsynd_recovery_checksum_failures 0
modsynd_recovery_snapshot_fallbacks 0
modsynd_queue_depth 0
modsynd_in_flight 0
modsynd_connections 0
modsynd_ready 0
";
        let mut expected = String::from(counter_lines);
        let mut names: Vec<&str> = STANDARD_HISTOGRAMS.to_vec();
        names.sort_unstable();
        for name in names {
            for q in ["p50", "p90", "p99", "max", "count"] {
                expected.push_str(&Metrics::hist_line_name(name, q));
                expected.push_str(" 0\n");
            }
        }
        assert_eq!(Metrics::new().render(&SynthStore::new(), false), expected);
    }

    #[test]
    fn gauge_guards_enter_adopt_and_release() {
        let m = Arc::new(Metrics::new());
        {
            m.connections.fetch_add(2, Ordering::AcqRel);
            let _a = GaugeGuard::adopt(Arc::clone(&m), Gauge::Connections);
            let _b = GaugeGuard::adopt(Arc::clone(&m), Gauge::Connections);
            assert_eq!(m.connections.load(Ordering::Relaxed), 2);
        }
        assert_eq!(m.connections.load(Ordering::Relaxed), 0);
        // Adopt: the increment happened elsewhere; the guard only releases.
        m.queue_depth.fetch_add(1, Ordering::AcqRel);
        drop(GaugeGuard::adopt(Arc::clone(&m), Gauge::QueueDepth));
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn gauge_guard_releases_on_unwind() {
        let m = Arc::new(Metrics::new());
        let metrics = Arc::clone(&m);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            metrics.queue_depth.fetch_add(1, Ordering::AcqRel);
            let _g = GaugeGuard::adopt(metrics, Gauge::QueueDepth);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(m.queue_depth.load(Ordering::Relaxed), 0);
    }
}
