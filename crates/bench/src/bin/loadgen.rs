//! `loadgen` — replay the Table-1 suite against the synthesis service.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--fleet HOST:PORT,HOST:PORT,...]
//!         [--concurrency N] [--jobs N] [--repeat N]
//!         [--small] [--corpus N] [--timeout-ms T] [--out FILE]
//! ```
//!
//! Without `--addr`, starts an in-process [`modsyn_svc::Server`] on a free
//! port (running up to `--jobs` syntheses at once) and tears it down
//! afterwards; with
//! `--addr`, targets an already running `modsynd`; with `--fleet`, targets
//! a replica fleet (e.g. one supervised by `modsynfleet`) through the
//! consistent-hash failover router — each request routes by its STG
//! digest and falls over to the next replica in rendezvous order when its
//! primary is down, so the generator keeps certifying responses while a
//! replica is `kill -9`'d and restarted under it.
//!
//! The run has two passes over the benchmark set (all 23 Table-1 rows, or
//! the small subset with `--small`), each issuing `concurrency` parallel
//! client threads, `--repeat` rounds per pass:
//!
//! * **cold** — first contact: every row is a cache miss and synthesises
//!   (repeats of the same row within the pass may hit),
//! * **warm** — same requests again: every row must be a cache hit.
//!
//! With `--corpus N` the work set extends by the first `N` seeds of the
//! compositional corpus stream: composed in-theory cases are posted as
//! `method=modular` and must come back `200` certified like the Table-1
//! rows, while asymmetric-choice probes are posted as `method=lavagno`
//! and must draw the typed `422 not-free-choice` rejection carrying
//! `X-Modsyn-Class: asymmetric-choice` — the serving path's rejection
//! taxonomy under load, not just its happy path.
//!
//! Every response is checked against its row's expectation: status 200
//! with `"certified":true` in the body, or the expected typed 422.
//! The summary (throughput and p50/p95/p99 latency per pass, plus the
//! server's own `/metrics` counters) is printed and written to
//! `BENCH_serve.json` (or `--out FILE`).
//!
//! Acceptance: both passes must be error-free. Against a single server
//! the warm pass must additionally serve every cacheable row as a cache
//! hit; against a fleet the hit floor relaxes to "some hits" — a replica
//! killed mid-run hands its slice to its failover, so per-replica warmth
//! moves (the chaos matrix owns the strict warm-restart assertion).

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use modsyn_fault::fnv1a64;
use modsyn_fleet::FleetRouter;
use modsyn_obs::{Json, Tracer};
use modsyn_svc::{client, Metrics, Server, ServerConfig};

struct Args {
    addr: Option<String>,
    fleet: Option<String>,
    concurrency: usize,
    jobs: usize,
    repeat: usize,
    small: bool,
    corpus: u64,
    timeout: Duration,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        fleet: None,
        concurrency: 8,
        jobs: modsyn_par::available_jobs().max(4),
        repeat: 1,
        small: false,
        corpus: 0,
        timeout: Duration::from_secs(120),
        out: "BENCH_serve.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--fleet" => args.fleet = Some(value("--fleet")?),
            "--concurrency" => {
                args.concurrency = value("--concurrency")?
                    .parse()
                    .map_err(|_| "bad --concurrency value")?;
            }
            "--jobs" => args.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs value")?,
            "--repeat" => {
                args.repeat = value("--repeat")?
                    .parse()
                    .map_err(|_| "bad --repeat value")?;
            }
            "--small" => args.small = true,
            "--corpus" => {
                args.corpus = value("--corpus")?
                    .parse()
                    .map_err(|_| "bad --corpus value")?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --timeout-ms value")?;
                args.timeout = Duration::from_millis(ms);
            }
            "--out" => args.out = value("--out")?,
            "--help" | "-h" => {
                return Err(
                    "usage: loadgen [--addr HOST:PORT] [--fleet HOST:PORT,HOST:PORT,...] \
                     [--concurrency N] [--jobs N] \
                     [--repeat N] [--small] [--corpus N] [--timeout-ms T] [--out FILE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.concurrency == 0 || args.repeat == 0 {
        return Err("--concurrency and --repeat must be at least 1".to_string());
    }
    if args.addr.is_some() && args.fleet.is_some() {
        return Err("--addr and --fleet are mutually exclusive".to_string());
    }
    Ok(args)
}

/// What a work item expects of its response.
#[derive(Clone, Copy, PartialEq)]
enum Expect {
    /// `200` with `"certified":true` — cacheable, so the warm pass must
    /// serve it as a hit.
    Certified,
    /// The typed `422 not-free-choice` rejection with
    /// `X-Modsyn-Class: asymmetric-choice` — never cached.
    RejectedBeyondTheory,
}

/// One request to issue: the posted `.g` body, the method path and the
/// expected response shape.
struct WorkItem {
    path: &'static str,
    body: String,
    /// Routing digest of the body (fleet mode routes by it).
    digest: u64,
    expect: Expect,
}

/// Where requests go: one server, or a replica fleet behind the
/// rendezvous failover router.
enum Target {
    Single(SocketAddr),
    Fleet(FleetRouter),
}

impl Target {
    /// The addresses `/metrics` is scraped from (every replica for a
    /// fleet; counters are summed across them).
    fn scrape_addrs(&self) -> Vec<SocketAddr> {
        match self {
            Target::Single(addr) => vec![*addr],
            Target::Fleet(router) => router.addrs().to_vec(),
        }
    }

    fn send(
        &self,
        item: &WorkItem,
        timeout: Duration,
        policy: &client::BackoffPolicy,
    ) -> std::io::Result<client::ClientResponse> {
        match self {
            Target::Single(addr) => client::request_with_backoff(
                *addr,
                "POST",
                item.path,
                item.body.as_bytes(),
                timeout,
                policy,
            ),
            Target::Fleet(router) => router.route(
                item.digest,
                "POST",
                item.path,
                item.body.as_bytes(),
                timeout,
                policy,
            ),
        }
    }
}

/// One request's outcome.
struct Sample {
    latency: Duration,
    cache: String,
    /// The response matched its work item's expectation.
    ok: bool,
    /// The item expects a cacheable 200.
    cacheable: bool,
}

/// Latency/throughput summary of one pass.
struct PassStats {
    requests: usize,
    errors: usize,
    hits: usize,
    /// Requests that expect a cacheable 200 (the warm-pass hit target).
    cacheable: usize,
    wall: Duration,
    p50: Duration,
    p95: Duration,
    p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn summarise(samples: &[Sample], wall: Duration) -> PassStats {
    let mut latencies: Vec<Duration> = samples.iter().map(|s| s.latency).collect();
    latencies.sort_unstable();
    PassStats {
        requests: samples.len(),
        errors: samples.iter().filter(|s| !s.ok).count(),
        hits: samples.iter().filter(|s| s.cache == "hit").count(),
        cacheable: samples.iter().filter(|s| s.cacheable).count(),
        wall,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
    }
}

fn pass_json(stats: &PassStats, server_histograms: Json) -> Json {
    let rps = if stats.wall.as_secs_f64() > 0.0 {
        stats.requests as f64 / stats.wall.as_secs_f64()
    } else {
        0.0
    };
    Json::obj([
        ("requests", Json::from(stats.requests)),
        ("errors", Json::from(stats.errors)),
        ("cache_hits", Json::from(stats.hits)),
        ("cacheable", Json::from(stats.cacheable)),
        ("wall_seconds", Json::from(stats.wall.as_secs_f64())),
        ("throughput_rps", Json::from(rps)),
        ("p50_ms", Json::from(stats.p50.as_secs_f64() * 1e3)),
        ("p95_ms", Json::from(stats.p95.as_secs_f64() * 1e3)),
        ("p99_ms", Json::from(stats.p99.as_secs_f64() * 1e3)),
        // The server's own view of the same traffic (log-scale
        // histograms, µs, cumulative at scrape time) next to the
        // client-side percentiles above.
        ("server_histograms", server_histograms),
    ])
}

/// Runs one pass: `work` items fanned over `concurrency` threads.
///
/// Each request runs under [`client::request_with_backoff`], so transient
/// connect failures, torn responses and `Retry-After`-bearing 503s (load
/// shed, open breaker) are retried with bounded jittered backoff instead
/// of being counted as errors — the generator measures the service, not
/// the luck of its own connections. The jitter seed varies per work item
/// so retries do not synchronise into waves.
fn run_pass(
    target: &Target,
    work: &[WorkItem],
    concurrency: usize,
    timeout: Duration,
) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(work.len()));
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..concurrency {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = work.get(i) else { break };
                let policy = client::BackoffPolicy {
                    seed: client::BackoffPolicy::default().seed ^ i as u64,
                    ..client::BackoffPolicy::default()
                };
                let sent = Instant::now();
                let cacheable = item.expect == Expect::Certified;
                let sample = match target.send(item, timeout, &policy) {
                    Ok(response) => {
                        let ok = match item.expect {
                            Expect::Certified => {
                                response.status == 200
                                    && response.text().contains("\"certified\":true")
                            }
                            Expect::RejectedBeyondTheory => {
                                response.status == 422
                                    && response.text().contains("\"error\":\"not-free-choice\"")
                                    && response.header("x-modsyn-class")
                                        == Some("asymmetric-choice")
                            }
                        };
                        Sample {
                            latency: sent.elapsed(),
                            cache: response
                                .header("x-modsyn-cache")
                                .unwrap_or_default()
                                .to_string(),
                            ok,
                            cacheable,
                        }
                    }
                    Err(_) => Sample {
                        latency: sent.elapsed(),
                        cache: String::new(),
                        ok: false,
                        cacheable,
                    },
                };
                samples
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(sample);
            });
        }
    });
    let wall = started.elapsed();
    (samples.into_inner().unwrap(), wall)
}

/// Scrapes one counter, summed across the target's replicas (a fleet's
/// traffic lands on all of them). `None` when no replica answered.
fn fetch_metric(target: &Target, name: &str, timeout: Duration) -> Option<u64> {
    let mut sum = None;
    for addr in target.scrape_addrs() {
        if let Some(v) = client::request(addr, "GET", "/metrics", b"", timeout)
            .ok()
            .and_then(|r| Metrics::parse_line(&r.text(), name))
        {
            sum = Some(sum.unwrap_or(0) + v);
        }
    }
    sum
}

/// The server-side latency histograms this run exercises, scraped from
/// `/metrics`. Snapshots are cumulative over the server's life, so the
/// warm-pass snapshot includes the cold pass — the delta is the reader's
/// job; the generator records what the server observed.
const SCRAPED_HISTOGRAMS: &[&str] = &[
    "request_us:synth:modular",
    "queue_wait_us",
    "synth_cpu_us:modular",
];

/// Scrapes the latency histograms. Quantile sketches do not merge, so a
/// fleet reports its first replica's view — representative, not a total.
fn fetch_histograms(target: &Target, timeout: Duration) -> Json {
    let Some(addr) = target.scrape_addrs().first().copied() else {
        return Json::Null;
    };
    let Some(rendered) = client::request(addr, "GET", "/metrics", b"", timeout)
        .ok()
        .map(|r| r.text())
    else {
        return Json::Null;
    };
    Json::obj(SCRAPED_HISTOGRAMS.iter().map(|name| {
        let quantile =
            |q: &str| Metrics::parse_hist(&rendered, name, q).map_or(Json::Null, Json::from);
        (
            *name,
            Json::obj([
                ("count", quantile("count")),
                ("p50_us", quantile("p50")),
                ("p90_us", quantile("p90")),
                ("p99_us", quantile("p99")),
                ("max_us", quantile("max")),
            ]),
        )
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // The benchmark suite, as the .g text a client would post.
    let small_names: Vec<&str> = modsyn_bench::small_rows().iter().map(|r| r.name).collect();
    let mut work: Vec<WorkItem> = modsyn_stg::benchmarks::all()
        .into_iter()
        .filter(|(name, _)| !args.small || small_names.contains(name))
        .flat_map(|(_, stg)| {
            let body = modsyn_stg::write_g(&stg);
            let digest = fnv1a64(body.as_bytes());
            std::iter::repeat_with(move || WorkItem {
                path: "/synth?method=modular",
                body: body.clone(),
                digest,
                expect: Expect::Certified,
            })
            .take(args.repeat)
        })
        .collect();
    // Corpus rows: in-theory cases ride the modular happy path; probes
    // target the theory-scoped comparator and must draw its typed 422.
    for seed in 0..args.corpus {
        let (stg, expectation) = modsyn_corpus::corpus_case(seed);
        let body = modsyn_stg::write_g(&stg);
        let (path, expect) = match expectation {
            modsyn_corpus::Expectation::InTheory => ("/synth?method=modular", Expect::Certified),
            modsyn_corpus::Expectation::BeyondTheory => {
                ("/synth?method=lavagno", Expect::RejectedBeyondTheory)
            }
        };
        for _ in 0..args.repeat {
            work.push(WorkItem {
                path,
                body: body.clone(),
                digest: fnv1a64(body.as_bytes()),
                expect,
            });
        }
    }

    // Target a running daemon, a replica fleet, or host a server
    // in-process.
    let (target, server_thread, handle) = match (&args.addr, &args.fleet) {
        (Some(spec), _) => {
            let addr: SocketAddr = match spec.parse() {
                Ok(a) => a,
                Err(e) => {
                    eprintln!("error: bad --addr {spec:?}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            (Target::Single(addr), None, None)
        }
        (None, Some(spec)) => {
            let mut addrs = Vec::new();
            for part in spec.split(',').filter(|p| !p.is_empty()) {
                match part.parse() {
                    Ok(a) => addrs.push(a),
                    Err(e) => {
                        eprintln!("error: bad --fleet address {part:?}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if addrs.is_empty() {
                eprintln!("error: --fleet needs at least one address");
                return ExitCode::FAILURE;
            }
            (Target::Fleet(FleetRouter::new(addrs)), None, None)
        }
        (None, None) => {
            let config = ServerConfig {
                jobs: args.jobs,
                queue_capacity: work.len().max(64),
                ..ServerConfig::default()
            };
            let server = match Server::bind(config, Tracer::disabled()) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot bind in-process server: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.local_addr();
            let handle = server.handle();
            let thread = std::thread::spawn(move || server.run());
            (Target::Single(addr), Some(thread), Some(handle))
        }
    };

    let target_desc = match &target {
        Target::Single(addr) => addr.to_string(),
        Target::Fleet(router) => format!("fleet of {}", router.addrs().len()),
    };
    eprintln!(
        "loadgen: {} requests/pass ({} subjects x{} repeat), concurrency {}, server {}",
        work.len(),
        work.len() / args.repeat,
        args.repeat,
        args.concurrency,
        target_desc,
    );

    let (cold_samples, cold_wall) = run_pass(&target, &work, args.concurrency, args.timeout);
    let cold = summarise(&cold_samples, cold_wall);
    let cold_hists = fetch_histograms(&target, args.timeout);
    let (warm_samples, warm_wall) = run_pass(&target, &work, args.concurrency, args.timeout);
    let warm = summarise(&warm_samples, warm_wall);
    let warm_hists = fetch_histograms(&target, args.timeout);

    let metrics = Json::obj(
        [
            "modsynd_requests_total",
            "modsynd_cache_hits_total",
            "modsynd_cache_misses_total",
            "modsynd_cache_evictions_total",
            "modsynd_shed_total",
            "modsynd_aborted_total",
            "modsynd_certified_total",
        ]
        .map(|name| {
            (
                name,
                fetch_metric(&target, name, args.timeout).map_or(Json::Null, Json::from),
            )
        }),
    );

    if let Some(handle) = handle {
        handle.shutdown();
    }
    if let Some(thread) = server_thread {
        let _ = thread.join();
    }

    let doc = Json::obj([
        (
            "config",
            Json::obj([
                ("benchmarks", Json::from(work.len() / args.repeat)),
                ("repeat", Json::from(args.repeat)),
                ("concurrency", Json::from(args.concurrency)),
                ("jobs", Json::from(args.jobs)),
                ("small", Json::from(args.small)),
                ("corpus", Json::from(args.corpus)),
                (
                    "external",
                    Json::from(args.addr.is_some() || args.fleet.is_some()),
                ),
                (
                    "fleet_replicas",
                    match &target {
                        Target::Single(_) => Json::Null,
                        Target::Fleet(router) => Json::from(router.addrs().len()),
                    },
                ),
            ]),
        ),
        ("cold", pass_json(&cold, cold_hists)),
        ("warm", pass_json(&warm, warm_hists)),
        ("server_metrics", metrics),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }

    for (label, stats) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "{label}: {} req in {:.2}s ({:.1} rps), p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms, {} hits, {} errors",
            stats.requests,
            stats.wall.as_secs_f64(),
            stats.requests as f64 / stats.wall.as_secs_f64().max(1e-9),
            stats.p50.as_secs_f64() * 1e3,
            stats.p95.as_secs_f64() * 1e3,
            stats.p99.as_secs_f64() * 1e3,
            stats.hits,
            stats.errors,
        );
    }
    println!("wrote {}", args.out);

    // The warm pass must serve every cacheable row from cache and be
    // error-free; typed 422 rejections are never cached, so they are
    // excluded from the hit target. The cold pass may contain within-pass
    // hits (repeat > 1) but no errors. Against a fleet the hit floor
    // relaxes to "some hits": chaos restarts move slices between
    // replicas, so strict per-row warmth belongs to the chaos matrix.
    let warm_enough = match &target {
        Target::Single(_) => warm.hits >= warm.cacheable,
        Target::Fleet(_) => warm.hits > 0,
    };
    if cold.errors > 0 || warm.errors > 0 || !warm_enough {
        eprintln!("error: serving run failed acceptance (errors or cold warm-pass entries)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
