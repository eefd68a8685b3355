//! The `serve` workload: an in-process [`Server`] with a durable store (the
//! daemon's `--durable`, in a directory under `perfbench-out/`) and a pool
//! of two workers, driven over HTTP by one load generator with two
//! closed-loop connections.
//!
//! The script posts every unique spec once cold — the 23 Table-1 rows and
//! the xs- and small-tier corpus cases of a fixed slice, all
//! `method=modular` — repeats each [`HITS_PER_SPEC`] times, and sends one
//! `/synth/incr` edit per Table-1 row, chosen by the `modsyn_bench::incr`
//! edit chooser. One connection sends the store writes (cold posts and
//! edits) one after another in a fixed order: a write can reuse modules an
//! earlier one stored, so its cost depends on what came before. The other
//! sends the repeats in the order the seed gave them, each once its cold
//! post has answered, so it reads the cache while a write synthesises.
//! Writes never race and every repeat follows its cold post, so the hit and
//! store counts are fixed, not left to thread timing; the price is that at
//! most one synthesis runs at a time, and the second pool worker serves
//! only what misses the cache.
//!
//! The traced pass runs the same script against a server whose tracer is
//! enabled and reads the synthesis layers from the span tree it records;
//! the serving and store layers come from `/metrics` and the durable
//! directory. The server parses and certifies outside any span, so those
//! costs land in `unattributed_us`.

use std::net::SocketAddr;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use modsyn_bench::corpus::CORPUS_TIERS;
use modsyn_bench::incr::choose_edit;
use modsyn_bench::TABLE1_BACKTRACK_LIMIT;
use modsyn_corpus::{corpus_case, Expectation};
use modsyn_fault::SplitMix64;
use modsyn_obs::{parse_json, Json, Tracer};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::{benchmarks, write_g};
use modsyn_store::DurableConfig;
use modsyn_svc::{client, Metrics, Server, ServerConfig, ServerHandle};

use crate::report::{
    add_spans, measured_enough, median, peak_rss_mb, shuffle, write_detail, HostSpeed, Outcome,
    Tally, OUT_DIR,
};
use crate::Args;

/// Server pool workers.
const WORKERS: usize = 2;
/// Corpus stream seeds whose xs- and small-tier cases join the script. The
/// slice stops before seed 30, whose cold post alone takes seconds of
/// logic minimisation under the server's engine: beyond it the script
/// would measure espresso, not serving, and fit too few passes in a run.
const CORPUS_CASES: Range<u64> = 0..30;
/// Repeats per unique spec: they outnumber cold posts this many times.
const HITS_PER_SPEC: usize = 4;
/// Edit-chooser seed, fixed so every `--seed` posts the same edits.
const EDIT_SEED: usize = 0;
/// Orders the writes, the same for every `--seed`.
const WRITE_SEED: u64 = 0;
/// Cold starts before the first pass; `setup_s` is their median.
const SETUP_REPEATS: usize = 30;
/// Per-request client timeout, and the bound on waiting for readiness.
const TIMEOUT: Duration = Duration::from_secs(120);

/// One unique spec of the script.
struct Spec {
    id: String,
    body: String,
    /// A beyond-theory probe: a typed 422 meets its expectation.
    probe: bool,
    /// The `/synth/incr` body of a Table-1 row's edit.
    edit: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Cold,
    Repeat,
    Edit,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Cold => "cold post",
            Kind::Repeat => "repeat",
            Kind::Edit => "incr edit",
        }
    }
}

/// One request of the script.
#[derive(Debug, Clone, Copy)]
struct Item {
    spec: usize,
    kind: Kind,
}

/// A response as the client saw it; status 0 marks a transport error.
#[derive(Debug, Clone)]
struct Served {
    status: u16,
    cache: String,
    digest: String,
    body: Vec<u8>,
    latency_ms: f64,
}

impl Served {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    fn certified(&self) -> bool {
        self.status == 200 && self.text().contains("\"certified\":true")
    }

    /// The status with its typed error tag, or the transport error.
    fn describe(&self) -> String {
        if self.status == 0 {
            return format!("transport error: {}", self.text());
        }
        let tag = parse_json(&self.text())
            .ok()
            .and_then(|doc| doc.get("error").and_then(Json::as_str).map(str::to_string))
            .unwrap_or_default();
        format!("HTTP {} {tag}", self.status)
    }
}

/// The seeded script.
struct Script {
    /// Cold posts and edits, in the fixed order one connection sends them.
    writes: Vec<Item>,
    /// Repeats in the order the other connection sends them, each with the
    /// number of writes that must have answered before it goes.
    repeats: Vec<(usize, Item)>,
}

/// One pass of the script against a fresh server; `served` holds the
/// writes and then the repeats, each in script order.
struct Pass {
    served: Vec<(Item, Served)>,
    /// Elapsed time of the script, without the calibration loop's timings.
    wall_s: f64,
    /// The host's speed over the writes, which set the pass's pace.
    speed: HostSpeed,
    metrics: String,
    store_bytes: u64,
}

/// The script's unique specs; they do not depend on the seed.
fn specs() -> Vec<Spec> {
    let mut specs: Vec<Spec> = benchmarks::all()
        .into_iter()
        .map(|(name, stg)| Spec {
            id: name.to_string(),
            body: write_g(&stg),
            probe: false,
            edit: Some(write_g(&choose_edit(&stg, EDIT_SEED).stg)),
        })
        .collect();
    let small = CORPUS_TIERS
        .iter()
        .find(|(tier, _)| *tier == "small")
        .map_or(0, |(_, bound)| *bound);
    for seed in CORPUS_CASES {
        let (stg, expectation) = corpus_case(seed);
        if derive(&stg, &DeriveOptions::default()).is_ok_and(|g| g.state_count() < small) {
            specs.push(Spec {
                id: format!("seed {seed}"),
                body: write_g(&stg),
                probe: expectation == Expectation::BeyondTheory,
                edit: None,
            });
        }
    }
    specs
}

/// The seeded script: the writes — the cold posts in a fixed shuffled
/// order, each edit somewhere after its row's cold post — and the repeats,
/// each placed by `seed` somewhere after its spec's cold post.
fn script(specs: &[Spec], seed: u64) -> Script {
    let mut rng = SplitMix64::new(WRITE_SEED);
    let mut writes: Vec<Item> = (0..specs.len())
        .map(|spec| Item {
            spec,
            kind: Kind::Cold,
        })
        .collect();
    shuffle(&mut writes, &mut rng);
    for spec in (0..specs.len()).filter(|&spec| specs[spec].edit.is_some()) {
        let cold = writes
            .iter()
            .position(|w| w.spec == spec)
            .expect("every spec is posted cold");
        let at = cold + 1 + rng.below(writes.len() - cold);
        writes.insert(
            at,
            Item {
                spec,
                kind: Kind::Edit,
            },
        );
    }
    let mut rng = SplitMix64::new(seed);
    let mut repeats = Vec::new();
    for (index, write) in writes.iter().enumerate() {
        if write.kind == Kind::Cold {
            for _ in 0..HITS_PER_SPEC {
                let after = index + 1 + rng.below(writes.len() - index);
                let item = Item {
                    spec: write.spec,
                    kind: Kind::Repeat,
                };
                repeats.push((after, item));
            }
        }
    }
    shuffle(&mut repeats, &mut rng);
    repeats.sort_by_key(|&(after, _)| after);
    Script { writes, repeats }
}

/// A durable-store directory under [`OUT_DIR`], removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let path = Path::new(OUT_DIR).join(format!("serve-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// Bytes on disk: the journal and the snapshot generations.
    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|entry| entry.metadata().ok())
            .map(|meta| meta.len())
            .sum()
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A server running on its own thread.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Binds a server on `dir` and waits until `/readyz` answers 200 (bind,
    /// durable recovery, readiness).
    fn start(dir: &Path, tracer: Tracer) -> Result<Running, String> {
        let started = Instant::now();
        let config = ServerConfig {
            jobs: WORKERS,
            backtrack_limit: Some(TABLE1_BACKTRACK_LIMIT),
            durable: Some(DurableConfig::new(dir)),
            ..ServerConfig::default()
        };
        let server = Server::bind(config, tracer).map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let running = Running {
            handle,
            thread: std::thread::spawn(move || server.run()),
        };
        let addr = running.handle.addr();
        while !client::request(addr, "GET", "/readyz", b"", TIMEOUT).is_ok_and(|r| r.status == 200)
        {
            if started.elapsed() > TIMEOUT {
                running.stop()?;
                return Err("the server never became ready".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(running)
    }

    /// Drains the server and waits for its thread.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(result) => result.map_err(|e| format!("server: {e}")),
            Err(_) => Err("the server thread panicked".to_string()),
        }
    }
}

/// Sends one request of the script and times it. An edit names its row's
/// cold-post digest, from `digests`, as the base.
fn send(addr: SocketAddr, specs: &[Spec], item: Item, digests: &[String]) -> Served {
    let spec = &specs[item.spec];
    let (target, body) = match item.kind {
        Kind::Cold | Kind::Repeat => ("/synth?method=modular".to_string(), spec.body.as_str()),
        Kind::Edit => (
            format!("/synth/incr?method=modular&base={}", digests[item.spec]),
            spec.edit.as_deref().expect("only Table-1 rows are edited"),
        ),
    };
    let sent = Instant::now();
    let response = client::request(addr, "POST", &target, body.as_bytes(), TIMEOUT);
    let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
    match response {
        Ok(response) => Served {
            status: response.status,
            cache: response
                .header("x-modsyn-cache")
                .unwrap_or_default()
                .to_string(),
            digest: response
                .header("x-modsyn-digest")
                .unwrap_or_default()
                .to_string(),
            body: response.body,
            latency_ms,
        },
        Err(e) => Served {
            status: 0,
            cache: String::new(),
            digest: String::new(),
            body: e.to_string().into_bytes(),
            latency_ms,
        },
    }
}

/// Runs the whole script once against a fresh server on a fresh durable
/// directory: one connection sends the writes, timing the calibration loop
/// between them, and the other the repeats.
fn run_pass(specs: &[Spec], script: &Script, tracer: Tracer, tag: &str) -> Result<Pass, String> {
    let dir = WorkDir::new(tag)?;
    let server = Running::start(&dir.0, tracer)?;
    let addr = server.handle.addr();
    // Writes answered so far; the repeats wait on it.
    let answered = Mutex::new(0usize);
    let progress = Condvar::new();
    let started = Instant::now();
    let ((mut served, speed), repeats) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut speed = HostSpeed::default();
            let mut digests = vec![String::new(); specs.len()];
            let mut served = Vec::with_capacity(script.writes.len());
            for &item in &script.writes {
                let (answer, _) = speed.time(|| send(addr, specs, item, &digests));
                if item.kind == Kind::Cold {
                    digests[item.spec] = answer.digest.clone();
                }
                served.push((item, answer));
                *answered
                    .lock()
                    .expect("no connection panics holding the lock") += 1;
                progress.notify_all();
            }
            (served, speed)
        });
        let reader = scope.spawn(|| {
            let mut served = Vec::with_capacity(script.repeats.len());
            for &(after, item) in &script.repeats {
                let mut done = answered
                    .lock()
                    .expect("no connection panics holding the lock");
                while *done < after {
                    done = progress
                        .wait(done)
                        .expect("no connection panics holding the lock");
                }
                drop(done);
                served.push((item, send(addr, specs, item, &[])));
            }
            served
        });
        (
            writer
                .join()
                .expect("the writing connection does not panic"),
            reader
                .join()
                .expect("the repeating connection does not panic"),
        )
    });
    let wall_s = started.elapsed().as_secs_f64() - speed.calibration_s();
    served.extend(repeats);
    let metrics = client::request(addr, "GET", "/metrics", b"", TIMEOUT);
    let store_bytes = dir.bytes();
    server.stop()?;
    Ok(Pass {
        served,
        wall_s,
        speed,
        metrics: metrics.map_err(|e| format!("/metrics: {e}"))?.text(),
        store_bytes,
    })
}

/// What one pass answered, checked against each request's expectation.
#[derive(Default)]
struct Eval {
    ok: u64,
    failed: u64,
    /// Per request, in script order.
    latencies: Vec<f64>,
    hits: Vec<bool>,
    literals: f64,
    state_signals: f64,
    final_states: f64,
    posted_bytes: f64,
    /// Each spec's cold-post status, and its body when certified: both
    /// must repeat exactly from pass to pass.
    cold: Vec<(u16, Option<Vec<u8>>)>,
    problems: Vec<String>,
    misses: Vec<String>,
}

fn evaluate(specs: &[Spec], pass: &Pass) -> Eval {
    let mut eval = Eval {
        cold: vec![(0, None); specs.len()],
        ..Eval::default()
    };
    for (item, served) in &pass.served {
        if item.kind == Kind::Cold {
            eval.cold[item.spec] = (
                served.status,
                served.certified().then(|| served.body.clone()),
            );
        }
    }
    for (item, served) in &pass.served {
        let spec = &specs[item.spec];
        let name = format!("{} ({})", spec.id, item.kind.label());
        eval.latencies.push(served.latency_ms);
        eval.hits
            .push(item.kind == Kind::Repeat && served.cache == "hit");
        eval.posted_bytes += match item.kind {
            Kind::Edit => spec.edit.as_ref().map_or(0, String::len),
            Kind::Cold | Kind::Repeat => spec.body.len(),
        } as f64;
        if item.kind == Kind::Repeat {
            if let (_, Some(body)) = &eval.cold[item.spec] {
                if served.cache != "hit" || *body != served.body {
                    eval.problems.push(format!(
                        "{name}: not a byte-identical cache hit of the certified cold post"
                    ));
                }
            }
        }
        if !matches!(served.status, 200 | 422) {
            eval.failed += 1;
            if served.status == 500 {
                eval.problems.push(format!("{name}: {}", served.describe()));
            }
        }
        let certified = served.certified();
        if certified || (served.status == 422 && spec.probe) {
            eval.ok += 1;
        } else {
            eval.misses.push(format!("{name}: {}", served.describe()));
        }
        if certified && item.kind != Kind::Repeat {
            if let Ok(doc) = parse_json(&served.text()) {
                let field = |key: &str| doc.get(key).and_then(Json::as_f64).unwrap_or(0.0);
                eval.literals += field("literals");
                eval.state_signals += field("final_signals") - field("initial_signals");
                eval.final_states += field("final_states");
            }
        }
    }
    eval
}

/// Keeps the first pass's evaluation and holds every later pass, traced
/// ones included, to its cold-post answers byte for byte.
fn compare(out: &mut Outcome, first: &mut Option<Eval>, eval: Eval, pass: u32) {
    out.problems.extend(eval.problems.iter().cloned());
    match first {
        None => {
            out.misses.extend(eval.misses.iter().cloned());
            *first = Some(eval);
        }
        Some(reference) => {
            if reference.cold != eval.cold {
                out.problems.push(format!(
                    "pass {}: cold-post answers differ from the first pass",
                    pass + 1
                ));
            }
        }
    }
}

/// The serving and store layers' figures, from `/metrics` and the durable
/// directory.
fn scrape(pass: &Pass, tally: &mut Tally) {
    let line = |name: &str| Metrics::parse_line(&pass.metrics, name).unwrap_or(0) as f64;
    let hist =
        |name: &str, q: &str| Metrics::parse_hist(&pass.metrics, name, q).unwrap_or(0) as f64;
    let hits = line("modsynd_cache_hits_total");
    let misses = line("modsynd_cache_misses_total");
    for (metric, value) in [
        ("svc.queue_wait_us.p50", hist("queue_wait_us", "p50")),
        ("svc.queue_wait_us.p99", hist("queue_wait_us", "p99")),
        ("svc.pool_wait_us.p50", hist("pool_wait_us", "p50")),
        ("svc.synth_cpu_us.p50", hist("synth_cpu_us:modular", "p50")),
        ("svc.cache_hit_ratio", hits / (hits + misses).max(1.0)),
        ("svc.shed", line("modsynd_shed_total")),
        ("svc.http_errors", line("modsynd_http_errors_total")),
        ("store.hits", line("modsynd_store_hits_total")),
        ("store.misses", line("modsynd_store_misses_total")),
        ("store.dirty_modules", line("modsynd_store_dirty_total")),
        ("store.incr_us.p50", hist("request_us:incr", "p50")),
        ("store.wal_appends", line("modsynd_wal_appends_total")),
        ("store.wal_fsyncs", line("modsynd_wal_fsyncs_total")),
        ("store.checkpoints", line("modsynd_checkpoints_total")),
        ("store.journal_bytes", pass.store_bytes as f64),
    ] {
        tally.add(metric, value);
    }
}

fn request_record(specs: &[Spec], item: Item, served: &Served) -> Json {
    Json::obj([
        ("spec", Json::from(specs[item.spec].id.as_str())),
        ("kind", Json::from(item.kind.label())),
        ("status", Json::from(u64::from(served.status))),
        ("cache", Json::from(served.cache.as_str())),
        ("latency_ms", Json::from(served.latency_ms)),
    ])
}

/// Runs the serving workload: untraced passes of the script until
/// `args.seconds` have passed, or with `trace` one untraced and one traced
/// pass (see [`measured_enough`]). A request's latency is the median of
/// its latencies over the untraced passes, each scaled to the reference
/// host speed by its pass's calibration ([`HostSpeed`]).
pub fn run(args: &Args, trace: bool) -> Result<Outcome, String> {
    let specs = specs();
    let script = script(&specs, args.seed);
    let mut speed = HostSpeed::default();
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    for i in 0..SETUP_REPEATS {
        let dir = WorkDir::new(&format!("setup{i}"))?;
        let (server, ms) = speed.time(|| Running::start(&dir.0, Tracer::disabled()));
        server?.stop()?;
        setup.push(ms / 1e3);
    }
    let mut out = Outcome::new(|name| name == "stg.parse_us" || name.starts_with("check."));
    let mut first: Option<Eval> = None;
    // Each request's scaled latencies, one per untraced pass.
    let mut latencies: Vec<Vec<f64>> = Vec::new();
    let (mut walls, mut ok, mut passes) = (Vec::new(), 0u64, 0u32);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    loop {
        let pass = run_pass(
            &specs,
            &script,
            Tracer::disabled(),
            &format!("pass{passes}"),
        )?;
        let scale = pass.speed.scale();
        speed.merge(&pass.speed);
        let eval = evaluate(&specs, &pass);
        walls.push(pass.wall_s * scale);
        out.attempted += pass.served.len() as u64;
        out.failed += eval.failed;
        ok += eval.ok;
        latencies.resize(eval.latencies.len(), Vec::new());
        for (request, &ms) in latencies.iter_mut().zip(&eval.latencies) {
            request.push(ms * scale);
        }
        compare(&mut out, &mut first, eval, passes);
        passes += 1;
        if measured_enough(trace, passes, deadline) {
            break;
        }
    }
    if trace {
        let tracer = Tracer::enabled();
        let pass = run_pass(&specs, &script, tracer.clone(), "traced")?;
        let eval = evaluate(&specs, &pass);
        let mut layers = Tally::default();
        add_spans(&tracer.report(), true, &mut layers);
        scrape(&pass, &mut layers);
        layers.add("stg.bytes", eval.posted_bytes);
        layers.add("sg.final_states", eval.final_states);
        layers.finish();
        // Two connections overlap, so the layer times partition the summed
        // request time, not the elapsed wall.
        layers.attribute(eval.latencies.iter().sum::<f64>() * 1e3);
        let traced_wall = pass.wall_s * pass.speed.scale();
        layers.set("trace_overhead_ratio", traced_wall / walls[0]);
        let requests = pass
            .served
            .iter()
            .map(|(item, served)| request_record(&specs, *item, served))
            .collect();
        let doc = Json::obj([
            ("workload", Json::from("serve")),
            ("seed", Json::from(args.seed)),
            ("layers", layers.to_json()),
            ("requests", Json::Arr(requests)),
        ]);
        out.values.merge(&layers);
        out.detail = Some(write_detail("serve", args.seed, &doc)?);
        compare(&mut out, &mut first, eval, passes);
    }

    let reference = first.expect("at least one pass ran");
    out.host = Some(speed);
    out.values.set("setup_s", median(&setup));
    out.values.set(
        "throughput_per_s",
        reference.latencies.len() as f64 / median(&walls),
    );
    out.values.set("ok_ratio", ok as f64 / out.attempted as f64);
    out.values.set("literals", reference.literals);
    out.values.set("state_signals", reference.state_signals);
    out.values.set("peak_rss_mb", peak_rss_mb());
    let latencies: Vec<f64> = latencies.iter().map(|request| median(request)).collect();
    let hit_latencies: Vec<f64> = latencies
        .iter()
        .zip(&reference.hits)
        .filter_map(|(&ms, &hit)| hit.then_some(ms))
        .collect();
    out.latencies("latency_ms.p50", "latency_ms.tail", latencies);
    out.latencies(
        "svc.hit_latency_ms.p50",
        "svc.hit_latency_ms.tail",
        hit_latencies,
    );
    Ok(out)
}
