//! `chaosmat` — chaos certification across the synthesis stack.
//!
//! ```text
//! chaosmat [--small] [--seed N] [--jobs N] [--out FILE]
//!          [--corpus N] [--corpus-only] [--fleet]
//! ```
//!
//! Runs the Table-1 suite (all 23 rows, or the small subset with
//! `--small`) through a matrix of seeded fault plans and asserts the
//! stack's robustness invariants, certifying every successful result
//! against the independent `modsyn-check` oracle:
//!
//! * **pipeline** — for each fault plan (`sat.abort` bursts, conflict
//!   storms), the supervised retry ladder must still produce a certified
//!   result on every row, and that result must be byte-identical to the
//!   fault-free baseline; once the plan's fault budget is disabled
//!   ("faults clear"), a plain re-run must succeed too.
//! * **serving** — a `modsynd` server armed with svc I/O faults (accept
//!   drops, torn reads/writes, slow peers), synthesis panics, cache
//!   eviction storms and SAT aborts must, against the backoff client,
//!   eventually serve every row a certified `200` byte-identical to a
//!   clean server's response; a panicked run's result is never served.
//!
//! * **fleet** (`--fleet`) — the `kill -9` certification: a supervised
//!   fleet of 3 real `modsynd` processes, each with its own crash-safe
//!   `--durable` store, serves the whole suite through the consistent-hash
//!   failover router while a seeded `fleet.replica-kill` fault SIGKILLs
//!   the busiest replica mid-traffic. Every row must still draw its
//!   byte-identical certified response (failover absorbs the kill), and
//!   the restarted replica must come back *warm* within the replay
//!   budget: `/readyz` green, journal frames replayed, and a re-request
//!   of its work answered as a cache hit.
//!
//! With `--corpus N` a further leg runs the first `N` seeds of the
//! compositional corpus stream through the pipeline fault plans: each
//! case's fault-free modular baseline (a certified result, or a typed
//! rejection for probes the flow declines) must be reproduced exactly by
//! the retry ladder under injected faults, and again once the faults
//! clear. `--corpus-only` skips the Table-1 legs.
//!
//! Every injection decision derives from `--seed`, so a failing run
//! reproduces exactly. The summary is written to `BENCH_chaos.json`
//! (or `--out FILE`); any invariant violation exits non-zero.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use modsyn::{synthesize, synthesize_with_retry, RetryPolicy, SynthesisOptions, SynthesisReport};
use modsyn_bench::{small_rows, PaperRow, PAPER_TABLE1, TABLE1_BACKTRACK_LIMIT};
use modsyn_corpus::{corpus_case, Expectation};
use modsyn_fault::{fnv1a64, site, FaultPlan, FaultRule, Faults};
use modsyn_fleet::{
    sibling_binary, wait_for_200, FleetConfig, FleetEvent, FleetRouter, Supervisor,
};
use modsyn_obs::{Json, Tracer};
use modsyn_sat::SolverOptions;
use modsyn_stg::{benchmarks, write_g, Stg};
use modsyn_svc::{client, Metrics, Server, ServerConfig};

struct Args {
    small: bool,
    seed: u64,
    jobs: usize,
    out: String,
    corpus: u64,
    corpus_only: bool,
    fleet: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        small: false,
        seed: 0x000c_4a05,
        jobs: 4,
        out: "BENCH_chaos.json".to_string(),
        corpus: 0,
        corpus_only: false,
        fleet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--small" => args.small = true,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|_| "bad --seed value")?,
            "--jobs" => args.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs value")?,
            "--out" => args.out = value("--out")?,
            "--corpus" => {
                args.corpus = value("--corpus")?
                    .parse()
                    .map_err(|_| "bad --corpus value")?;
            }
            "--corpus-only" => args.corpus_only = true,
            "--fleet" => args.fleet = true,
            "--help" | "-h" => {
                return Err(
                    "usage: chaosmat [--small] [--seed N] [--jobs N] [--out FILE] \
                            [--corpus N] [--corpus-only] [--fleet]"
                        .into(),
                )
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.jobs == 0 {
        return Err("--jobs must be at least 1".to_string());
    }
    if args.corpus_only && args.corpus == 0 {
        args.corpus = 8;
    }
    if args.fleet && args.corpus_only {
        return Err("--fleet needs the Table-1 legs (drop --corpus-only)".to_string());
    }
    Ok(args)
}

/// A canonical byte-comparable rendering of a synthesis result: every
/// field the oracle certifies, none of the timing noise. Two runs agree
/// iff their fingerprints are identical strings.
fn fingerprint(r: &SynthesisReport) -> String {
    let mut s = format!(
        "{}|{}|{}|{}|{}|{}",
        r.benchmark,
        r.method,
        r.final_states(),
        r.final_signals(),
        r.literals,
        r.csc.inserted.join(",")
    );
    for f in &r.functions {
        s.push_str(&format!("|{}={}", f.name, f.sop));
    }
    s
}

/// Certifies `report` against the independent oracle, including
/// observation equivalence to the re-derived specification graph.
fn certify(stg: &Stg, report: &SynthesisReport) -> Result<(), String> {
    let spec =
        modsyn_sg::derive(stg, &modsyn_sg::DeriveOptions::default()).map_err(|e| e.to_string())?;
    modsyn::certify_report(Some(&spec), report).map_err(|e| e.to_string())
}

fn table1_options(faults: Faults) -> SynthesisOptions {
    SynthesisOptions {
        solver: SolverOptions {
            max_backtracks: Some(TABLE1_BACKTRACK_LIMIT),
            ..SolverOptions::default()
        },
        faults,
        ..SynthesisOptions::default()
    }
}

struct Violations(Vec<String>);

impl Violations {
    fn check(&mut self, ok: bool, context: &str) {
        if !ok {
            eprintln!("VIOLATION: {context}");
            self.0.push(context.to_string());
        }
    }
}

/// The pipeline-leg fault plans: name → rule spec. Budgets are finite so
/// every plan's faults eventually clear within the retry ladder.
const PIPELINE_PLANS: [(&str, &str); 2] = [
    ("sat-abort", "sat.abort*2"),
    ("sat-storm", "sat.conflict-storm*3"),
];

/// The serving-leg chaos plan: svc I/O tears, a slow peer, synthesis
/// panics, cache eviction storms and SAT aborts, all budgeted so the
/// service converges.
const SERVING_PLAN: &str = "svc.accept*2@1/2,svc.read-torn*2@1/2,svc.write-torn*2@1/2,\
svc.slow-peer*2~25,svc.synth-panic*2@1/2,cache.evict-storm*3@1/2,sat.abort*3@1/2";

fn pipeline_leg(
    rows: &[PaperRow],
    baselines: &[(String, Stg, String)],
    seed: u64,
    violations: &mut Violations,
) -> Json {
    let mut plans_json = Vec::new();
    for (plan_name, spec) in PIPELINE_PLANS {
        let mut injected = 0u64;
        let mut escalated_rows = 0usize;
        for (row, (name, stg, baseline)) in rows.iter().zip(baselines) {
            assert_eq!(row.name, name.as_str());
            let plan = FaultPlan::parse(plan_name, spec, seed ^ fnv1a64(name.as_bytes()))
                .expect("static plan spec parses");
            let faults = plan.arm();
            let options = table1_options(faults.clone());
            match synthesize_with_retry(stg, &options, &RetryPolicy::default()) {
                Ok(out) => {
                    if !out.attempts.is_empty() {
                        escalated_rows += 1;
                    }
                    violations.check(
                        certify(stg, &out.report).is_ok(),
                        &format!("{plan_name}/{name}: ladder result failed certification"),
                    );
                    violations.check(
                        fingerprint(&out.report) == *baseline,
                        &format!("{plan_name}/{name}: ladder result differs from baseline"),
                    );
                }
                Err(e) => violations.check(
                    false,
                    &format!("{plan_name}/{name}: ladder exhausted or failed: {e}"),
                ),
            }
            injected += faults.total_injected();
            // Faults clear: with the plan disabled a plain run must
            // succeed and certify, no ladder needed.
            faults.set_enabled(false);
            match synthesize(stg, &table1_options(faults.clone())) {
                Ok(report) => violations.check(
                    certify(stg, &report).is_ok() && fingerprint(&report) == *baseline,
                    &format!("{plan_name}/{name}: post-clear run differs or fails certification"),
                ),
                Err(e) => {
                    violations.check(false, &format!("{plan_name}/{name}: post-clear run: {e}"));
                }
            }
        }
        eprintln!(
            "chaosmat: pipeline plan {plan_name}: {} rows, {injected} faults injected, \
             {escalated_rows} rows escalated",
            rows.len()
        );
        plans_json.push(Json::obj([
            ("plan", Json::from(plan_name)),
            ("spec", Json::from(spec)),
            ("rows", Json::from(rows.len())),
            ("injected_faults", Json::from(injected)),
            ("escalated_rows", Json::from(escalated_rows)),
        ]));
    }
    Json::Arr(plans_json)
}

/// The corpus leg: corpus-stream cases under the pipeline fault plans.
/// The fault-free modular baseline — certified result or typed rejection
/// — must be reproduced exactly by the retry ladder under faults, and
/// again once the plan's budget clears.
fn corpus_leg(count: u64, seed: u64, violations: &mut Violations) -> Json {
    let mut injected = 0u64;
    let mut escalated = 0usize;
    let mut certified = 0usize;
    let mut rejected = 0usize;
    for case_seed in 0..count {
        let (stg, _) = corpus_case(case_seed);
        let name = stg.name().to_string();
        let baseline = synthesize(&stg, &table1_options(Faults::none()));
        match &baseline {
            Ok(report) => {
                certified += 1;
                violations.check(
                    certify(&stg, report).is_ok(),
                    &format!("corpus/{name}: fault-free baseline failed certification"),
                );
            }
            Err(_) => rejected += 1,
        }
        for (plan_name, spec) in PIPELINE_PLANS {
            let plan = FaultPlan::parse(plan_name, spec, seed ^ fnv1a64(name.as_bytes()))
                .expect("static plan spec parses");
            let faults = plan.arm();
            let options = table1_options(faults.clone());
            let chaos = synthesize_with_retry(&stg, &options, &RetryPolicy::default());
            match (&baseline, chaos) {
                (Ok(base), Ok(out)) => {
                    if !out.attempts.is_empty() {
                        escalated += 1;
                    }
                    violations.check(
                        fingerprint(&out.report) == fingerprint(base),
                        &format!("corpus/{plan_name}/{name}: ladder result differs from baseline"),
                    );
                    violations.check(
                        certify(&stg, &out.report).is_ok(),
                        &format!("corpus/{plan_name}/{name}: ladder result failed certification"),
                    );
                }
                // A case the flow rejects fault-free must keep drawing the
                // same typed rejection under injected faults — chaos must
                // never flip a rejection into a panic or a wrong answer.
                (Err(base), Err(e)) => violations.check(
                    std::mem::discriminant(base) == std::mem::discriminant(&e),
                    &format!("corpus/{plan_name}/{name}: rejection changed type under faults: {e}"),
                ),
                (Ok(_), Err(e)) => violations.check(
                    false,
                    &format!("corpus/{plan_name}/{name}: ladder exhausted or failed: {e}"),
                ),
                (Err(_), Ok(_)) => violations.check(
                    false,
                    &format!("corpus/{plan_name}/{name}: faults turned a rejection into success"),
                ),
            }
            injected += faults.total_injected();
            faults.set_enabled(false);
            let cleared = synthesize(&stg, &table1_options(faults.clone()));
            let agrees = match (&baseline, &cleared) {
                (Ok(a), Ok(b)) => fingerprint(a) == fingerprint(b),
                (Err(a), Err(b)) => std::mem::discriminant(a) == std::mem::discriminant(b),
                _ => false,
            };
            violations.check(
                agrees,
                &format!("corpus/{plan_name}/{name}: post-clear run differs from baseline"),
            );
        }
    }
    eprintln!(
        "chaosmat: corpus leg: {count} cases ({certified} certified, {rejected} rejected), \
         {injected} faults injected, {escalated} ladder escalations",
    );
    Json::obj([
        ("cases", Json::from(count)),
        ("certified", Json::from(certified)),
        ("rejected", Json::from(rejected)),
        ("injected_faults", Json::from(injected)),
        ("escalated", Json::from(escalated)),
    ])
}

fn start_server(config: ServerConfig) -> std::io::Result<(SocketAddr, impl FnOnce())> {
    let server = Server::bind(config, Tracer::disabled())?;
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Ok((addr, move || {
        handle.shutdown();
        let _ = thread.join();
    }))
}

fn serving_leg(
    baselines: &[(String, Stg, String)],
    seed: u64,
    jobs: usize,
    violations: &mut Violations,
) -> Json {
    let timeout = Duration::from_secs(120);
    let server_config = |faults: Faults| ServerConfig {
        jobs,
        queue_capacity: baselines.len().max(64),
        backtrack_limit: Some(TABLE1_BACKTRACK_LIMIT),
        faults,
        ..ServerConfig::default()
    };

    // Clean pass: the reference bodies every chaos response must match.
    let (addr, stop) = match start_server(server_config(Faults::none())) {
        Ok(s) => s,
        Err(e) => {
            violations.check(false, &format!("serving: cannot bind clean server: {e}"));
            return Json::Null;
        }
    };
    let mut reference = Vec::with_capacity(baselines.len());
    for (name, stg, _) in baselines {
        let body = write_g(stg);
        match client::request(
            addr,
            "POST",
            "/synth?method=modular",
            body.as_bytes(),
            timeout,
        ) {
            Ok(r) if r.status == 200 && r.text().contains("\"certified\":true") => {
                reference.push(r.body);
            }
            Ok(r) => {
                violations.check(
                    false,
                    &format!("serving/{name}: clean server: {}", r.status),
                );
                reference.push(Vec::new());
            }
            Err(e) => {
                violations.check(false, &format!("serving/{name}: clean server: {e}"));
                reference.push(Vec::new());
            }
        }
    }
    stop();

    // Chaos pass: armed server, backoff client, eventual byte-identical
    // certified 200s.
    let plan = FaultPlan::parse("svc-io", SERVING_PLAN, seed).expect("static plan spec parses");
    let faults = plan.arm();
    let (addr, stop) = match start_server(server_config(faults.clone())) {
        Ok(s) => s,
        Err(e) => {
            violations.check(false, &format!("serving: cannot bind chaos server: {e}"));
            return Json::Null;
        }
    };
    let mut rounds_total = 0u64;
    for ((name, stg, _), expected) in baselines.iter().zip(&reference) {
        let body = write_g(stg);
        let policy = client::BackoffPolicy {
            seed: seed ^ fnv1a64(name.as_bytes()),
            ..client::BackoffPolicy::default()
        };
        let mut response = None;
        for _round in 0..8 {
            rounds_total += 1;
            match client::request_with_backoff(
                addr,
                "POST",
                "/synth?method=modular",
                body.as_bytes(),
                timeout,
                &policy,
            ) {
                Ok(r) if r.status == 200 => {
                    response = Some(r);
                    break;
                }
                // 5xx (shed, breaker, injected abort) or a torn/dropped
                // connection: the fault budget is finite, go again.
                Ok(_) | Err(_) => continue,
            }
        }
        match response {
            Some(r) => {
                violations.check(
                    r.text().contains("\"certified\":true"),
                    &format!("serving/{name}: chaos 200 is not certified"),
                );
                violations.check(
                    r.body == *expected,
                    &format!("serving/{name}: chaos body differs from clean body"),
                );
            }
            None => violations.check(
                false,
                &format!("serving/{name}: no 200 after faults cleared"),
            ),
        }
    }
    let metrics_text = client::request(addr, "GET", "/metrics", b"", timeout)
        .map(|r| r.text())
        .unwrap_or_default();
    let injected_metric =
        Metrics::parse_line(&metrics_text, "modsynd_injected_faults_total").unwrap_or(0);
    let panics_metric = Metrics::parse_line(&metrics_text, "modsynd_panics_total").unwrap_or(0);
    stop();
    violations.check(
        faults.total_injected() > 0,
        "serving: chaos plan never injected a fault",
    );
    eprintln!(
        "chaosmat: serving leg: {} rows, {} faults injected ({} visible in /metrics), \
         {panics_metric} contained synthesis panics, {rounds_total} client rounds",
        baselines.len(),
        faults.total_injected(),
        injected_metric,
    );
    Json::obj([
        ("rows", Json::from(baselines.len())),
        ("plan", Json::from(SERVING_PLAN)),
        ("injected_faults", Json::from(faults.total_injected())),
        ("injected_faults_metric", Json::from(injected_metric)),
        ("panics_metric", Json::from(panics_metric)),
        ("client_rounds", Json::from(rounds_total)),
    ])
}

/// One request the fleet leg must serve byte-identically to a clean
/// single server.
struct FleetItem {
    name: String,
    path: &'static str,
    body: String,
    digest: u64,
    status: u16,
    expected: Vec<u8>,
}

/// How long a `kill -9`'d replica may take to restart, replay its journal
/// and report ready again.
const FLEET_REPLAY_BUDGET: Duration = Duration::from_secs(30);

/// The `kill -9` certification leg: a supervised fleet of real `modsynd`
/// processes with per-replica durable stores serves the whole work set
/// through the rendezvous failover router while a seeded
/// `fleet.replica-kill` fault SIGKILLs the first item's primary replica
/// mid-traffic. Asserts (a) every item still draws its byte-identical
/// clean response, (b) the victim restarts and turns ready within
/// [`FLEET_REPLAY_BUDGET`], and (c) the restart is *warm*: journal frames
/// replayed and the victim's own work answered as a cache hit.
fn fleet_leg(
    baselines: &[(String, Stg, String)],
    corpus_count: u64,
    seed: u64,
    jobs: usize,
    violations: &mut Violations,
) -> Json {
    let timeout = Duration::from_secs(120);
    let mut items: Vec<FleetItem> = Vec::new();
    for (name, stg, _) in baselines {
        let body = write_g(stg);
        items.push(FleetItem {
            name: name.clone(),
            path: "/synth?method=modular",
            digest: fnv1a64(body.as_bytes()),
            body,
            status: 200,
            expected: Vec::new(),
        });
    }
    for case_seed in 0..corpus_count {
        let (stg, expectation) = corpus_case(case_seed);
        let body = write_g(&stg);
        // Probes beyond the free-choice theory target the comparator and
        // must keep drawing its typed 422 through the fleet, byte-exact.
        let (path, status) = match expectation {
            Expectation::InTheory => ("/synth?method=modular", 200),
            Expectation::BeyondTheory => ("/synth?method=lavagno", 422),
        };
        items.push(FleetItem {
            name: format!("corpus-{case_seed}"),
            path,
            digest: fnv1a64(body.as_bytes()),
            body,
            status,
            expected: Vec::new(),
        });
    }

    // Reference pass: one clean in-process server defines the expected
    // bytes for every item.
    let (addr, stop) = match start_server(ServerConfig {
        jobs,
        queue_capacity: items.len().max(64),
        backtrack_limit: Some(TABLE1_BACKTRACK_LIMIT),
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            violations.check(false, &format!("fleet: cannot bind clean server: {e}"));
            return Json::Null;
        }
    };
    for item in &mut items {
        match client::request(addr, "POST", item.path, item.body.as_bytes(), timeout) {
            Ok(r) if r.status == item.status => item.expected = r.body,
            Ok(r) => violations.check(
                false,
                &format!(
                    "fleet/{}: clean server answered {} (expected {})",
                    item.name, r.status, item.status
                ),
            ),
            Err(e) => violations.check(false, &format!("fleet/{}: clean server: {e}", item.name)),
        }
    }
    stop();

    // The fleet: three real modsynd processes, per-replica durable dirs,
    // a kill fault scheduled for the tick after half the traffic. Each
    // tick probes the kill site once per live replica in index order, so
    // skip(tick * replicas + victim) lands the one budgeted kill exactly
    // on the victim at that tick.
    let modsynd = match sibling_binary("modsynd") {
        Ok(p) => p,
        Err(e) => {
            violations.check(false, &format!("fleet: {e}"));
            return Json::Null;
        }
    };
    let replicas = 3usize;
    let base_port = 21000 + (std::process::id() % 9000) as u16;
    let addrs: Vec<SocketAddr> = (0..replicas)
        .map(|i| {
            format!("127.0.0.1:{}", base_port + i as u16)
                .parse()
                .expect("loopback address parses")
        })
        .collect();
    let router = FleetRouter::new(addrs.clone());
    let victim = addrs
        .iter()
        .position(|a| Some(*a) == router.primary(items[0].digest))
        .unwrap_or(0);
    let kill_tick = (items.len() / 2).max(1);
    let faults = FaultPlan::new("fleet", seed)
        .rule(
            FaultRule::at(site::FLEET_REPLICA_KILL)
                .skip((kill_tick * replicas + victim) as u64)
                .times(1),
        )
        .arm();
    let root = std::env::temp_dir().join(format!("chaosmat-fleet-{}", std::process::id()));
    let config = FleetConfig {
        command: vec![
            modsynd.to_string_lossy().into_owned(),
            "--addr".into(),
            "127.0.0.1:{port}".into(),
            "--access-log".into(),
            "off".into(),
            "--jobs".into(),
            jobs.to_string(),
            "--limit".into(),
            TABLE1_BACKTRACK_LIMIT.to_string(),
            "--durable".into(),
            format!("{}/replica-{{replica}}", root.display()),
            "--checkpoint-every".into(),
            "64".into(),
        ],
        replicas,
        base_port,
        faults: faults.clone(),
        ..FleetConfig::default()
    };
    let mut sup = match Supervisor::start(config) {
        Ok(s) => s,
        Err(e) => {
            violations.check(false, &format!("fleet: cannot start supervisor: {e}"));
            return Json::Null;
        }
    };
    for (i, a) in addrs.iter().enumerate() {
        violations.check(
            wait_for_200(*a, "/readyz", Duration::from_secs(20)),
            &format!("fleet: replica {i} never became ready"),
        );
    }

    // Traffic: one supervision tick per request, so the scheduled kill
    // lands mid-traffic and the supervisor heals while requests continue.
    let mut victim_dead = false;
    let mut failover_items = 0u64;
    let mut rounds_total = 0u64;
    for item in &items {
        let policy = client::BackoffPolicy {
            max_attempts: 3,
            max_total_wait: Duration::from_secs(5),
            seed: seed ^ fnv1a64(item.name.as_bytes()),
            ..client::BackoffPolicy::default()
        };
        if victim_dead && router.primary(item.digest) == Some(addrs[victim]) {
            failover_items += 1;
        }
        let mut response = None;
        for _round in 0..8 {
            rounds_total += 1;
            match router.route(
                item.digest,
                "POST",
                item.path,
                item.body.as_bytes(),
                timeout,
                &policy,
            ) {
                Ok(r) if r.status == item.status => {
                    response = Some(r);
                    break;
                }
                // A replica mid-restart sheds with 503s; the budget is
                // finite, go again.
                Ok(_) | Err(_) => continue,
            }
        }
        match response {
            Some(r) => violations.check(
                r.body == item.expected,
                &format!("fleet/{}: body differs from clean reference", item.name),
            ),
            None => violations.check(
                false,
                &format!("fleet/{}: no {} despite failover", item.name, item.status),
            ),
        }
        for event in sup.tick(Instant::now()) {
            match event {
                FleetEvent::KillInjected { replica, .. } if replica == victim => {
                    eprintln!("chaosmat: fleet: injected kill -9 on replica {replica}");
                    victim_dead = true;
                }
                FleetEvent::Started { replica, .. } if replica == victim => victim_dead = false,
                _ => {}
            }
        }
    }
    violations.check(
        faults.injected_at(site::FLEET_REPLICA_KILL) == 1,
        "fleet: the scheduled replica kill never fired",
    );

    // Recovery: the victim must restart and turn ready within the replay
    // budget…
    let waiting = Instant::now();
    while sup.restarts(victim) == 0 && waiting.elapsed() < FLEET_REPLAY_BUDGET {
        std::thread::sleep(Duration::from_millis(50));
        let _ = sup.tick(Instant::now());
    }
    violations.check(
        sup.restarts(victim) >= 1,
        "fleet: killed replica was never restarted",
    );
    violations.check(
        wait_for_200(addrs[victim], "/readyz", FLEET_REPLAY_BUDGET),
        "fleet: restarted replica not ready within the replay budget",
    );
    let readyz_wait_ms = waiting.elapsed().as_millis() as u64;

    // …and it must be *warm*: the journal replayed, and the item it owned
    // (served and journaled before the kill) answered from cache.
    let metrics_text = client::request(addrs[victim], "GET", "/metrics", b"", timeout)
        .map(|r| r.text())
        .unwrap_or_default();
    let frames_replayed =
        Metrics::parse_line(&metrics_text, "modsynd_recovery_frames_replayed").unwrap_or(0);
    violations.check(
        frames_replayed > 0,
        "fleet: restarted replica replayed no journal frames",
    );
    let mut warm_hit = false;
    match client::request_with_backoff(
        addrs[victim],
        "POST",
        items[0].path,
        items[0].body.as_bytes(),
        timeout,
        &client::BackoffPolicy::default(),
    ) {
        Ok(r) => {
            violations.check(
                r.status == items[0].status && r.body == items[0].expected,
                "fleet: restarted replica's answer differs from the clean reference",
            );
            warm_hit = r.header("x-modsyn-cache") == Some("hit");
            violations.check(
                warm_hit,
                "fleet: restarted replica answered its own work cold (no cache hit)",
            );
        }
        Err(e) => violations.check(false, &format!("fleet: restarted replica unreachable: {e}")),
    }
    sup.shutdown();
    let _ = std::fs::remove_dir_all(&root);
    eprintln!(
        "chaosmat: fleet leg: {} items over {replicas} replicas, victim {victim} killed at \
         tick {kill_tick}, {failover_items} items failed over, ready again after {readyz_wait_ms}ms \
         ({frames_replayed} frames replayed), {rounds_total} client rounds",
        items.len(),
    );
    Json::obj([
        ("replicas", Json::from(replicas)),
        ("items", Json::from(items.len())),
        ("corpus_cases", Json::from(corpus_count)),
        ("victim", Json::from(victim)),
        ("kill_tick", Json::from(kill_tick)),
        (
            "injected_kills",
            Json::from(faults.injected_at(site::FLEET_REPLICA_KILL)),
        ),
        ("failover_items", Json::from(failover_items)),
        ("client_rounds", Json::from(rounds_total)),
        ("victim_restarts", Json::from(sup.restarts(victim))),
        ("readyz_wait_ms", Json::from(readyz_wait_ms)),
        ("frames_replayed", Json::from(frames_replayed)),
        ("warm_after_restart", Json::from(warm_hit)),
        (
            "replay_budget_ms",
            Json::from(FLEET_REPLAY_BUDGET.as_millis() as u64),
        ),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let rows: Vec<PaperRow> = if args.small {
        small_rows()
    } else {
        PAPER_TABLE1.to_vec()
    };
    let mut violations = Violations(Vec::new());

    let (pipeline, serving, fleet) = if args.corpus_only {
        (Json::Null, Json::Null, Json::Null)
    } else {
        // Fault-free serial baselines: the reference fingerprints,
        // themselves oracle-certified.
        eprintln!(
            "chaosmat: {} rows, seed {}, jobs {}",
            rows.len(),
            args.seed,
            args.jobs
        );
        let mut baselines = Vec::with_capacity(rows.len());
        for row in &rows {
            let stg = benchmarks::by_name(row.name).expect("known benchmark");
            match synthesize(&stg, &table1_options(Faults::none())) {
                Ok(report) => {
                    violations.check(
                        certify(&stg, &report).is_ok(),
                        &format!("baseline/{}: failed certification", row.name),
                    );
                    let fp = fingerprint(&report);
                    baselines.push((row.name.to_string(), stg, fp));
                }
                Err(e) => {
                    violations.check(false, &format!("baseline/{}: {e}", row.name));
                    baselines.push((row.name.to_string(), stg, String::new()));
                }
            }
        }

        (
            pipeline_leg(&rows, &baselines, args.seed, &mut violations),
            serving_leg(&baselines, args.seed, args.jobs, &mut violations),
            if args.fleet {
                fleet_leg(
                    &baselines,
                    args.corpus,
                    args.seed,
                    args.jobs,
                    &mut violations,
                )
            } else {
                Json::Null
            },
        )
    };
    let corpus = if args.corpus > 0 {
        corpus_leg(args.corpus, args.seed, &mut violations)
    } else {
        Json::Null
    };

    let doc = Json::obj([
        ("version", Json::from(1u64)),
        (
            "config",
            Json::obj([
                ("rows", Json::from(rows.len())),
                ("small", Json::from(args.small)),
                ("seed", Json::from(args.seed)),
                ("jobs", Json::from(args.jobs)),
                ("backtrack_limit", Json::from(TABLE1_BACKTRACK_LIMIT)),
                ("corpus", Json::from(args.corpus)),
                ("fleet", Json::from(args.fleet)),
            ]),
        ),
        ("pipeline", pipeline),
        ("serving", serving),
        ("fleet", fleet),
        ("corpus", corpus),
        (
            "violations",
            Json::Arr(
                violations
                    .0
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect(),
            ),
        ),
        ("passed", Json::from(violations.0.is_empty())),
    ]);
    if let Err(e) = std::fs::write(&args.out, doc.pretty()) {
        eprintln!("error: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", args.out);

    if violations.0.is_empty() {
        let subjects = if args.corpus_only {
            format!("{} corpus cases", args.corpus)
        } else if args.corpus > 0 {
            format!("{} rows and {} corpus cases", rows.len(), args.corpus)
        } else {
            format!("{} rows", rows.len())
        };
        println!("chaosmat: PASS — {subjects} certified under every fault plan");
        ExitCode::SUCCESS
    } else {
        eprintln!("chaosmat: FAIL — {} violations", violations.0.len());
        for v in &violations.0 {
            eprintln!("  {v}");
        }
        ExitCode::FAILURE
    }
}
