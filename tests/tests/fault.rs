//! Cross-crate chaos integration tests: the fault plane driving the
//! supervised retry ladder, the service circuit breaker and the backoff
//! client, all through public APIs and (for the service) a real loopback
//! listener.

use std::time::{Duration, Instant};

use modsyn::{synthesize, synthesize_with_retry, RetryPolicy, SynthesisOptions};
use modsyn_fault::{site, FaultPlan, FaultRule, Faults};
use modsyn_obs::Tracer;
use modsyn_svc::client::{self, BackoffPolicy};
use modsyn_svc::{BreakerConfig, Server, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(60);

fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, Tracer::disabled()).expect("bind loopback");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (handle, thread)
}

fn stop(handle: &ServerHandle, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

fn benchmark_g(name: &str) -> String {
    modsyn_stg::write_g(&modsyn_stg::benchmarks::by_name(name).expect("known benchmark"))
}

fn post_synth(handle: &ServerHandle, body: &str) -> client::ClientResponse {
    client::request(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        body.as_bytes(),
        TIMEOUT,
    )
    .expect("synth request")
}

fn metric(handle: &ServerHandle, name: &str) -> u64 {
    let response =
        client::request(handle.addr(), "GET", "/metrics", b"", TIMEOUT).expect("metrics request");
    modsyn_svc::Metrics::parse_line(&response.text(), name)
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{}", response.text()))
}

// ---------------------------------------------------------------------------
// Retry ladder: the supervised result is the clean result.
// ---------------------------------------------------------------------------

#[test]
fn ladder_output_under_faults_is_identical_to_the_clean_run_and_certifies() {
    let stg = modsyn_stg::benchmarks::by_name("nouse").expect("known benchmark");
    let limited = |faults: Faults| SynthesisOptions {
        solver: modsyn_sat::SolverOptions {
            max_backtracks: Some(40_000),
            ..Default::default()
        },
        faults,
        ..Default::default()
    };
    let clean = synthesize(&stg, &limited(Faults::none())).expect("clean run");

    let faults = FaultPlan::new("chaos", 11)
        .rule(FaultRule::at(site::SAT_ABORT).times(2))
        .arm();
    let out = synthesize_with_retry(&stg, &limited(faults.clone()), &RetryPolicy::default())
        .expect("ladder recovers");
    assert_eq!(
        out.attempts.len(),
        2,
        "both injected aborts were climbed over"
    );
    assert_eq!(faults.total_injected(), 2);

    // The recovered report is *the* report: same logic, same area, and it
    // passes the independent oracle including observation equivalence.
    assert_eq!(out.report.final_states(), clean.final_states());
    assert_eq!(out.report.literals, clean.literals);
    let render = |r: &modsyn::SynthesisReport| -> Vec<String> {
        r.functions
            .iter()
            .map(|f| format!("{}={}", f.name, f.sop))
            .collect()
    };
    assert_eq!(render(&out.report), render(&clean));
    let spec = modsyn_sg::derive(&stg, &Default::default()).expect("spec");
    modsyn::certify_report(Some(&spec), &out.report).expect("oracle certifies");
}

#[test]
fn the_ladder_returns_the_clean_circuit_under_a_conflict_storm_for_each_engine() {
    // A three-shot storm fails the 300 k, 600 k and 1 M rungs; the fourth
    // re-runs the top budget without faults and must give back the circuit
    // the fault-free run gives, with the same engine.
    let render = |r: &modsyn::SynthesisReport| -> Vec<String> {
        r.functions
            .iter()
            .map(|f| format!("{}={}", f.name, f.sop))
            .collect()
    };
    for engine in [modsyn::Engine::Dpll, modsyn::Engine::Cdcl] {
        for row in [
            "fifo",
            "atod",
            "sbuf-read-ctl",
            "nouse",
            "vbe-ex2",
            "sendr-done",
        ] {
            let stg = modsyn_stg::benchmarks::by_name(row).expect("known benchmark");
            let options = |faults: Faults| SynthesisOptions {
                solver: modsyn_sat::SolverOptions {
                    max_backtracks: Some(modsyn_bench::TABLE1_BACKTRACK_LIMIT),
                    ..Default::default()
                },
                engine,
                faults,
                ..Default::default()
            };
            let clean = synthesize(&stg, &options(Faults::none())).expect("clean run");
            let faults = FaultPlan::parse("storm", "sat.conflict-storm*3", 0)
                .expect("fault spec")
                .arm();
            let out =
                synthesize_with_retry(&stg, &options(faults.clone()), &RetryPolicy::default())
                    .unwrap_or_else(|e| panic!("{engine} {row}: {e}"));
            assert_eq!(out.attempts.len(), 3, "{engine} {row}");
            assert_eq!(faults.total_injected(), 3, "{engine} {row}");
            assert_eq!(render(&out.report), render(&clean), "{engine} {row}");
            let (got, want) = (&out.report.csc.inserted, &clean.csc.inserted);
            assert_eq!(got, want, "{engine} {row}");
        }
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker over a live loopback server.
// ---------------------------------------------------------------------------

#[test]
fn breaker_opens_under_injected_failures_then_recovers_through_half_open() {
    // A persistent svc.synth-panic plan makes every synthesis fail (500) —
    // a synthesis panic is the one failure the server's retry ladder
    // cannot absorb, unlike sat.abort which the fault-free rung recovers. A
    // threshold of 1.5 (trips on the second quick failure — the score
    // decays slightly between records, so 2.0 would never be reached) and
    // a short cooldown keep the test fast. We hold a clone of the armed
    // handle so the "fault cleared" transition is an explicit switch, not
    // a budget coincidence.
    let faults = FaultPlan::new("chaos", 3)
        .rule(FaultRule::at(site::SVC_SYNTH_PANIC))
        .arm();
    let cooldown = Duration::from_millis(200);
    let (handle, thread) = start(ServerConfig {
        jobs: 1,
        faults: faults.clone(),
        breaker: BreakerConfig {
            failure_threshold: 1.5,
            cooldown,
            ..Default::default()
        },
        ..ServerConfig::default()
    });
    let g = benchmark_g("vbe-ex1");

    // Closed: failures pass through as 500s and score against the breaker.
    for _ in 0..2 {
        let r = post_synth(&handle, &g);
        assert_eq!(r.status, 500, "{}", r.text());
    }
    // Open: rejected up front with 503 + Retry-After, no synthesis run.
    let rejected = post_synth(&handle, &g);
    assert_eq!(rejected.status, 503, "{}", rejected.text());
    assert!(
        rejected.text().contains("breaker-open"),
        "{}",
        rejected.text()
    );
    let retry_after: u64 = rejected
        .header("retry-after")
        .expect("Retry-After header")
        .parse()
        .expect("numeric Retry-After");
    assert!(retry_after >= 1);
    assert_eq!(metric(&handle, "modsynd_breaker_opens_total"), 1);
    assert!(metric(&handle, "modsynd_breaker_rejections_total") >= 1);

    // Half-open after the cooldown, with the fault still active: the probe
    // fails and the breaker re-opens for another cooldown.
    std::thread::sleep(cooldown + Duration::from_millis(50));
    let probe = post_synth(&handle, &g);
    assert_eq!(probe.status, 500, "{}", probe.text());
    assert_eq!(metric(&handle, "modsynd_breaker_opens_total"), 2);
    let reopened = post_synth(&handle, &g);
    assert_eq!(reopened.status, 503, "{}", reopened.text());

    // Clear the fault, wait out the cooldown: the half-open probe now
    // succeeds, the breaker closes, and traffic flows (200, certified).
    faults.set_enabled(false);
    std::thread::sleep(cooldown + Duration::from_millis(50));
    let recovered = post_synth(&handle, &g);
    assert_eq!(recovered.status, 200, "{}", recovered.text());
    assert!(recovered.text().contains("\"certified\":true"));
    // Closed again: the next request is admitted normally (served from
    // cache — hits never consult the breaker, but a fresh miss would).
    let after = post_synth(&handle, &g);
    assert_eq!(after.status, 200);
    assert!(
        faults.total_injected() >= 3,
        "both closed-state failures and the probe"
    );
    stop(&handle, thread);
}

// ---------------------------------------------------------------------------
// Backoff client against real sockets.
// ---------------------------------------------------------------------------

#[test]
fn client_backoff_honours_retry_after_but_caps_total_wait() {
    // queue_capacity 0: every cache miss is shed with 503 Retry-After: 1.
    let (handle, thread) = start(ServerConfig {
        jobs: 1,
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let g = benchmark_g("vbe-ex1");
    let policy = BackoffPolicy {
        max_attempts: 4,
        initial: Duration::from_millis(50),
        max_delay: Duration::from_secs(2),
        max_total_wait: Duration::from_millis(150),
        seed: 1,
    };
    let started = Instant::now();
    let response = client::request_with_backoff(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        g.as_bytes(),
        TIMEOUT,
        &policy,
    )
    .expect("the shed responses still parse");
    let elapsed = started.elapsed();
    assert_eq!(response.status, 503, "{}", response.text());
    // The server asked for 1s waits; the client honoured the header but
    // its 150ms total-wait budget cut retries short well before the 3s
    // that three obedient sleeps would take.
    assert!(
        elapsed >= Duration::from_millis(150),
        "a capped sleep happened: {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_secs(1),
        "budget bounded the waits: {elapsed:?}"
    );
    let sheds = metric(&handle, "modsynd_shed_total");
    assert!(
        (2..=4).contains(&sheds),
        "retried at least once, stopped once the wait budget ran out: {sheds}"
    );
    stop(&handle, thread);
}

#[test]
fn client_backoff_retries_transient_connect_failures() {
    // Grab a port with no listener: every connect is refused, so every
    // attempt consumes a backoff sleep until attempts run out.
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").expect("probe bind");
        probe.local_addr().expect("probe addr")
    }; // listener dropped: the port refuses connections
    let policy = BackoffPolicy {
        max_attempts: 3,
        initial: Duration::from_millis(40),
        max_delay: Duration::from_millis(200),
        max_total_wait: Duration::from_secs(2),
        seed: 9,
    };
    let started = Instant::now();
    let err = client::request_with_backoff(addr, "GET", "/healthz", b"", TIMEOUT, &policy)
        .expect_err("nothing is listening");
    let elapsed = started.elapsed();
    // Two sleeps happened between the three attempts: equal-jitter draws
    // from [base/2, base] give at least 20ms + 40ms.
    assert!(
        elapsed >= Duration::from_millis(60),
        "retries were spaced out: {elapsed:?}"
    );
    assert_ne!(
        err.kind(),
        std::io::ErrorKind::InvalidData,
        "a socket error, not a parse error"
    );
}
