//! Integration tests for the synthesis service (`modsyn-svc`): caching,
//! admission control, protocol hardening and graceful drain, all against
//! a real listener on a loopback port.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

use modsyn_obs::Tracer;
use modsyn_stg::{Frag, SignalKind, StgBuilder};
use modsyn_svc::client::{self, ClientResponse};
use modsyn_svc::{Limits, Server, ServerConfig, ServerHandle};

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

fn post_synth(handle: &ServerHandle, body: &str) -> ClientResponse {
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

/// Sends raw bytes and reads whatever comes back (empty if the server
/// just closed the connection).
fn raw_roundtrip(handle: &ServerHandle, bytes: &[u8], close_write: bool) -> String {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(TIMEOUT))
        .expect("read timeout");
    stream.write_all(bytes).expect("write");
    if close_write {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut out = Vec::new();
    let _ = stream.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

#[test]
fn responses_are_certified_cached_and_byte_identical() {
    let (handle, thread) = start(ServerConfig {
        jobs: 4,
        ..ServerConfig::default()
    });
    let g = benchmark_g("vbe-ex1");

    let first = post_synth(&handle, &g);
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-modsyn-cache"), Some("miss"));
    assert!(first.text().contains("\"certified\":true"));
    assert!(first.header("x-modsyn-digest").is_some());

    let second = post_synth(&handle, &g);
    assert_eq!(second.status, 200);
    assert_eq!(second.header("x-modsyn-cache"), Some("hit"));
    assert_eq!(
        second.body, first.body,
        "cached body must be byte-identical"
    );

    // A cosmetically different rendering of the same STG (extra blank
    // line) must hash to the same canonical digest and hit.
    let reformatted = format!("\n{g}");
    let third = post_synth(&handle, &reformatted);
    assert_eq!(third.status, 200);
    assert_eq!(third.header("x-modsyn-cache"), Some("hit"));
    assert_eq!(third.body, first.body);

    assert_eq!(metric(&handle, "modsynd_cache_hits_total"), 2);
    assert_eq!(metric(&handle, "modsynd_cache_misses_total"), 1);
    assert_eq!(metric(&handle, "modsynd_certified_total"), 1);
    stop(&handle, thread);
}

#[test]
fn concurrent_stress_with_eviction_churn_stays_consistent() {
    let names = ["vbe-ex1", "sendr-done", "nouse"];
    let bodies: Vec<String> = names.iter().map(|n| benchmark_g(n)).collect();

    // What the three STGs leave in an unbounded store: their module
    // solves and certified responses.
    let (handle, thread) = start(ServerConfig::default());
    for body in &bodies {
        assert_eq!(post_synth(&handle, body).status, 200);
    }
    let working_set = handle.store().bytes();
    stop(&handle, thread);

    // A deliberately tight store (two thirds of that working set) under
    // the three STGs: constant eviction churn, recomputation and races.
    let (handle, thread) = start(ServerConfig {
        jobs: 4,
        store_bytes: working_set * 2 / 3,
        ..ServerConfig::default()
    });

    let mut per_benchmark: Vec<Vec<Vec<u8>>> = vec![Vec::new(); names.len()];
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for worker in 0..8 {
            let bodies = &bodies;
            let handle = &handle;
            workers.push(scope.spawn(move || {
                let mut got: Vec<(usize, Vec<u8>)> = Vec::new();
                for round in 0..6 {
                    let which = (worker + round) % bodies.len();
                    let response = post_synth(handle, &bodies[which]);
                    assert_eq!(response.status, 200, "{}", response.text());
                    got.push((which, response.body));
                }
                got
            }));
        }
        for worker in workers {
            for (which, body) in worker.join().expect("stress worker") {
                per_benchmark[which].push(body);
            }
        }
    });

    // Byte-identical responses for identical requests, hit or miss.
    for (which, bodies) in per_benchmark.iter().enumerate() {
        assert!(!bodies.is_empty());
        for body in bodies {
            assert_eq!(
                body, &bodies[0],
                "{}: response bytes diverged",
                names[which]
            );
        }
    }
    // The working set does not fit, so the store must evict.
    assert!(metric(&handle, "modsynd_cache_evictions_total") > 0);
    assert!(handle.store().bytes() <= working_set * 2 / 3);
    let hits = metric(&handle, "modsynd_cache_hits_total");
    let misses = metric(&handle, "modsynd_cache_misses_total");
    assert_eq!(hits + misses, 48, "every request is a hit or a miss");
    assert!(misses > 0);
    stop(&handle, thread);
}

#[test]
fn cache_capacity_bounds_hold_under_concurrent_insertions() {
    use modsyn_store::{record_key, StoreMutation, SynthRecord};
    use std::sync::Arc;

    let (handle, thread) = start(ServerConfig {
        store_bytes: 4096,
        ..ServerConfig::default()
    });
    let store = handle.store();
    let record = || SynthRecord {
        benchmark: "b".into(),
        inserted: Vec::new(),
        provenance: Vec::new(),
        body: "0".repeat(16),
    };
    // Every entry encodes to the same length (keys are fixed-width hex).
    let cost = StoreMutation::Record {
        key: record_key(0, 0),
        record: Arc::new(record()),
    }
    .payload()
    .len();
    std::thread::scope(|scope| {
        for worker in 0..8u64 {
            let store = &store;
            scope.spawn(move || {
                for i in 0..500u64 {
                    let key = record_key((worker * 10_007 + i).wrapping_mul(0x9e37_79b9), 0);
                    store.put_record(key, record());
                    store.get_record(key);
                }
            });
        }
    });
    assert!(store.len() <= 4096 / cost);
    assert!(store.bytes() <= 4096);
    assert!(store.evictions() > 0);
    stop(&handle, thread);
}

#[test]
fn malformed_requests_get_typed_errors_and_the_accept_loop_survives() {
    let (handle, thread) = start(ServerConfig {
        limits: Limits {
            max_head: 16 * 1024,
            max_body: 2048,
        },
        ..ServerConfig::default()
    });

    // Bad method on a known path → 405 with Allow.
    let got = raw_roundtrip(&handle, b"BREW /synth HTTP/1.1\r\nHost: t\r\n\r\n", false);
    assert!(got.starts_with("HTTP/1.1 405"), "{got}");
    assert!(got.contains("Allow: POST"), "{got}");

    // Garbage request line → 400.
    let got = raw_roundtrip(&handle, b"complete garbage\r\n\r\n", false);
    assert!(got.starts_with("HTTP/1.1 400"), "{got}");

    // Unsupported version → 505.
    let got = raw_roundtrip(&handle, b"GET /healthz HTTP/3\r\n\r\n", false);
    assert!(got.starts_with("HTTP/1.1 505"), "{got}");

    // Oversized body (declared > max_body) → 413.
    let got = raw_roundtrip(
        &handle,
        b"POST /synth HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
        false,
    );
    assert!(got.starts_with("HTTP/1.1 413"), "{got}");

    // POST without Content-Length → 411.
    let got = raw_roundtrip(&handle, b"POST /synth HTTP/1.1\r\nHost: t\r\n\r\n", false);
    assert!(got.starts_with("HTTP/1.1 411"), "{got}");

    // Truncated request (peer gives up mid-body) → 400.
    let got = raw_roundtrip(
        &handle,
        b"POST /synth HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort",
        true,
    );
    assert!(got.starts_with("HTTP/1.1 400"), "{got}");

    // Invalid .g payload → 400 with the parser's message.
    let response = post_synth(&handle, ".model broken\n.graph\nnot a transition\n.end\n");
    assert_eq!(response.status, 400, "{}", response.text());
    assert!(
        response.text().contains("\"error\":\"parse\""),
        "{}",
        response.text()
    );

    // Unknown method value → 400.
    let response = client::request(
        handle.addr(),
        "POST",
        "/synth?method=quantum",
        benchmark_g("vbe-ex1").as_bytes(),
        TIMEOUT,
    )
    .expect("request");
    assert_eq!(response.status, 400);

    // Unknown path → 404.
    let response = client::request(handle.addr(), "GET", "/nope", b"", TIMEOUT).expect("request");
    assert_eq!(response.status, 404);

    // All of the above must have left the accept loop serving.
    assert!(metric(&handle, "modsynd_http_errors_total") >= 9);
    let ok = post_synth(&handle, &benchmark_g("vbe-ex1"));
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert!(ok.text().contains("\"certified\":true"));
    stop(&handle, thread);
}

#[test]
fn saturated_admission_queue_sheds_with_503() {
    // queue_capacity 0: every cache miss is shed before touching the pool.
    let (handle, thread) = start(ServerConfig {
        jobs: 1,
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let response = post_synth(&handle, &benchmark_g("vbe-ex1"));
    assert_eq!(response.status, 503, "{}", response.text());
    assert_eq!(response.header("retry-after"), Some("1"));
    assert!(response.text().contains("\"error\":\"overloaded\""));
    assert_eq!(metric(&handle, "modsynd_shed_total"), 1);
    // Sheds must not poison the gauges.
    assert_eq!(metric(&handle, "modsynd_queue_depth"), 0);
    assert_eq!(metric(&handle, "modsynd_in_flight"), 0);
    stop(&handle, thread);
}

#[test]
fn deadline_expiry_surfaces_as_504_and_counts_aborted() {
    let (handle, thread) = start(ServerConfig {
        jobs: 2,
        ..ServerConfig::default()
    });
    // mr0 takes ~1s to synthesise; a 1ms budget must abort cooperatively.
    let response = client::request(
        handle.addr(),
        "POST",
        "/synth?method=modular&timeout_ms=1",
        benchmark_g("mr0").as_bytes(),
        TIMEOUT,
    )
    .expect("request");
    assert_eq!(response.status, 504, "{}", response.text());
    assert!(response.text().contains("\"error\":\"aborted\""));
    assert_eq!(metric(&handle, "modsynd_aborted_total"), 1);
    // The failure is not cached: a retry without the deadline succeeds.
    let retry = post_synth(&handle, &benchmark_g("mr0"));
    assert_eq!(retry.status, 200, "{}", retry.text());
    assert_eq!(retry.header("x-modsyn-cache"), Some("miss"));
    stop(&handle, thread);
}

#[test]
fn unsolvable_inputs_are_422_not_500() {
    let (handle, thread) = start(ServerConfig::default());
    // alex-nonfc is not free-choice: the lavagno baseline rejects it with
    // a typed synthesis error, which the service maps to a 422.
    let response = client::request(
        handle.addr(),
        "POST",
        "/synth?method=lavagno",
        benchmark_g("alex-nonfc").as_bytes(),
        TIMEOUT,
    )
    .expect("request");
    assert_eq!(response.status, 422, "{}", response.text());
    assert!(
        response.text().contains("\"error\":\"not-free-choice\""),
        "{}",
        response.text()
    );
    assert_eq!(metric(&handle, "modsynd_synth_failures_total"), 1);
    stop(&handle, thread);
}

#[test]
fn state_graph_rejections_use_the_rejection_tags() {
    // A ring of 65 pulses: more signals than the packed 64-bit state code
    // holds. The 422 carries the same tag as `Rejection::of` in-process.
    let mut b = StgBuilder::new("wide");
    let pulses: Vec<Frag> = (0..65)
        .map(|i| {
            let kind = if i == 0 {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            let s = b.signal(format!("s{i}"), kind).expect("unique names");
            Frag::seq([Frag::rise(s), Frag::fall(s)])
        })
        .collect();
    let wide = b.cycle(Frag::seq(pulses)).expect("well-formed cycle");
    let (handle, thread) = start(ServerConfig::default());
    let response = post_synth(&handle, &modsyn_stg::write_g(&wide));
    assert_eq!(response.status, 422, "{}", response.text());
    assert!(
        response.text().contains("\"error\":\"too-many-signals\""),
        "{}",
        response.text()
    );
    stop(&handle, thread);
}

#[test]
fn injected_pool_panic_is_a_500_and_gauges_return_to_zero() {
    // One injected panic at pool.enqueue: the admitted job's closure is
    // dropped during unwinding without ever running, so the queue-depth
    // ticket is released by RAII, not by the (never-reached) closure body.
    let faults = modsyn_fault::FaultPlan::parse("test", "pool.enqueue*1", 7)
        .expect("fault spec")
        .arm();
    let (handle, thread) = start(ServerConfig {
        jobs: 2,
        faults,
        ..ServerConfig::default()
    });

    let response = post_synth(&handle, &benchmark_g("vbe-ex1"));
    assert_eq!(response.status, 500, "{}", response.text());
    assert!(
        response.text().contains("\"error\":\"panic\""),
        "{}",
        response.text()
    );
    assert_eq!(metric(&handle, "modsynd_panics_total"), 1);

    // The RAII guards gave every slot back…
    assert_eq!(metric(&handle, "modsynd_queue_depth"), 0);
    assert_eq!(metric(&handle, "modsynd_in_flight"), 0);
    // …and the server still synthesises (the fault budget is spent).
    let retry = post_synth(&handle, &benchmark_g("vbe-ex1"));
    assert_eq!(retry.status, 200, "{}", retry.text());

    stop(&handle, thread);
    assert_eq!(handle.metrics().queue_depth.load(Ordering::Acquire), 0);
    assert_eq!(handle.metrics().in_flight.load(Ordering::Acquire), 0);
    assert_eq!(handle.metrics().connections.load(Ordering::Acquire), 0);
}

#[test]
fn trace_id_retrieves_the_span_chain_from_the_flight_recorder() {
    // One injected solver abort: rung 1 of the retry ladder fails, the
    // fault-free rung recovers, and the whole chain — svc accept, pool
    // run, retry ladder, SAT solve — lands in the flight recorder under
    // the caller-chosen trace id.
    let faults = modsyn_fault::FaultPlan::parse("test", "sat.abort*1", 3)
        .expect("fault spec")
        .arm();
    let (handle, thread) = start(ServerConfig {
        jobs: 2,
        faults,
        ..ServerConfig::default()
    });
    let trace = "00000000deadbeef";

    let response = client::request_with_headers(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        &[("X-Modsyn-Trace", trace)],
        benchmark_g("vbe-ex1").as_bytes(),
        TIMEOUT,
    )
    .expect("synth request");
    assert_eq!(response.status, 200, "{}", response.text());
    assert_eq!(response.header("x-modsyn-trace"), Some(trace));
    assert_eq!(metric(&handle, "modsynd_retry_recoveries_total"), 1);

    let flight = client::request(
        handle.addr(),
        "GET",
        &format!("/debug/flight?trace={trace}"),
        b"",
        TIMEOUT,
    )
    .expect("flight request");
    assert_eq!(flight.status, 200, "{}", flight.text());
    let dump = flight.text();
    assert!(dump.contains(&format!("\"trace\":\"{trace}\"")), "{dump}");
    for span in [
        "svc.request",
        "pool.run",
        "retry.ladder",
        "retry.attempt",
        "sat.solve",
    ] {
        assert!(
            dump.contains(&format!("\"{span}\"")),
            "missing {span}: {dump}"
        );
    }
    // The injected fault itself is on the trace too.
    assert!(dump.contains("\"sat.abort\""), "{dump}");

    // A trace nobody used comes back empty, not with someone else's spans.
    let other = client::request(
        handle.addr(),
        "GET",
        "/debug/flight?trace=0000000000000001",
        b"",
        TIMEOUT,
    )
    .expect("flight request");
    assert!(other.text().contains("\"count\":0"), "{}", other.text());

    // The same traffic fed the server-side latency histograms.
    let rendered = client::request(handle.addr(), "GET", "/metrics", b"", TIMEOUT)
        .expect("metrics request")
        .text();
    let hist = |q: &str| {
        modsyn_svc::Metrics::parse_hist(&rendered, "request_us:synth:modular", q)
            .unwrap_or_else(|| panic!("histogram {q} missing from:\n{rendered}"))
    };
    assert_eq!(hist("count"), 1);
    assert!(hist("p50") > 0, "latency p50 must be nonzero");
    assert!(hist("p99") >= hist("p50"));

    stop(&handle, thread);
}

/// The probe contract is pinned: `/healthz` is pure liveness (always
/// `200 ok`), `/readyz` is readiness (`200 ready` once serving; drain
/// and recovery flip it to 503 without touching liveness). Orchestrators
/// parse these bodies, so the exact bytes are part of the API.
#[test]
fn liveness_and_readiness_probes_are_split_and_pinned() {
    let (handle, thread) = start(ServerConfig::default());

    let live = client::request(handle.addr(), "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert_eq!(live.status, 200);
    assert_eq!(live.text(), "ok\n");

    let ready = client::request(handle.addr(), "GET", "/readyz", b"", TIMEOUT).expect("readyz");
    assert_eq!(ready.status, 200);
    assert_eq!(ready.text(), "ready\n");

    // Probes are GET-only.
    let got = raw_roundtrip(
        &handle,
        b"POST /readyz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
        false,
    );
    assert!(
        got.starts_with("HTTP/1.1 405"),
        "POST /readyz must be rejected, got: {got}"
    );

    stop(&handle, thread);
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (handle, thread) = start(ServerConfig::default());
    // Healthy while serving…
    let health = client::request(handle.addr(), "GET", "/healthz", b"", TIMEOUT).expect("healthz");
    assert_eq!(health.status, 200);

    let response =
        client::request(handle.addr(), "POST", "/shutdown", b"", TIMEOUT).expect("shutdown");
    assert_eq!(response.status, 202);
    // run() must return (drain), not hang: join with the test's own clock.
    thread.join().expect("server thread").expect("server run");
    // Gauges drained to zero.
    assert_eq!(handle.metrics().connections.load(Ordering::Acquire), 0);
    assert_eq!(handle.metrics().in_flight.load(Ordering::Acquire), 0);
}
