//! `modsynd` — the synthesis service daemon.
//!
//! ```text
//! modsynd [--addr HOST:PORT] [--jobs N] [--queue N] [--max-connections N]
//!         [--store-bytes N] [--timeout-ms T]
//!         [--max-body BYTES] [--limit N] [--stats] [--trace-json FILE]
//!         [--faults SPEC] [--fault-seed N]
//!         [--access-log off|stderr|FILE]
//!         [--durable DIR] [--checkpoint-every N]
//! ```
//!
//! Binds the address (default `127.0.0.1:7171`), prints one
//! `listening on http://…` line to stdout (so scripts can wait for
//! readiness), and serves until `POST /shutdown`, then drains gracefully.
//! `--jobs` bounds how many syntheses run at once, each on the connection
//! thread that admitted it; `--queue` more may wait before `/synth` sheds.
//! A synthesis that starts while no other runs borrows the idle slots as
//! extra threads for its module search, CSC signal counts and logic.
//!
//! Endpoints: `POST /synth?method=modular|modular-min-area|direct|lavagno
//! [&timeout_ms=T]` with a `.g` body; `GET /metrics`; `GET /healthz`;
//! `GET /debug/flight[?trace=HEX][&limit=N]`; `POST /shutdown`. Every 200
//! from `/synth` is certified by the independent oracle before it is
//! written, carries an `X-Modsyn-Trace` id, and leaves its span chain in
//! the always-on flight recorder, which keeps the newest 32,768 events.
//!
//! On exit, after the drain and its final checkpoint, the daemon prints
//! the same exposition `GET /metrics` serves to stderr. `--stats` renders
//! the serving trace to stderr and `--trace-json FILE` writes it as JSON,
//! mirroring the `modsyn` CLI.
//!
//! `--faults SPEC` arms a seeded fault plan for chaos runs (see
//! [`modsyn_fault::FaultPlan::parse`] for the spec grammar); `--fault-seed`
//! picks the plan's decision stream. The per-method circuit breaker runs
//! at its defaults (5 failures, 30 s half-life, 5 s cooldown).
//! `--access-log` steers the per-request JSON log (the daemon defaults to
//! `stderr`; embedded servers default to off).
//!
//! All serving state — module solves, certified response bodies and their
//! provenance — lives in one synthesis store bounded by `--store-bytes`
//! (default 64 MiB of encoded entries); beyond it the least recently used
//! entries are evicted, and an evicted response is simply re-synthesised
//! and re-certified on its next request.
//!
//! `--durable DIR` persists that store across restarts, graceful or not:
//! every insert is journaled (write-ahead, checksummed, fsync'd) before it
//! is applied, and every `--checkpoint-every` frames — and after a
//! graceful drain — the live entries are written to an atomically rotated
//! snapshot generation and the journal is compacted. Warm state survives `kill -9`, torn tails are
//! truncated on replay, and a corrupt snapshot falls back to the previous
//! generation; a directory from an older format version starts cold.
//! A restarted daemon answers previously-seen work from the store and
//! serves `/synth/incr` and `/explain` against the old session's records.
//! `/readyz` reports 503 while recovery replays. `/metrics` reads the
//! store's counters from the store, the journal's from the journal, and
//! the `modsynd_recovery_*` lines from the report recovery left there.

use std::process::ExitCode;
use std::time::Duration;

use modsyn_fault::FaultPlan;
use modsyn_obs::Tracer;
use modsyn_store::DurableConfig;
use modsyn_svc::{AccessLog, Server, ServerConfig};

fn usage() -> &'static str {
    "usage: modsynd [--addr HOST:PORT] [--jobs N] [--queue N] [--max-connections N] \
     [--store-bytes N] [--timeout-ms T] [--max-body BYTES] \
     [--limit N] [--stats] [--trace-json FILE] [--faults SPEC] [--fault-seed N] \
     [--access-log off|stderr|FILE] [--durable DIR] [--checkpoint-every N]\n\
     \n\
     Serves POST /synth (body: .g STG; query: method, timeout_ms),\n\
     POST /synth/incr (query: base=<digest-hex>), GET /explain (query: digest,\n\
     signal), GET /metrics, GET /healthz, GET /readyz, GET /debug/flight,\n\
     POST /shutdown.\n\
     --jobs bounds how many syntheses run at once (default: the available\n\
     parallelism); up to --queue more admitted misses wait for a slot. A\n\
     synthesis that starts while no other runs borrows the idle slots as\n\
     threads.\n\
     Every 200 is oracle-certified and trace-stamped (X-Modsyn-Trace);\n\
     GET /debug/flight replays the newest 32,768 flight-recorder events.\n\
     --store-bytes bounds the synthesis store (module solves and certified\n\
     responses, default 64 MiB); the least recently used entries are evicted.\n\
     --durable DIR persists the store: a checksummed write-ahead journal, fsync'd\n\
     on every append, plus atomic snapshot generations every --checkpoint-every\n\
     frames (default 256) and after a drain; state survives kill -9 as well.\n\
     GET /metrics reads each counter from its owner (server, store, journal,\n\
     recovery report); the same exposition is printed to stderr on exit.\n\
     --faults arms a seeded chaos plan, e.g. 'sat.abort*2,svc.write-torn@1/4'\n\
     (rule grammar: site[*max][+skip][@num/denom][~delay_ms])."
}

struct Args {
    config: ServerConfig,
    stats: bool,
    trace_json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7171".to_string(),
        // The daemon logs requests by default; embedded servers stay quiet.
        access_log: AccessLog::Stderr,
        ..ServerConfig::default()
    };
    let mut stats = false;
    let mut trace_json = None;
    let mut fault_spec: Option<String> = None;
    let mut fault_seed = 0x000d_da05_u64;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--jobs" => {
                config.jobs = value("--jobs")?.parse().map_err(|_| "bad --jobs value")?;
                if config.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--queue" => {
                config.queue_capacity =
                    value("--queue")?.parse().map_err(|_| "bad --queue value")?;
            }
            "--max-connections" => {
                config.max_connections = value("--max-connections")?
                    .parse()
                    .map_err(|_| "bad --max-connections value")?;
            }
            "--store-bytes" => {
                config.store_bytes = value("--store-bytes")?
                    .parse()
                    .map_err(|_| "bad --store-bytes value")?;
            }
            "--timeout-ms" => {
                let ms: u64 = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "bad --timeout-ms value")?;
                config.request_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--max-body" => {
                config.limits.max_body = value("--max-body")?
                    .parse()
                    .map_err(|_| "bad --max-body value")?;
            }
            "--limit" => {
                config.backtrack_limit =
                    Some(value("--limit")?.parse().map_err(|_| "bad --limit value")?);
            }
            "--stats" => stats = true,
            "--trace-json" => trace_json = Some(value("--trace-json")?),
            "--faults" => fault_spec = Some(value("--faults")?),
            "--fault-seed" => {
                fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|_| "bad --fault-seed value")?;
            }
            "--access-log" => {
                config.access_log = match value("--access-log")?.as_str() {
                    "off" => AccessLog::Off,
                    "stderr" => AccessLog::Stderr,
                    path => AccessLog::File(path.into()),
                };
            }
            "--durable" => {
                let dir = value("--durable")?;
                let tuned = config
                    .durable
                    .take()
                    .unwrap_or_else(|| DurableConfig::new(""));
                config.durable = Some(DurableConfig {
                    dir: dir.into(),
                    ..tuned
                });
            }
            "--checkpoint-every" => {
                let n: u64 = value("--checkpoint-every")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every value")?;
                // The tuning block is created on first use so the flag may
                // precede `--durable`; the empty-dir placeholder is
                // rejected below if `--durable` never arrives.
                config
                    .durable
                    .get_or_insert_with(|| DurableConfig::new(""))
                    .checkpoint_every = n.max(1);
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unexpected argument {other:?}\n{}", usage())),
        }
    }
    if let Some(d) = &config.durable {
        if d.dir.as_os_str().is_empty() {
            return Err("--checkpoint-every needs --durable DIR".to_string());
        }
    }
    if let Some(spec) = fault_spec {
        let plan = FaultPlan::parse("modsynd", &spec, fault_seed)?;
        eprintln!("chaos: armed fault plan {spec:?} (seed {fault_seed})");
        config.faults = plan.arm();
    }
    Ok(Args {
        config,
        stats,
        trace_json,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let tracer = if args.stats || args.trace_json.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let server = match Server::bind(args.config, tracer.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = server.handle();
    println!("listening on http://{}", server.local_addr());
    // Scripts wait for the line above; make sure it is not stuck in a pipe
    // buffer while the server blocks in accept().
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let result = server.run();
    eprint!("{}", handle.render_metrics());
    if let Err(e) = result {
        eprintln!("error: server failed: {e}");
        return ExitCode::FAILURE;
    }

    if tracer.is_enabled() {
        let report = tracer.report();
        if args.stats {
            eprint!("{}", report.render());
        }
        if let Some(path) = &args.trace_json {
            if let Err(e) = std::fs::write(path, report.to_json().pretty()) {
                eprintln!("error: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
