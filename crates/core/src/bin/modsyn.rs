//! `modsyn` — command-line front end for the synthesis library.
//!
//! ```text
//! modsyn <file.g | benchmark:NAME> [--method METHOD]
//!        [--engine dpll|cdcl] [--limit N] [--jobs N] [--timeout-ms T]
//!        [--pla] [--dot] [--verilog] [--exact] [--hazards] [--check] [--quiet]
//!        [--explain SIGNAL]
//! ```
//!
//! `--engine` selects the SAT core deciding the CSC formulas: `cdcl`
//! (default) is the modern conflict-driven core, `dpll` the classic
//! paper-faithful engine. One serial search decides each formula.
//! `--method` takes any name `--help` lists (`modular` by default).
//!
//! Reads an STG (a `.g` file, `-` for stdin, or `benchmark:<name>` for one
//! of the built-in Table-1 stand-ins), resolves CSC with the chosen method
//! and prints the synthesised logic. `--pla` additionally prints each
//! function as a single-output PLA; `--dot` prints the final state graph in
//! Graphviz format; `--verilog` emits a structural netlist; `--exact` uses
//! exact two-level minimisation; `--hazards` runs the static-hazard
//! post-process and checks the repaired gates in closed loop with the
//! oracle's speed-independence judgement; `--check` certifies
//! the result against the independent `modsyn-check` oracle (consistency,
//! CSC, speed independence, observable equivalence to the specification)
//! and exits non-zero on any violation.
//!
//! Observability: `--stats` prints a per-phase span tree (timings, SAT
//! counters, per-module formula sizes) to **stderr**; `--trace-json FILE`
//! writes the same trace as JSON. Neither touches stdout, so piping `--pla`
//! or `--verilog` output stays clean. `--explain SIGNAL` (repeatable,
//! modular methods only) prints the provenance chain of an inserted state
//! signal to stderr — the module that forced it, the CSC conflict pairs it
//! resolves, and the winning formula's clause families — and composes with
//! `--stats`/`--trace-json` without touching stdout.
//!
//! Supervision: `--retry` wraps the run in the deterministic escalation
//! ladder — on a backtrack-limit or timeout abort, the limit doubles (up
//! to a cap), then the modular flow falls back to lavagno. Every rung
//! decides each CSC formula with the one `--engine` solver. Exit code 4
//! always prints the attempt trace (method, backtrack limit, elapsed per
//! rung) on stderr, so aborted runs are diagnosable without
//! `--trace-json`.
//!
//! Parallelism: `--jobs N` (default: the machine's available parallelism)
//! fans the modular candidate derivation and the per-signal logic
//! minimisation over N threads; the output is identical for every N.
//! `--timeout-ms T` aborts the run cooperatively after T milliseconds with
//! a clean message on stderr and a non-zero exit (stdout stays empty).
//!
//! Exit codes (also printed by `--help`): `0` success; `1` usage error;
//! `2` input error (unreadable file, unknown benchmark, `.g` parse
//! failure); `3` synthesis failure (no solution, backtrack limit,
//! unsupported STG class); `4` aborted by `--timeout-ms` or cancellation;
//! `5` the `--check` oracle rejected the result. `--version` prints the
//! crate version and exits 0.

use std::io::Read as _;
use std::process::ExitCode;
use std::time::Duration;

use modsyn::{
    gate_netlist, hazard_report, remove_static_hazards, synthesize_traced,
    synthesize_with_retry_traced, Attempt, Engine, Method, MinimizeMode, RetryPolicy,
    SynthesisError, SynthesisOptions,
};
use modsyn_obs::Tracer;
use modsyn_par::{available_jobs, CancelToken};
use modsyn_sat::SolverOptions;

struct Args {
    source: String,
    method: Method,
    engine: Engine,
    limit: Option<u64>,
    jobs: usize,
    timeout_ms: Option<u64>,
    pla: bool,
    dot: bool,
    verilog: bool,
    exact: bool,
    hazards: bool,
    check: bool,
    quiet: bool,
    stats: bool,
    trace_json: Option<String>,
    retry: bool,
    explain: Vec<String>,
}

/// Exit codes, kept distinct so scripts can tell failure classes apart.
/// Documented in `--help` and the README.
mod exit {
    /// Bad command line.
    pub const USAGE: u8 = 1;
    /// Unreadable input, unknown benchmark, or `.g` parse failure.
    pub const INPUT: u8 = 2;
    /// Synthesis failed (no solution, backtrack limit, unsupported STG).
    pub const SYNTH: u8 = 3;
    /// Aborted by `--timeout-ms` or cancellation.
    pub const ABORTED: u8 = 4;
    /// The `--check` oracle rejected the synthesised result.
    pub const CHECK: u8 = 5;
}

fn usage() -> String {
    format!(
        "usage: modsyn <file.g | - | benchmark:NAME> [--method {}] \
     [--engine dpll|cdcl] [--limit N] [--jobs N] [--timeout-ms T] [--retry] [--pla] [--dot] \
     [--verilog] [--exact] [--hazards] [--check] [--quiet] [--stats] [--trace-json FILE] \
     [--explain SIGNAL] [--version]\n\
     \n\
     --engine picks the SAT core: cdcl (default) or dpll (classic, paper-faithful).\n\
     \n\
     --explain SIGNAL (repeatable; modular methods) prints why the inserted state \
     signal exists: the module that forced it, the CSC conflict pairs it resolves, \
     the winning formula's clause families. Stderr only.\n\
     \n\
     --retry climbs the supervised escalation ladder on capacity failures: \
     double the backtrack limit, then fall back to lavagno; the --engine solver \
     decides every formula.\n\
     \n\
     exit codes: 0 success; 1 usage error; 2 input error (file/parse); \
     3 synthesis failure; 4 aborted (--timeout-ms / cancellation / ladder exhausted); \
     5 --check oracle rejection",
        Method::choices()
    )
}

/// What the command line asked for: a run, or an informational exit.
enum Parsed {
    Run(Box<Args>),
    Help,
    Version,
}

fn parse_args() -> Result<Parsed, String> {
    let mut args = Args {
        source: String::new(),
        method: Method::Modular,
        engine: Engine::default(),
        limit: None,
        jobs: available_jobs(),
        timeout_ms: None,
        pla: false,
        dot: false,
        verilog: false,
        exact: false,
        hazards: false,
        check: false,
        quiet: false,
        stats: false,
        trace_json: None,
        retry: false,
        explain: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--method" => {
                let v = it.next().ok_or("--method needs a value")?;
                args.method = Method::parse(&v).ok_or_else(|| format!("unknown method {v:?}"))?;
            }
            "--engine" => {
                let v = it.next().ok_or("--engine needs a value")?;
                args.engine = Engine::parse(&v)?;
            }
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                args.limit = Some(v.parse().map_err(|_| "bad --limit value")?);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| "bad --jobs value")?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--timeout-ms" => {
                let v = it.next().ok_or("--timeout-ms needs a value")?;
                args.timeout_ms = Some(v.parse().map_err(|_| "bad --timeout-ms value")?);
            }
            "--pla" => args.pla = true,
            "--dot" => args.dot = true,
            "--verilog" => args.verilog = true,
            "--exact" => args.exact = true,
            "--hazards" => args.hazards = true,
            "--check" => args.check = true,
            "--quiet" => args.quiet = true,
            "--stats" => args.stats = true,
            "--retry" => args.retry = true,
            "--trace-json" => {
                args.trace_json = Some(it.next().ok_or("--trace-json needs a file")?);
            }
            "--explain" => {
                args.explain
                    .push(it.next().ok_or("--explain needs a signal name")?);
            }
            "--help" | "-h" => return Ok(Parsed::Help),
            "--version" | "-V" => return Ok(Parsed::Version),
            other if args.source.is_empty() => args.source = other.to_string(),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.source.is_empty() {
        return Err(usage());
    }
    if !args.explain.is_empty() && !matches!(args.method, Method::Modular | Method::ModularMinArea)
    {
        return Err("--explain needs a modular method (provenance is per-module)".to_string());
    }
    Ok(Parsed::Run(Box::new(args)))
}

fn load_stg(source: &str, tracer: &Tracer) -> Result<modsyn_stg::Stg, String> {
    if let Some(name) = source.strip_prefix("benchmark:") {
        return modsyn_stg::benchmarks::by_name(name)
            .ok_or_else(|| format!("unknown benchmark {name:?}"));
    }
    let text = if source == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| e.to_string())?;
        buf
    } else {
        std::fs::read_to_string(source).map_err(|e| format!("{source}: {e}"))?
    };
    modsyn_stg::parse_g_traced(&text, tracer).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Parsed::Run(a)) => a,
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Version) => {
            println!("modsyn {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(exit::USAGE);
        }
    };
    let tracer = if args.stats || args.trace_json.is_some() {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let stg = match load_stg(&args.source, &tracer) {
        Ok(s) => s,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(exit::INPUT);
        }
    };

    let mut options = SynthesisOptions::for_method(args.method);
    options.engine = args.engine;
    options.jobs = args.jobs;
    if let Some(ms) = args.timeout_ms {
        options.cancel = CancelToken::with_deadline(Duration::from_millis(ms));
    }
    if args.exact {
        options.minimize = MinimizeMode::Exact;
    }
    if let Some(limit) = args.limit {
        options.solver = SolverOptions {
            max_backtracks: Some(limit),
            ..SolverOptions::default()
        };
    }
    let result = if args.retry {
        synthesize_with_retry_traced(&stg, &options, &RetryPolicy::default(), &tracer).map(|out| {
            if !out.attempts.is_empty() && !args.quiet {
                eprintln!(
                    "retry: succeeded after {} failed attempt(s):",
                    out.attempts.len()
                );
                eprint_attempts(&out.attempts);
            }
            out.report
        })
    } else {
        synthesize_traced(&stg, &options, &tracer)
    };
    let report = match result {
        Ok(r) => r,
        Err(e @ SynthesisError::Aborted { .. }) => {
            eprintln!("synthesis aborted: {e}");
            // Exit code 4 always carries a diagnosable attempt trace, even
            // for single-attempt runs without --trace-json.
            if let SynthesisError::Aborted { elapsed } = &e {
                eprint_attempts(&[Attempt {
                    method: options.method,
                    backtrack_limit: options.solver.max_backtracks,
                    elapsed: *elapsed,
                    error: e.clone(),
                }]);
            }
            let _ = emit_observability(&args, &tracer);
            return ExitCode::from(exit::ABORTED);
        }
        Err(SynthesisError::Exhausted { attempts }) => {
            eprintln!(
                "synthesis aborted: retry ladder exhausted after {} attempt(s)",
                attempts.len()
            );
            eprint_attempts(&attempts);
            let _ = emit_observability(&args, &tracer);
            return ExitCode::from(exit::ABORTED);
        }
        Err(e) => {
            eprintln!("synthesis failed: {e}");
            let _ = emit_observability(&args, &tracer);
            return ExitCode::from(exit::SYNTH);
        }
    };

    if !args.quiet {
        println!(
            "# {}: {} -> {} signals, {} -> {} states, {} literals, {:.3}s ({})",
            report.benchmark,
            report.initial_signals,
            report.final_signals(),
            report.initial_states,
            report.final_states(),
            report.literals,
            report.cpu_seconds,
            report.method,
        );
    }

    for signal in &args.explain {
        if !eprint_explanation(&report, signal) {
            let _ = emit_observability(&args, &tracer);
            return ExitCode::from(exit::INPUT);
        }
    }

    // The report carries the solved graph; no re-derivation needed.
    let graph = &report.csc.graph;

    if args.check {
        let spec = modsyn_sg::derive(&stg, &options.derive).expect("already derived once");
        let netlist = gate_netlist(graph, &report.functions);
        match modsyn_check::verify_solution(Some(&spec), graph, &netlist) {
            Ok(()) => {
                if !args.quiet {
                    println!(
                        "# check: ok (consistency, CSC, speed independence, equivalence over {} states)",
                        graph.state_count()
                    );
                }
            }
            Err(e) => {
                eprintln!("check failed: {e}");
                return ExitCode::from(exit::CHECK);
            }
        }
    }

    let mut functions = report.functions.clone();
    if args.hazards {
        let before = hazard_report(graph, &functions);
        functions = remove_static_hazards(graph, &functions);
        let after = hazard_report(graph, &functions);
        if !args.quiet {
            println!(
                "# hazards: {} static-1 hazards removed, {} remain; area now {} literals",
                before.total_hazards(),
                after.total_hazards(),
                functions.iter().map(|f| f.literals).sum::<usize>(),
            );
            let verdict =
                modsyn_check::check_speed_independence(&gate_netlist(graph, &functions), graph);
            println!(
                "# closed-loop check: {} states, {} transitions, conforming: {}",
                graph.state_count(),
                graph.edge_count(),
                verdict.is_ok()
            );
        }
    }

    for f in &functions {
        println!("{} = {}", f.name, f.sop);
        if args.pla {
            print!("{}", modsyn_logic::write_pla(f.sop.cover()));
        }
    }
    if args.dot {
        println!("{}", modsyn_sg::to_dot(graph));
    }
    if args.verilog {
        println!(
            "{}",
            modsyn::to_verilog(&report.benchmark, graph, &functions)
        );
    }
    emit_observability(&args, &tracer)
}

/// Prints one inserted signal's provenance chain to stderr. Returns false
/// (after naming the signals that *do* have provenance) when the signal is
/// unknown, so the caller can exit with an input error.
fn eprint_explanation(report: &modsyn::SynthesisReport, signal: &str) -> bool {
    let chain: Vec<_> = report
        .csc
        .provenance
        .iter()
        .filter(|p| p.signal == signal)
        .collect();
    if chain.is_empty() {
        let known = report.csc.inserted.join(", ");
        eprintln!("error: no provenance for signal {signal:?}; inserted signals: [{known}]");
        return false;
    }
    eprintln!(
        "explain {signal} ({}, {}):",
        report.benchmark, report.method
    );
    for p in chain {
        let pairs = p
            .resolved_pairs
            .iter()
            .map(|&(i, j)| format!("({i},{j})"))
            .collect::<Vec<_>>()
            .join(" ");
        eprintln!(
            "  forced by module {:?} (key {:016x}), resolving {} CSC conflict pair(s): {pairs}",
            p.module_output,
            p.module_key,
            p.resolved_pairs.len(),
        );
        eprintln!(
            "  winning formula: {} state signal(s), {} variables, {} clauses",
            p.state_signals, p.variables, p.clauses,
        );
        eprintln!(
            "  clause families: consistency {}, persistence {}, usc {}, resolution {}",
            p.families.consistency, p.families.persistence, p.families.usc, p.families.resolution,
        );
    }
    true
}

/// Prints the retry-ladder attempt trace (method, backtrack limit,
/// elapsed, failure) to stderr, one indented line per attempt.
fn eprint_attempts(attempts: &[Attempt]) {
    for (i, attempt) in attempts.iter().enumerate() {
        eprintln!("  attempt {}: {attempt}", i + 1);
    }
}

/// Renders the trace after the run: `--stats` to stderr (stdout carries the
/// synthesised logic and must stay machine-consumable), `--trace-json` to
/// the named file. Returns `FAILURE` if the trace file cannot be written.
#[must_use]
fn emit_observability(args: &Args, tracer: &Tracer) -> ExitCode {
    if !tracer.is_enabled() {
        return ExitCode::SUCCESS;
    }
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
    ExitCode::SUCCESS
}
