//! `modsat` — solve a DIMACS CNF file.
//!
//! ```text
//! modsat <file.cnf | -> [--engine dpll|cdcl] [--chrono]
//!        [--heuristic first|jw|moms] [--max-backtracks N]
//!        [--timeout-ms T] [--stats]
//! ```
//!
//! Prints `s SATISFIABLE` + a `v` model line, `s UNSATISFIABLE`, or
//! `s UNKNOWN` (limit reached or timed out), following the
//! SAT-competition output conventions. Exit codes follow suit: 10 for
//! SAT, 20 for UNSAT, 0 for UNKNOWN, 1 for usage or input errors. A
//! header's clause count, when given, must match the clauses the file
//! holds, so a truncated or concatenated file is an input error.
//!
//! `--engine` selects the SAT core: `cdcl` (default) is the modern
//! conflict-driven core, `dpll` the classic engine. `--chrono` and
//! `--heuristic` configure the classic engine only, so either one without
//! `--engine dpll` is a usage error. Without `--chrono` the classic engine
//! learns clauses and, unless the heuristic is `first`, branches on
//! activity seeded from Jeroslow–Wang (the default `jw` search), so
//! `--heuristic moms` needs `--chrono`. With `--chrono` it backtracks
//! chronologically under any of the three heuristics. `--timeout-ms`
//! aborts cooperatively after `T` milliseconds.

use std::io::Read as _;
use std::process::ExitCode;
use std::time::Duration;

use modsyn_fault::Faults;
use modsyn_par::CancelToken;
use modsyn_sat::{
    parse_dimacs, solve_with_engine, Engine, Heuristic, Lit, Outcome, SolverOptions, Var,
};

const USAGE: &str = "usage: modsat <file.cnf | -> [--engine dpll|cdcl] [--chrono] \
                     [--heuristic first|jw|moms] [--max-backtracks N] [--timeout-ms T] \
                     [--stats]\n\
                     --chrono and --heuristic configure the classic engine: they need --engine dpll";

fn main() -> ExitCode {
    let mut source = String::new();
    let mut options = SolverOptions::default();
    let mut engine = Engine::default();
    // The last classic-engine flag seen, refused unless --engine dpll.
    let mut classic_flag: Option<&str> = None;
    let mut show_stats = false;
    let mut timeout_ms: Option<u64> = None;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                let Some(v) = it.next() else {
                    eprintln!("--engine needs a value (dpll or cdcl)");
                    return ExitCode::FAILURE;
                };
                engine = match Engine::parse(&v) {
                    Ok(e) => e,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--chrono" => {
                options.learning = false;
                classic_flag = Some("--chrono");
            }
            "--heuristic" => {
                classic_flag = Some("--heuristic");
                let Some(v) = it.next() else {
                    eprintln!("--heuristic needs a value");
                    return ExitCode::FAILURE;
                };
                options.heuristic = match v.as_str() {
                    "first" => Heuristic::FirstUnassigned,
                    "jw" => Heuristic::JeroslowWang,
                    "moms" => Heuristic::Moms,
                    other => {
                        eprintln!("unknown heuristic {other:?}");
                        return ExitCode::FAILURE;
                    }
                };
            }
            "--max-backtracks" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--max-backtracks needs a number");
                    return ExitCode::FAILURE;
                };
                options.max_backtracks = Some(v);
            }
            "--timeout-ms" => {
                let Some(v) = it.next().and_then(|v| v.parse().ok()) else {
                    eprintln!("--timeout-ms needs a number");
                    return ExitCode::FAILURE;
                };
                timeout_ms = Some(v);
            }
            "--stats" => show_stats = true,
            other if source.is_empty() => source = other.to_string(),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    if source.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    if let (Some(flag), Engine::Cdcl) = (classic_flag, engine) {
        eprintln!("{flag} configures the classic engine: it needs --engine dpll");
        return ExitCode::FAILURE;
    }
    if options.heuristic == Heuristic::Moms && options.learning {
        eprintln!("--heuristic moms requires --chrono (with learning, branching follows activity)");
        return ExitCode::FAILURE;
    }

    let text = if source == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("error reading stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&source) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{source}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let formula = match parse_dimacs(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("parse error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let cancel = match timeout_ms {
        Some(ms) => CancelToken::with_deadline(Duration::from_millis(ms)),
        None => CancelToken::never(),
    };
    let (outcome, stats) = solve_with_engine(engine, &formula, options, &cancel, &Faults::none());
    if show_stats {
        eprintln!("c [{engine}] {stats}");
    }
    match outcome {
        Outcome::Satisfiable(model) => {
            println!("s SATISFIABLE");
            let line: Vec<String> = (0..formula.num_vars())
                .map(|i| {
                    let v = Var::new(i);
                    Lit::with_polarity(v, model.value(v))
                        .to_dimacs()
                        .to_string()
                })
                .collect();
            println!("v {} 0", line.join(" "));
            ExitCode::from(10)
        }
        Outcome::Unsatisfiable => {
            println!("s UNSATISFIABLE");
            ExitCode::from(20)
        }
        Outcome::BacktrackLimit | Outcome::Aborted => {
            println!("s UNKNOWN");
            ExitCode::SUCCESS
        }
    }
}
