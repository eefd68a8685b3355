//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload table1|corpus|serve|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! It drives the synthesis stack only through public entry points, with
//! input in the form users supply it: `.g` text to the library for the
//! batch workloads ([`batch`]) and HTTP to an in-process
//! `modsyn_svc::Server` for `serve` ([`serve`]). `--trace 0` measures the
//! end-to-end metrics with tracing off, `--trace 1` makes a traced run and
//! reports the per-layer split, and `--workload all` does both for every
//! workload. Each run prints every metric by name with its unit and better
//! direction; the last line of stdout is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `README.md` defines the
//! workloads and metrics and records the observed split.

mod batch;
mod catalog;
mod report;
mod serve;

use std::process::ExitCode;

use crate::report::Outcome;

const USAGE: &str =
    "usage: perfbench --workload table1|corpus|serve|all [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 3] = ["table1", "corpus", "serve"];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Orders the batch workloads' fixed input sets and places `serve`'s
    /// repeats.
    pub seed: u64,
    /// How long an untraced run measures; it always makes at least
    /// [`report::MIN_PASSES`] passes over its input set.
    pub seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown --workload {:?}", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn run(workload: &str, args: &Args, trace: bool) -> Result<Outcome, String> {
    match workload {
        "table1" => batch::run(batch::Batch::Table1, args, trace),
        "corpus" => batch::run(batch::Batch::Corpus, args, trace),
        _ => serve::run(args, trace),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let runs: Vec<(&str, bool)> = if args.workload == "all" {
        WORKLOADS
            .iter()
            .flat_map(|&w| [(w, false), (w, true)])
            .collect()
    } else {
        vec![(args.workload.as_str(), args.trace)]
    };
    let mut outcomes = Vec::with_capacity(runs.len());
    for (workload, trace) in runs {
        match run(workload, &args, trace) {
            Ok(outcome) => {
                outcome.print(workload, trace);
                outcomes.push((workload, trace, outcome));
            }
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = match outcomes.as_slice() {
        [(_, trace, outcome)] => outcome.to_json(*trace),
        all => Outcome::combined_json(all),
    };
    println!("{result}");
    ExitCode::SUCCESS
}
