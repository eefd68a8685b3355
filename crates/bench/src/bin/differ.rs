//! `differ` — differential tester for the whole synthesis pipeline.
//!
//! For every subject STG — the 23 Table-1 benchmarks plus a seeded stream
//! of random live safe free-choice STGs from `modsyn_check::gen_stg` — the
//! driver runs a matrix of configurations:
//!
//! * **method**: modular vs direct vs Lavagno,
//! * **parallelism**: serial vs `--jobs 4` (must produce *identical*
//!   reports),
//! * **SAT configuration**: the default solver vs the classic engine's
//!   chronological branch-and-bound under Jeroslow-Wang and under MOMS
//!   (with learning on, the classic engine branches on activity whatever
//!   the static heuristic, and `modular/dpll` already runs that),
//! * **SAT engine**: the default CDCL core vs the classic DPLL engine —
//!   two independent deciders over the same CSC encodings must synthesise
//!   observation-equivalent circuits.
//!
//! Every success must pass the independent oracle
//! ([`modsyn_check::verify_solution`]: consistency, CSC, speed
//! independence, observable equivalence to the specification), every pair
//! of successes must be observation-equivalent to each other, and every
//! failure must be a *typed capacity or class error* (backtrack limit,
//! no solution within the signal cap, state splitting required, not
//! free-choice). Anything else — a panic, an oracle violation, a
//! disagreement — fails the run; for generated subjects the recipe is
//! shrunk to a minimal failing phase list first.
//!
//! With `--corpus A..B` the subject set extends to the compositional
//! corpus stream (composed in-theory cases and asymmetric-choice probes
//! from `modsyn-corpus`); failing corpus subjects shrink through their
//! composition or probe recipe to a minimal derivation.
//!
//! ```text
//! differ [--seeds A..B] [--corpus A..B] [--profile small|medium|mixed]
//!        [--no-benchmarks] [--limit N] [--verbose]
//! ```
//!
//! Exit code 0 iff every subject agrees. Failures print the seed/benchmark
//! and configuration needed to reproduce.

use std::process::ExitCode;
use std::time::Instant;

use modsyn::{certify_report, Engine, Method, SynthesisError, SynthesisOptions, SynthesisReport};
use modsyn_bench::TABLE1_BACKTRACK_LIMIT;
use modsyn_check::{check_equivalence, gen_recipe, Profile, StgRecipe};
use modsyn_corpus::{corpus_case, gen_asym, gen_corpus, AsymRecipe, CorpusRecipe, Expectation};
use modsyn_sat::{Heuristic, SolverOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::{benchmarks, Stg};

struct Config {
    label: String,
    method: Method,
    solver: SolverOptions,
    engine: Engine,
    jobs: usize,
}

fn configs(limit: u64) -> Vec<Config> {
    let base = SolverOptions {
        max_backtracks: Some(limit),
        ..SolverOptions::default()
    };
    let chrono = |heuristic| SolverOptions {
        heuristic,
        learning: false,
        ..base
    };
    vec![
        Config {
            label: "modular/serial".into(),
            method: Method::Modular,
            solver: base,
            engine: Engine::default(),
            jobs: 1,
        },
        Config {
            label: "modular/jobs4".into(),
            method: Method::Modular,
            solver: base,
            engine: Engine::default(),
            jobs: 4,
        },
        Config {
            label: "modular/dpll".into(),
            method: Method::Modular,
            solver: base,
            engine: Engine::Dpll,
            jobs: 1,
        },
        Config {
            label: "direct/serial".into(),
            method: Method::Direct,
            solver: base,
            engine: Engine::default(),
            jobs: 1,
        },
        Config {
            label: "lavagno/serial".into(),
            method: Method::Lavagno,
            solver: base,
            engine: Engine::default(),
            jobs: 1,
        },
        Config {
            label: "modular/chrono-jw".into(),
            method: Method::Modular,
            solver: chrono(Heuristic::JeroslowWang),
            engine: Engine::Dpll,
            jobs: 1,
        },
        Config {
            label: "modular/chrono-moms".into(),
            method: Method::Modular,
            solver: chrono(Heuristic::Moms),
            engine: Engine::Dpll,
            jobs: 1,
        },
    ]
}

/// A failure is legitimate when it is one of the typed capacity/class
/// errors the paper itself reports (Table 1's aborts and internal state
/// errors). Everything else means a pipeline bug.
fn failure_is_legitimate(e: &SynthesisError) -> bool {
    matches!(
        e,
        SynthesisError::BacktrackLimit { .. }
            | SynthesisError::NoSolution { .. }
            | SynthesisError::NotFreeChoice
            | SynthesisError::StateSplittingRequired
    )
}

/// Runs the full configuration matrix on one subject; returns the first
/// disagreement as an error message, or `Ok` if the subject agrees. Each
/// configuration's progress line (with `verbose`) and failure message
/// carry its wall time: synthesis plus certification.
fn check_subject(stg: &Stg, limit: u64, verbose: bool) -> Result<(), String> {
    let spec = derive(stg, &DeriveOptions::default())
        .map_err(|e| format!("specification graph underivable: {e}"))?;
    let mut successes: Vec<(String, SynthesisReport)> = Vec::new();
    for cfg in configs(limit) {
        let options = SynthesisOptions {
            method: cfg.method,
            solver: cfg.solver,
            engine: cfg.engine,
            jobs: cfg.jobs,
            ..Default::default()
        };
        let started = Instant::now();
        let secs = || started.elapsed().as_secs_f64();
        match modsyn::synthesize(stg, &options) {
            Ok(report) => {
                certify_report(Some(&spec), &report).map_err(|e| {
                    format!("{}: oracle violation: {e} [{:.2}s]", cfg.label, secs())
                })?;
                if verbose {
                    eprintln!(
                        "    {}: ok ({} states, {} literals) [{:.2}s]",
                        cfg.label,
                        report.final_states(),
                        report.literals,
                        secs()
                    );
                }
                successes.push((cfg.label, report));
            }
            Err(e) if failure_is_legitimate(&e) => {
                if verbose {
                    eprintln!(
                        "    {}: legitimate failure: {e} [{:.2}s]",
                        cfg.label,
                        secs()
                    );
                }
            }
            Err(e) => {
                return Err(format!(
                    "{}: illegitimate failure: {e} [{:.2}s]",
                    cfg.label,
                    secs()
                ))
            }
        }
    }

    // Serial vs parallel must agree *bit for bit*, not just behaviourally.
    let find = |label: &str| successes.iter().find(|(l, _)| l == label);
    if let (Some((_, serial)), Some((_, par))) = (find("modular/serial"), find("modular/jobs4")) {
        if serial.csc.graph != par.csc.graph || serial.functions != par.functions {
            return Err("modular/serial and modular/jobs4 reports differ".into());
        }
    }

    // Every pair of successes must implement the same observable behaviour.
    for i in 0..successes.len() {
        for (lj, rj) in &successes[i + 1..] {
            let (li, ri) = &successes[i];
            check_equivalence(&ri.csc.graph, &rj.csc.graph)
                .map_err(|e| format!("{li} and {lj} disagree on observable behaviour: {e}"))?;
        }
    }
    Ok(())
}

/// Shrinks a failing recipe of any family: repeatedly replace it by the
/// first shrunk candidate that still fails, until none do.
fn shrink_to_minimal<R: Clone>(
    recipe: &R,
    build: impl Fn(&R) -> Stg,
    shrink: impl Fn(&R) -> Vec<R>,
    limit: u64,
) -> (R, String) {
    let mut current = recipe.clone();
    let mut message = check_subject(&build(&current), limit, false)
        .expect_err("shrink_to_minimal requires a failing recipe");
    loop {
        let mut shrunk = false;
        for candidate in shrink(&current) {
            if let Err(m) = check_subject(&build(&candidate), limit, false) {
                current = candidate;
                message = m;
                shrunk = true;
                break;
            }
        }
        if !shrunk {
            return (current, message);
        }
    }
}

/// [`shrink_to_minimal`] for the `gen_stg` recipe family.
fn shrink_failure(recipe: &StgRecipe, limit: u64) -> (StgRecipe, String) {
    shrink_to_minimal(recipe, StgRecipe::build, StgRecipe::shrink, limit)
}

struct Args {
    seeds: std::ops::Range<u64>,
    corpus: std::ops::Range<u64>,
    profile: Option<Profile>,
    benchmarks: bool,
    limit: u64,
    verbose: bool,
}

fn parse_range(flag: &str, v: &str) -> Result<std::ops::Range<u64>, String> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| format!("bad {flag} range {v:?}, expected A..B"))?;
    let a: u64 = a.parse().map_err(|_| format!("bad seed {a:?}"))?;
    let b: u64 = b.parse().map_err(|_| format!("bad seed {b:?}"))?;
    Ok(a..b)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 0..20,
        corpus: 0..0,
        profile: None,
        benchmarks: true,
        limit: TABLE1_BACKTRACK_LIMIT,
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value like 0..50")?;
                args.seeds = parse_range("--seeds", &v)?;
            }
            "--corpus" => {
                let v = it.next().ok_or("--corpus needs a value like 0..50")?;
                args.corpus = parse_range("--corpus", &v)?;
            }
            "--profile" => {
                let v = it.next().ok_or("--profile needs a value")?;
                args.profile = match v.as_str() {
                    "small" => Some(Profile::Small),
                    "medium" => Some(Profile::Medium),
                    "mixed" => None,
                    other => return Err(format!("unknown profile {other:?}")),
                };
            }
            "--no-benchmarks" => args.benchmarks = false,
            "--limit" => {
                let v = it.next().ok_or("--limit needs a value")?;
                args.limit = v.parse().map_err(|_| "bad --limit value".to_string())?;
            }
            "--verbose" => args.verbose = true,
            other => {
                return Err(format!(
                    "unexpected argument {other:?}\n\
                     usage: differ [--seeds A..B] [--corpus A..B] \
                     [--profile small|medium|mixed] [--no-benchmarks] [--limit N] [--verbose]"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut checked = 0usize;
    let mut failures = 0usize;

    if args.benchmarks {
        for (name, stg) in benchmarks::all() {
            eprintln!("benchmark {name}");
            checked += 1;
            if let Err(msg) = check_subject(&stg, args.limit, args.verbose) {
                failures += 1;
                eprintln!("FAIL benchmark {name}: {msg}");
            }
        }
    }

    for seed in args.seeds.clone() {
        let profile = args.profile.unwrap_or(if seed % 2 == 0 {
            Profile::Small
        } else {
            Profile::Medium
        });
        let recipe = gen_recipe(seed, profile);
        eprintln!("seed {seed} ({profile:?}, {} phases)", recipe.phases.len());
        checked += 1;
        if let Err(_first) = check_subject(&recipe.build(), args.limit, args.verbose) {
            failures += 1;
            let (minimal, msg) = shrink_failure(&recipe, args.limit);
            eprintln!(
                "FAIL seed {seed} ({profile:?}): {msg}\n  minimal recipe: {:?}\n  \
                 reproduce: differ --seeds {seed}..{} --profile {}",
                minimal.phases,
                seed + 1,
                match profile {
                    Profile::Small => "small",
                    Profile::Medium => "medium",
                },
            );
        }
    }

    // Corpus subjects: the composed/probe stream the `corpus` binary
    // sweeps, run through the same configuration matrix. In-theory cases
    // shrink through the composition recipe (drop children, shrink
    // leaves), probes through the probe recipe (fewer branches, narrower
    // fork) — either way a failure prints a minimal derivation.
    for seed in args.corpus.clone() {
        let (stg, expectation) = corpus_case(seed);
        eprintln!("corpus seed {seed} ({})", expectation.label());
        checked += 1;
        if let Err(_first) = check_subject(&stg, args.limit, args.verbose) {
            failures += 1;
            let (derivation, msg) = match expectation {
                Expectation::InTheory => {
                    let (minimal, msg) = shrink_to_minimal(
                        &gen_corpus(seed),
                        |r| r.build().0,
                        CorpusRecipe::shrink,
                        args.limit,
                    );
                    (minimal.node.derivation(), msg)
                }
                Expectation::BeyondTheory => {
                    let (minimal, msg) = shrink_to_minimal(
                        &gen_asym(seed),
                        |r| r.build(),
                        AsymRecipe::shrink,
                        args.limit,
                    );
                    (
                        format!(
                            "asym(width {}, branches {})",
                            minimal.width, minimal.branches
                        ),
                        msg,
                    )
                }
            };
            eprintln!(
                "FAIL corpus seed {seed}: {msg}\n  minimal derivation: {derivation}\n  \
                 reproduce: differ --corpus {seed}..{}",
                seed + 1,
            );
        }
    }

    if failures == 0 {
        println!("differ: {checked} subjects, all configurations agree");
        ExitCode::SUCCESS
    } else {
        println!("differ: {failures} of {checked} subjects FAILED");
        ExitCode::FAILURE
    }
}
