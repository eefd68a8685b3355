//! Parallel subsystem integration: the parallel drivers must be
//! bit-for-bit deterministic, and cooperative cancellation must cut a long
//! run short cleanly from the public `synthesize` entry point.

use std::time::{Duration, Instant};

use modsyn::{synthesize, Method, SynthesisError, SynthesisOptions, SynthesisReport};
use modsyn_par::CancelToken;
use modsyn_sat::SolverOptions;
use modsyn_stg::benchmarks;

/// Everything observable about a report except the wall clock.
fn canonical(report: &SynthesisReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "{} {} | {} -> {} states | {} -> {} signals | {} literals",
        report.benchmark,
        report.method,
        report.initial_states,
        report.final_states(),
        report.initial_signals,
        report.final_signals(),
        report.literals,
    )
    .unwrap();
    for f in &report.csc.formulas {
        writeln!(s, "formula {f:?}").unwrap();
    }
    for m in &report.csc.modules {
        writeln!(s, "module {m:?}").unwrap();
    }
    for f in &report.functions {
        writeln!(s, "fn {} = {} [{} lit]", f.name, f.sop, f.literals).unwrap();
    }
    s
}

fn with_jobs(method: Method, jobs: usize) -> SynthesisOptions {
    let mut options = SynthesisOptions::for_method(method);
    options.jobs = jobs;
    options
}

#[test]
fn parallel_modular_synthesis_matches_sequential_on_every_benchmark() {
    // All 23 Table-1 benchmarks: the jobs=4 run must reproduce the jobs=1
    // report exactly — formulas, module traces and logic included.
    for (name, stg) in benchmarks::all() {
        let seq = synthesize(&stg, &with_jobs(Method::Modular, 1))
            .unwrap_or_else(|e| panic!("{name} jobs=1: {e}"));
        let par = synthesize(&stg, &with_jobs(Method::Modular, 4))
            .unwrap_or_else(|e| panic!("{name} jobs=4: {e}"));
        assert_eq!(canonical(&seq), canonical(&par), "{name}");
    }
}

#[test]
fn a_tight_deadline_aborts_the_direct_method_quickly() {
    // Direct-method mr0 runs for ages at the Table-1 limit; a 50 ms
    // deadline must surface as a clean `Aborted` long before that.
    let stg = benchmarks::mr0();
    let mut options = SynthesisOptions::for_method(Method::Direct);
    options.solver = SolverOptions {
        max_backtracks: Some(20_000),
        ..SolverOptions::default()
    };
    options.cancel = CancelToken::with_deadline(Duration::from_millis(50));
    let started = Instant::now();
    let err = synthesize(&stg, &options).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, SynthesisError::Aborted { .. }),
        "expected abort, got {err:?}"
    );
    assert!(elapsed < Duration::from_secs(5), "took {elapsed:?}");
}

#[test]
fn a_pre_cancelled_token_aborts_the_parallel_modular_flow() {
    let stg = benchmarks::vbe_ex2();
    let mut options = with_jobs(Method::Modular, 4);
    options.cancel = CancelToken::new();
    options.cancel.cancel();
    assert!(matches!(
        synthesize(&stg, &options),
        Err(SynthesisError::Aborted { .. })
    ));
}
