//! Parallel subsystem integration: the parallel drivers must be
//! bit-for-bit deterministic, and cooperative cancellation must cut a long
//! run short cleanly from the public `synthesize` entry point.
//!
//! With `jobs > 1` the modular flow also tries the CSC signal counts after
//! an unsatisfiable first one several at a time; every report, error and
//! trace must still be the one `jobs = 1` gives.

use std::time::{Duration, Instant};

use modsyn::{
    encode_csc_partial, solve_csc_scoped_traced, synthesize, synthesize_traced, CscSolveOptions,
    Engine, Method, ResolveScope, SynthesisError, SynthesisOptions, SynthesisReport,
};
use modsyn_bench::{incr::choose_edit, TABLE1_BACKTRACK_LIMIT};
use modsyn_corpus::corpus_case;
use modsyn_fault::Faults;
use modsyn_obs::{Event, Tracer};
use modsyn_par::CancelToken;
use modsyn_sat::{solve_with_engine, SolverOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::{benchmarks, parse_g, write_g, Stg};

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
    for p in &report.csc.provenance {
        writeln!(s, "provenance {p:?}").unwrap();
    }
    for f in &report.functions {
        writeln!(s, "fn {} = {} [{} lit]", f.name, f.sop, f.literals).unwrap();
    }
    s
}

/// A synthesis result without its wall clocks: the canonical report, or
/// the error with the signal count it names.
fn outcome(result: &Result<SynthesisReport, SynthesisError>) -> String {
    match result {
        Ok(report) => canonical(report),
        Err(SynthesisError::BacktrackLimit { state_signals, .. }) => {
            format!("backtrack limit at m = {state_signals}")
        }
        Err(e) => format!("error: {e}"),
    }
}

fn with_jobs(method: Method, jobs: usize) -> SynthesisOptions {
    let mut options = SynthesisOptions::for_method(method);
    options.jobs = jobs;
    options
}

fn round_trip(stg: &Stg) -> Stg {
    parse_g(&write_g(stg)).expect("a written .g parses")
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
fn parallel_modular_synthesis_matches_sequential_on_round_tripped_rows() {
    // All 23 Table-1 benchmarks as the daemon receives them (a `.g` round
    // trip) under its engine and the Table-1 limit: every row synthesises
    // at jobs 1, 2 and 4, and jobs 2 and 4 reproduce the jobs = 1 report
    // exactly — formulas, module traces, provenance and logic included.
    for (name, stg) in benchmarks::all() {
        let stg = round_trip(&stg);
        let reports = [1, 2, 4].map(|jobs| {
            let mut options = with_jobs(Method::Modular, jobs);
            options.engine = Engine::Cdcl;
            options.solver.max_backtracks = Some(TABLE1_BACKTRACK_LIMIT);
            let report =
                synthesize(&stg, &options).unwrap_or_else(|e| panic!("{name} jobs={jobs}: {e}"));
            canonical(&report)
        });
        assert_eq!(reports[0], reports[1], "{name} at jobs = 2");
        assert_eq!(reports[0], reports[2], "{name} at jobs = 4");
    }
}

#[test]
fn parallel_modular_synthesis_matches_sequential_on_the_corpus() {
    // Corpus seeds 0-63 as `.g` under the corpus contract (dpll, 40 k
    // backtracks): certified reports and every kind of failure alike must
    // come out the same at jobs 1, 2 and 4.
    for seed in 0..64 {
        let stg = round_trip(&corpus_case(seed).0);
        let outcomes = [1, 2, 4].map(|jobs| {
            let mut options = with_jobs(Method::Modular, jobs);
            options.engine = Engine::Dpll;
            options.solver.max_backtracks = Some(40_000);
            outcome(&synthesize(&stg, &options))
        });
        assert_eq!(outcomes[0], outcomes[1], "corpus seed {seed} at jobs = 2");
        assert_eq!(outcomes[0], outcomes[2], "corpus seed {seed} at jobs = 4");
    }
}

#[test]
fn a_backtrack_limit_below_a_satisfiable_count_names_the_lower_count() {
    // Corpus seed 1's complete graph under the classic engine: m = 2 is
    // refuted in about 130 backtracks, the m = 3 proof needs about 6,200
    // and m = 4 is satisfiable in about 450. At 1,000 the m = 3 proof hits
    // the limit while m = 4, tried beside it, finds a model. The m = 2
    // formula is past the 400-clause floor, so jobs 2 and 4 speculate.
    let sg = derive(&corpus_case(1).0, &DeriveOptions::default()).unwrap();
    let options = CscSolveOptions {
        engine: Engine::Dpll,
        solver: SolverOptions {
            max_backtracks: Some(1_000),
            ..SolverOptions::default()
        },
        ..CscSolveOptions::default()
    };
    let analysis = sg.csc_analysis();
    assert_eq!(analysis.lower_bound, 2);
    let m2 = encode_csc_partial(&sg, &analysis, &analysis.csc_pairs, 2);
    assert!(m2.formula.clause_count() >= 400);
    let m4 = encode_csc_partial(&sg, &analysis, &analysis.csc_pairs, 4);
    let never = CancelToken::never();
    let (m4_outcome, _) = solve_with_engine(
        Engine::Dpll,
        &m4.formula,
        options.solver,
        &never,
        &Faults::none(),
    );
    assert!(m4_outcome.is_sat(), "m = 4 is satisfiable within the limit");
    for jobs in [1, 2, 4] {
        let tracer = Tracer::disabled();
        let result = solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, jobs, &tracer);
        assert!(
            matches!(
                result,
                Err(SynthesisError::BacktrackLimit {
                    state_signals: 3,
                    ..
                })
            ),
            "jobs = {jobs}: {result:?}"
        );
    }
}

#[test]
fn an_inseparable_pair_fails_after_one_attempt_at_every_jobs_value() {
    // The vbe4a edit's third module has a pair no single signal separates.
    // Its first formula has 1,519 clauses, past the floor where solves
    // speculate, so at jobs 2 and 4 its proof runs beside the speculated
    // counts: the proof fails the call, and none of their attempts
    // reaches the trace.
    let stg = choose_edit(&benchmarks::by_name("vbe4a").expect("known benchmark"), 0).stg;
    let mut sequential = None;
    for jobs in [1, 2, 4] {
        let mut options = with_jobs(Method::Modular, jobs);
        options.engine = Engine::Cdcl;
        options.solver.max_backtracks = Some(TABLE1_BACKTRACK_LIMIT);
        let tracer = Tracer::enabled();
        let err = synthesize_traced(&stg, &options, &tracer).expect_err("no count solves it");
        assert!(
            matches!(err, SynthesisError::NoSolution { max_signals: 7 }),
            "jobs = {jobs}: {err:?}"
        );
        let report = tracer.report();
        let failing = report.spans_where(&|s| {
            s.name.starts_with("module:")
                && s.children.iter().any(|c| c.note("inseparable").is_some())
        });
        assert_eq!(failing.len(), 1, "jobs = {jobs}");
        let attempts: Vec<_> = failing[0]
            .children
            .iter()
            .filter(|c| c.name == "csc.attempt")
            .collect();
        assert_eq!(attempts.len(), 1, "jobs = {jobs}: only m = 1 is recorded");
        assert_eq!(attempts[0].gauge("m"), Some(1.0));
        assert!(attempts[0].gauge("clauses") >= Some(400.0), "it speculates");
        // Every attempt of the run, in trace order, is the sequential one.
        let all: Vec<(Option<f64>, Option<f64>)> = report
            .spans_with_prefix("csc.attempt")
            .iter()
            .map(|s| (s.gauge("m"), s.gauge("clauses")))
            .collect();
        match &sequential {
            None => sequential = Some(all),
            Some(expected) => assert_eq!(expected, &all, "jobs = {jobs}"),
        }
    }
}

/// The threads of this process that carry the calling thread's name:
/// threads a test spawns inherit it on Linux. `None` elsewhere.
fn namesakes() -> Option<usize> {
    let own = std::fs::read_to_string("/proc/thread-self/comm").ok()?;
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    Some(
        tasks
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| *comm == own)
            .count(),
    )
}

fn separability_started(tracer: &Tracer) -> bool {
    tracer
        .events()
        .iter()
        .any(|e| matches!(e, Event::SpanStart { name, .. } if name == "csc.separability"))
}

#[test]
fn speculation_cancelled_midway_aborts_and_joins_its_threads() {
    // mr1's complete graph: m = 2 is refuted at once, while the m = 3
    // proof runs for tens of seconds. Its m = 2 formula is far past the
    // 400-clause floor, and the token is cancelled once the separability
    // proof has started, so the call is speculating then.
    let sg = derive(&benchmarks::mr1(), &DeriveOptions::default()).unwrap();
    let before = namesakes();
    let options = CscSolveOptions {
        cancel: CancelToken::new(),
        ..CscSolveOptions::default()
    };
    let tracer = Tracer::enabled();
    let started = Instant::now();
    let result = std::thread::scope(|scope| {
        let (cancel, tracer_ref) = (options.cancel.clone(), &tracer);
        let watcher = scope.spawn(move || {
            while !separability_started(tracer_ref) && started.elapsed() < Duration::from_secs(60) {
                std::thread::sleep(Duration::from_millis(1));
            }
            cancel.cancel();
        });
        let result = solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, 2, &tracer);
        watcher.join().unwrap();
        result
    });
    assert!(
        matches!(result, Err(SynthesisError::Aborted { .. })),
        "{result:?}"
    );
    assert!(separability_started(&tracer), "cancelled while speculating");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "took {:?}",
        started.elapsed()
    );
    // A joined thread can linger in the kernel for a moment after its
    // work returned; give it one second to go.
    let settled = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        namesakes() == before
    });
    assert!(
        settled,
        "a speculative count outlived the call: {before:?} -> {:?}",
        namesakes()
    );
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
