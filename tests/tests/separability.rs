//! The one-signal separability proof in the CSC loop.
//!
//! When a module's first attempt is unsatisfiable, the loop asks whether
//! one state signal can separate each conflict pair at all. A pair that no
//! single signal separates is unresolvable at every signal count, so the
//! solve fails at once with the error its last signal count would give.
//! `modsyn`'s own tests check that the proof accepts every pair of every
//! problem the Table-1 rows and the corpus stream solve.

use modsyn::{synthesize_traced, Engine, Method, SynthesisError, SynthesisOptions};
use modsyn_bench::{incr::choose_edit, TABLE1_BACKTRACK_LIMIT};
use modsyn_obs::Tracer;
use modsyn_sat::SolverOptions;
use modsyn_stg::benchmarks;

#[test]
fn an_inseparable_pair_fails_the_vbe4a_edit_after_one_attempt() {
    // The edit the `serve` workload sends for vbe4a: its third module has
    // a conflict pair no single signal can separate.
    let stg = choose_edit(&benchmarks::by_name("vbe4a").expect("known benchmark"), 0).stg;
    let mut options = SynthesisOptions::for_method(Method::Modular);
    options.engine = Engine::Cdcl;
    options.solver = SolverOptions {
        max_backtracks: Some(TABLE1_BACKTRACK_LIMIT),
        ..SolverOptions::default()
    };
    let tracer = Tracer::enabled();
    let err = synthesize_traced(&stg, &options, &tracer).expect_err("no signal count solves it");
    // The error the loop reaches after its last signal count.
    assert!(
        matches!(err, SynthesisError::NoSolution { max_signals: 7 }),
        "{err:?}"
    );

    let report = tracer.report();
    let failed: Vec<_> = report
        .spans_with_prefix("csc.separability")
        .into_iter()
        .filter(|s| s.note("inseparable").is_some())
        .collect();
    assert_eq!(failed.len(), 1, "one proof fails, in the failing module");
    let pair = failed[0]
        .note("inseparable")
        .expect("the proof names the pair");
    assert!(pair.starts_with('(') && pair.contains(", "), "{pair}");
    assert!(failed[0].gauge("pairs").expect("pairs gauge") >= 1.0);
    // No proof solve reaches the SAT layer's accounting.
    assert!(failed[0].children.iter().all(|c| c.name != "sat.solve"));

    let failing = report.spans_where(&|s| {
        s.name.starts_with("module:") && s.children.iter().any(|c| c.note("inseparable").is_some())
    });
    assert_eq!(failing.len(), 1);
    let attempts = failing[0]
        .children
        .iter()
        .filter(|c| c.name == "csc.attempt")
        .count();
    assert_eq!(attempts, 1, "only the m = 1 attempt is paid for");
}
