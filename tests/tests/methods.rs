//! Cross-method integration: the three flows compared on the same inputs.

use modsyn::{synthesize, Method, SynthesisError, SynthesisOptions};
use modsyn_sat::SolverOptions;
use modsyn_stg::benchmarks;

fn with_limit(method: Method, limit: u64) -> SynthesisOptions {
    let mut options = SynthesisOptions::for_method(method);
    options.solver = SolverOptions {
        max_backtracks: Some(limit),
        ..SolverOptions::default()
    };
    options
}

#[test]
fn all_methods_agree_on_tiny_benchmarks() {
    for name in ["vbe-ex1", "vbe-ex2", "sendr-done", "nousc-ser", "nouse"] {
        let stg = benchmarks::by_name(name).unwrap();
        let modular = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular))
            .unwrap_or_else(|e| panic!("{name} modular: {e}"));
        let direct = synthesize(&stg, &SynthesisOptions::for_method(Method::Direct))
            .unwrap_or_else(|e| panic!("{name} direct: {e}"));
        let lavagno = synthesize(&stg, &SynthesisOptions::for_method(Method::Lavagno))
            .unwrap_or_else(|e| panic!("{name} lavagno: {e}"));
        // On these tiny graphs every method should find the same number of
        // state signals and an identical-cost implementation.
        assert_eq!(modular.final_signals(), direct.final_signals(), "{name}");
        assert_eq!(modular.final_signals(), lavagno.final_signals(), "{name}");
        assert_eq!(modular.literals, direct.literals, "{name}");
    }
}

#[test]
fn lavagno_rejects_non_free_choice() {
    let stg = benchmarks::alex_nonfc();
    let err = synthesize(&stg, &SynthesisOptions::for_method(Method::Lavagno)).unwrap_err();
    assert_eq!(err, SynthesisError::NotFreeChoice);
    // The modular method is not restricted (the paper's key generality
    // claim): it synthesises the same STG fine.
    let report = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular)).unwrap();
    assert!(report.literals > 0);
}

#[test]
fn lavagno_reports_state_splitting_on_race_bound_instances() {
    // `pa` and `wrdata` need concurrently-excited state signals, which the
    // race-free restriction forbids — the analogue of the SIS internal
    // state error the paper reports for `pa`.
    for name in ["pa", "wrdata"] {
        let stg = benchmarks::by_name(name).unwrap();
        match synthesize(&stg, &with_limit(Method::Lavagno, 100_000)) {
            Err(SynthesisError::StateSplittingRequired) => {}
            other => panic!("{name}: expected split error, got {other:?}"),
        }
    }
}

#[test]
fn direct_method_aborts_on_the_largest_benchmark() {
    let stg = benchmarks::mr0();
    match synthesize(&stg, &with_limit(Method::Direct, 5_000)) {
        Err(SynthesisError::BacktrackLimit { .. }) => {}
        other => panic!(
            "expected backtrack-limit abort, got {:?}",
            other.map(|r| r.literals)
        ),
    }
}

#[test]
fn modular_survives_the_limit_that_kills_direct() {
    // The paper's headline: the same budget that aborts the direct method
    // is ample for the modular flow.
    let stg = benchmarks::mmu0();
    let direct = synthesize(&stg, &with_limit(Method::Direct, 5_000));
    assert!(
        matches!(direct, Err(SynthesisError::BacktrackLimit { .. })),
        "direct should abort at 5k backtracks"
    );
    let modular = synthesize(&stg, &with_limit(Method::Modular, 5_000))
        .expect("modular solves within the same budget");
    assert!(modular.literals > 0);
}

#[test]
fn formula_decomposition_shrinks_instances() {
    // Per-module formulas must be much smaller than the direct instance.
    let stg = benchmarks::mmu0();
    let modular = synthesize(&stg, &with_limit(Method::Modular, 50_000)).unwrap();
    let formulas = &modular.csc.formulas;
    let max_module_vars = formulas
        .iter()
        .map(|f| f.variables)
        .max()
        .expect("at least one formula");
    // The direct encoding at the same signal count covers every state.
    // Compare against the actual direct encoding at the analysis lower
    // bound.
    let sg = modsyn_sg::derive(&stg, &modsyn_sg::DeriveOptions::default()).unwrap();
    let analysis = sg.csc_analysis();
    let direct = modsyn::encode_csc(&sg, &analysis, analysis.lower_bound.max(1));
    assert!(
        max_module_vars < direct.formula.num_vars(),
        "module {max_module_vars} vars vs direct {}",
        direct.formula.num_vars()
    );
    assert!(formulas.iter().map(|f| f.clauses).max().unwrap() < direct.formula.clause_count());
}
