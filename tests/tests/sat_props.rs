//! Differential tests for the SAT substrate.
//!
//! The ungated part cross-checks three independent deciders on seeded
//! random small CNFs — [`modsyn_sat::solve_exhaustive`] (brute force over
//! all assignments, the ground truth), the DPLL engine under every
//! heuristic × learning combination, and the CDCL and cube-and-conquer
//! engines — so a bug in any one of them shows up as a verdict
//! disagreement with a reproducible seed. The proptest versions of these properties remain at
//! the bottom, gated behind `--features proptest-tests` (the dependency
//! needs network access to fetch; see `Cargo.toml`).

use modsyn_check::rng::SplitMix64;
use modsyn_par::CancelToken;
use modsyn_sat::{
    solve, solve_exhaustive, CnfFormula, Heuristic, Lit, Outcome, SolverOptions, Var,
};

/// Draws a random CNF: up to `max_vars` variables, up to 24 clauses of 1–3
/// literals. Small enough for `solve_exhaustive`, large enough to cover
/// empty formulas, unit clauses, tautological clauses and UNSAT cores.
fn random_cnf(rng: &mut SplitMix64, max_vars: usize) -> CnfFormula {
    let n = 1 + rng.below(max_vars);
    let mut f = CnfFormula::new(n);
    for _ in 0..rng.below(24) {
        let len = 1 + rng.below(3);
        f.add_clause(
            (0..len).map(|_| Lit::with_polarity(Var::new(rng.below(n)), rng.below(2) == 1)),
        );
    }
    f
}

#[test]
fn dpll_agrees_with_exhaustive_search_on_500_random_cnfs() {
    let mut rng = SplitMix64::new(0x5a7_d1ff);
    for case in 0..500 {
        let f = random_cnf(&mut rng, 8);
        let expected = solve_exhaustive(&f).is_sat();
        for heuristic in [
            Heuristic::FirstUnassigned,
            Heuristic::JeroslowWang,
            Heuristic::Moms,
            Heuristic::Activity,
        ] {
            for learning in [false, true] {
                let opts = SolverOptions {
                    heuristic,
                    learning,
                    ..SolverOptions::default()
                };
                let out = solve(&f, opts);
                assert_eq!(
                    out.is_sat(),
                    expected,
                    "case {case}: {heuristic:?} learning={learning} disagrees with brute force"
                );
                if let Outcome::Satisfiable(model) = out {
                    assert!(model.check(&f), "case {case}: model does not satisfy");
                }
            }
        }
    }
}

#[test]
fn cdcl_and_cnc_agree_with_exhaustive_search_on_500_random_cnfs() {
    use modsyn_cnc::{solve_with_engine, Engine};
    use modsyn_fault::Faults;

    let mut rng = SplitMix64::new(0xcdc1_cafe);
    for case in 0..500 {
        let f = random_cnf(&mut rng, 8);
        let expected = solve_exhaustive(&f).is_sat();
        for engine in [Engine::Cdcl, Engine::cnc()] {
            let (outcome, _) = solve_with_engine(
                engine,
                &f,
                SolverOptions::default(),
                &CancelToken::never(),
                &Faults::none(),
            );
            assert_eq!(
                outcome.is_sat(),
                expected,
                "case {case}: engine {engine} disagrees with brute force"
            );
            if let Outcome::Satisfiable(model) = outcome {
                assert!(
                    model.check(&f),
                    "case {case}: {engine} model does not satisfy"
                );
            }
        }
    }
}

/// The DIMACS writer and parser are mutual inverses on generated CNFs:
/// `parse(write(f))` reproduces `f` exactly (variable count, clause list,
/// literal order), not just an equisatisfiable formula.
#[test]
fn dimacs_round_trip_is_a_fixpoint_on_generated_cnfs() {
    use modsyn_sat::{parse_dimacs, write_dimacs};

    let mut rng = SplitMix64::new(0xd1_aac5);
    for case in 0..300 {
        let f = random_cnf(&mut rng, 9);
        let text = write_dimacs(&f);
        let parsed = parse_dimacs(&text)
            .unwrap_or_else(|e| panic!("case {case}: round-trip parse failed: {e}"));
        assert_eq!(parsed, f, "case {case}: parse∘write is not the identity");
        // A second trip is byte-stable: write∘parse∘write = write.
        assert_eq!(write_dimacs(&parsed), text, "case {case}: writer unstable");
    }
}

/// Malformed DIMACS inputs produce the *typed* errors the API promises —
/// never a panic, never a silently-wrong formula.
#[test]
fn dimacs_parser_rejects_malformed_documents_with_typed_errors() {
    use modsyn_sat::{parse_dimacs, SatError};

    // Missing or malformed headers.
    for input in [
        "",
        "1 2 0\n",
        "p\n",
        "p cnf\n",
        "p cnf x 2\n",
        "p dnf 2 2\n1 2 0\n",
        "p cnf -3 2\n",
    ] {
        match parse_dimacs(input) {
            Err(SatError::MalformedHeader { .. }) => {}
            other => panic!("{input:?}: expected MalformedHeader, got {other:?}"),
        }
    }
    // Unparsable literal tokens.
    for input in [
        "p cnf 2 1\n1 two 0\n",
        "p cnf 2 1\n1 2.5 0\n",
        "p cnf 2 1\n--1 0\n",
    ] {
        match parse_dimacs(input) {
            Err(SatError::MalformedLiteral { .. }) => {}
            other => panic!("{input:?}: expected MalformedLiteral, got {other:?}"),
        }
    }
    // Literals beyond the declared variable range, either polarity.
    for input in [
        "p cnf 2 1\n3 0\n",
        "p cnf 2 1\n1 -5 0\n",
        "p cnf 0 1\n1 0\n",
    ] {
        match parse_dimacs(input) {
            Err(SatError::VariableOutOfRange { .. }) => {}
            other => panic!("{input:?}: expected VariableOutOfRange, got {other:?}"),
        }
    }
    // Benign edge cases that must parse: comments anywhere, blank lines,
    // clauses spanning lines, and a trailing clause missing its 0.
    let f = parse_dimacs("c head\np cnf 3 2\n\n1 -2\n3 0\nc mid\n-1 -3\n").unwrap();
    assert_eq!(f.num_vars(), 3);
    assert_eq!(f.clause_count(), 2);
}

#[test]
fn exhaustive_model_satisfies_the_formula() {
    let mut rng = SplitMix64::new(7);
    for case in 0..100 {
        let f = random_cnf(&mut rng, 6);
        if let Outcome::Satisfiable(model) = solve_exhaustive(&f) {
            assert!(model.check(&f), "case {case}");
        }
    }
}

#[cfg(feature = "proptest-tests")]
mod proptests {
    use modsyn_sat::{
        parse_dimacs, solve, write_dimacs, CnfFormula, Heuristic, Lit, Outcome, SolverOptions, Var,
    };
    use proptest::prelude::*;

    /// Strategy: a random CNF over `n` variables as (var, polarity) clause
    /// lists.
    fn cnf_strategy(n: usize) -> impl Strategy<Value = CnfFormula> {
        proptest::collection::vec(
            proptest::collection::vec((0..n, proptest::bool::ANY), 1..4),
            0..24,
        )
        .prop_map(move |clauses| {
            let mut f = CnfFormula::new(n);
            for clause in clauses {
                f.add_clause(
                    clause
                        .into_iter()
                        .map(|(v, pol)| Lit::with_polarity(Var::new(v), pol)),
                );
            }
            f
        })
    }

    fn brute_force_sat(f: &CnfFormula) -> bool {
        let n = f.num_vars();
        (0u32..(1 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            f.evaluate(&assignment)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn solver_agrees_with_brute_force(f in cnf_strategy(6)) {
            let expected = brute_force_sat(&f);
            let out = solve(&f, SolverOptions::default());
            prop_assert_eq!(out.is_sat(), expected);
            if let Outcome::Satisfiable(model) = out {
                prop_assert!(model.check(&f));
            }
        }

        #[test]
        fn engines_and_heuristics_agree(f in cnf_strategy(6)) {
            let reference = solve(&f, SolverOptions::default()).is_sat();
            for heuristic in [
                Heuristic::FirstUnassigned,
                Heuristic::JeroslowWang,
                Heuristic::Moms,
                Heuristic::Activity,
            ] {
                for learning in [false, true] {
                    let opts = SolverOptions { heuristic, learning, ..Default::default() };
                    prop_assert_eq!(
                        solve(&f, opts).is_sat(),
                        reference,
                        "{:?} learning={}", heuristic, learning
                    );
                }
            }
        }

        #[test]
        fn dimacs_round_trip_preserves_formula(f in cnf_strategy(5)) {
            let text = write_dimacs(&f);
            let again = parse_dimacs(&text).unwrap();
            prop_assert_eq!(again.num_vars(), f.num_vars());
            prop_assert_eq!(again.clause_count(), f.clause_count());
            prop_assert_eq!(
                solve(&again, SolverOptions::default()).is_sat(),
                solve(&f, SolverOptions::default()).is_sat()
            );
        }
    }
}
