//! Brute-force reference solver for differential testing.

use crate::{CnfFormula, Model, Outcome};

/// Largest variable count [`solve_exhaustive`] accepts (2²⁰ assignments).
pub const EXHAUSTIVE_VAR_LIMIT: usize = 20;

/// Decides satisfiability by enumerating every assignment.
///
/// This is the *reference* semantics every SAT engine is differentially
/// tested against: ~15 lines with no propagation, no heuristics and no
/// early exits beyond clause evaluation, so a bug here is very unlikely to
/// coincide with a bug there. Returns the
/// lexicographically first model (variable 0 is the least-significant bit)
/// or [`Outcome::Unsatisfiable`].
///
/// # Panics
///
/// Panics if the formula has more than [`EXHAUSTIVE_VAR_LIMIT`] variables —
/// call sites are expected to keep differential inputs small, and a silent
/// 2ⁿ loop beyond that is a hang, not an answer.
pub fn solve_exhaustive(formula: &CnfFormula) -> Outcome {
    let n = formula.num_vars();
    assert!(
        n <= EXHAUSTIVE_VAR_LIMIT,
        "solve_exhaustive: {n} variables exceeds the {EXHAUSTIVE_VAR_LIMIT}-variable limit"
    );
    for bits in 0u64..1 << n {
        let assignment: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
        if formula.evaluate(&assignment) {
            return Outcome::Satisfiable(Model::from_values(assignment));
        }
    }
    Outcome::Unsatisfiable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    #[test]
    fn finds_the_first_model() {
        let mut f = CnfFormula::new(2);
        let (a, b) = (Var::new(0), Var::new(1));
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        f.add_clause([Lit::negative(a)]);
        match solve_exhaustive(&f) {
            Outcome::Satisfiable(m) => {
                assert!(!m.value(a));
                assert!(m.value(b));
                assert!(m.check(&f));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn detects_unsat() {
        let mut f = CnfFormula::new(1);
        let a = Var::new(0);
        f.add_clause([Lit::positive(a)]);
        f.add_clause([Lit::negative(a)]);
        assert!(matches!(solve_exhaustive(&f), Outcome::Unsatisfiable));
    }

    #[test]
    fn empty_formula_is_trivially_sat() {
        let f = CnfFormula::new(0);
        assert!(matches!(solve_exhaustive(&f), Outcome::Satisfiable(_)));
    }

    #[test]
    #[should_panic(expected = "variable limit")]
    fn refuses_oversized_formulas() {
        solve_exhaustive(&CnfFormula::new(EXHAUSTIVE_VAR_LIMIT + 1));
    }
}
