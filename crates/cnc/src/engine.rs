//! Engine selection: one dispatch point the synthesis loop and the CLIs
//! share, so "which SAT core answered" is a first-class, serialisable
//! option instead of a scatter of booleans.

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_sat::{CnfFormula, Outcome, Solver, SolverOptions, SolverStats};

use crate::cdcl::{Cdcl, CdclOptions};

/// Which SAT core decides the CSC formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The classic `modsyn-sat` engine (CDCL-light with learning, or pure
    /// chronological branch-and-bound per `SolverOptions::learning`) — the
    /// paper-faithful baseline and ablation reference.
    Dpll,
    /// The `modsyn-cnc` CDCL core: heap VSIDS, deep clause minimisation,
    /// LBD-aware deletion, Luby restarts. The default.
    #[default]
    Cdcl,
}

impl Engine {
    /// Parses a CLI engine name (`dpll`, `cdcl`).
    pub fn parse(name: &str) -> Result<Engine, String> {
        match name {
            "dpll" => Ok(Engine::Dpll),
            "cdcl" => Ok(Engine::Cdcl),
            other => Err(format!("unknown engine {other:?} (expected dpll or cdcl)")),
        }
    }

    /// Stable name for fingerprints, traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Dpll => "dpll",
            Engine::Cdcl => "cdcl",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Solves `formula` with the selected engine under the caller's tracer,
/// cancel token and fault handle.
///
/// `solver` carries the shared limit: `max_backtracks` maps onto the CDCL
/// core's conflict budget; `heuristic`/`learning` only affect
/// [`Engine::Dpll`].
pub fn solve_with_engine_traced(
    engine: Engine,
    formula: &CnfFormula,
    solver: SolverOptions,
    cancel: &CancelToken,
    faults: &Faults,
    tracer: &Tracer,
) -> (Outcome, SolverStats) {
    match engine {
        Engine::Dpll => {
            let mut s = Solver::new(formula, solver)
                .with_cancel(cancel.clone())
                .with_faults(faults.clone());
            let outcome = s.solve_traced(tracer);
            (outcome, s.stats())
        }
        Engine::Cdcl => {
            let mut s = Cdcl::new(
                formula,
                CdclOptions {
                    max_conflicts: solver.max_backtracks,
                },
            )
            .with_cancel(cancel.clone())
            .with_faults(faults.clone());
            let outcome = s.solve_traced(tracer);
            (outcome, s.stats())
        }
    }
}

/// [`solve_with_engine_traced`] without observability.
pub fn solve_with_engine(
    engine: Engine,
    formula: &CnfFormula,
    solver: SolverOptions,
    cancel: &CancelToken,
    faults: &Faults,
) -> (Outcome, SolverStats) {
    solve_with_engine_traced(engine, formula, solver, cancel, faults, &Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sat::{Lit, Var};

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Engine::parse("dpll").unwrap(), Engine::Dpll);
        assert_eq!(Engine::parse("cdcl").unwrap(), Engine::Cdcl);
        for unknown in ["cnc", "brute"] {
            let err = Engine::parse(unknown).unwrap_err();
            assert!(err.contains("dpll") && err.contains("cdcl"), "{err}");
        }
    }

    fn tiny_sat() -> CnfFormula {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
        f.add_clause([Lit::negative(Var::new(0))]);
        f
    }

    #[test]
    fn all_engines_agree_on_a_tiny_formula() {
        let f = tiny_sat();
        for engine in [Engine::Dpll, Engine::Cdcl] {
            let (outcome, _) = solve_with_engine(
                engine,
                &f,
                SolverOptions::default(),
                &CancelToken::never(),
                &Faults::none(),
            );
            match outcome {
                Outcome::Satisfiable(m) => assert!(m.check(&f), "{engine}"),
                other => panic!("{engine}: {other:?}"),
            }
        }
    }
}
