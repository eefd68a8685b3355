//! Engine selection: one dispatch point the synthesis loop and the CLIs
//! share, so "which SAT core answered" is a first-class, serialisable
//! option instead of a scatter of booleans.

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_sat::{CnfFormula, Outcome, Solver, SolverOptions, SolverStats};

use crate::cdcl::{Cdcl, CdclOptions};
use crate::conquer::{solve_cnc_traced, CncOptions};
use crate::cube::CubeOptions;

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
    /// Lookahead cube-and-conquer over the CDCL core on a worker pool.
    Cnc {
        /// Maximum cube depth (≤ `2^depth` cubes).
        depth: u32,
        /// Free-variable cutoff below which a branch stops splitting.
        cutoff: u32,
        /// Conquer workers; 0 = all available cores.
        jobs: u32,
    },
}

impl Engine {
    /// The cube-and-conquer engine with default cube shape.
    pub fn cnc() -> Engine {
        let cube = CubeOptions::default();
        Engine::Cnc {
            depth: cube.depth,
            cutoff: cube.cutoff,
            jobs: 0,
        }
    }

    /// Parses a CLI engine name (`dpll`, `cdcl`, `cnc`).
    pub fn parse(name: &str) -> Result<Engine, String> {
        match name {
            "dpll" => Ok(Engine::Dpll),
            "cdcl" => Ok(Engine::Cdcl),
            "cnc" => Ok(Engine::cnc()),
            other => Err(format!(
                "unknown engine {other:?} (expected dpll, cdcl or cnc)"
            )),
        }
    }

    /// Stable name for fingerprints, traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Dpll => "dpll",
            Engine::Cdcl => "cdcl",
            Engine::Cnc { .. } => "cnc",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::Cnc {
                depth,
                cutoff,
                jobs,
            } => write!(f, "cnc(depth={depth},cutoff={cutoff},jobs={jobs})"),
            other => f.write_str(other.name()),
        }
    }
}

/// Solves `formula` with the selected engine under the caller's tracer,
/// cancel token and fault handle.
///
/// `solver` carries the shared limits: `max_backtracks` maps onto the CDCL
/// core's conflict budget and cube-and-conquer's *per-cube* conflict
/// budget; `heuristic`/`learning` only affect [`Engine::Dpll`].
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
                    max_decisions: solver.max_decisions,
                },
            )
            .with_cancel(cancel.clone())
            .with_faults(faults.clone());
            let outcome = s.solve_traced(tracer);
            (outcome, s.stats())
        }
        Engine::Cnc {
            depth,
            cutoff,
            jobs,
        } => {
            let options = CncOptions {
                cube: CubeOptions {
                    depth,
                    cutoff,
                    ..CubeOptions::default()
                },
                jobs: jobs as usize,
                max_conflicts: solver.max_backtracks,
                max_decisions: solver.max_decisions,
            };
            let result = solve_cnc_traced(formula, &options, cancel, faults, tracer);
            (result.outcome, result.stats)
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
        assert_eq!(Engine::parse("cnc").unwrap().name(), "cnc");
        assert!(Engine::parse("brute").is_err());
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
        for engine in [Engine::Dpll, Engine::Cdcl, Engine::cnc()] {
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

    #[test]
    fn display_includes_cnc_shape() {
        assert_eq!(Engine::Cdcl.to_string(), "cdcl");
        assert_eq!(
            Engine::Cnc {
                depth: 3,
                cutoff: 10,
                jobs: 2
            }
            .to_string(),
            "cnc(depth=3,cutoff=10,jobs=2)"
        );
    }
}
