//! The SAT layer: formulas, both search cores, and the one engine
//! dispatch every CSC formula goes through.
//!
//! The classic engine is the stand-in for the Stephan/Brayton
//! branch-and-bound SAT program shipped with SIS, which the paper used to
//! solve its CSC constraint formulas. The crate provides:
//!
//! * [`CnfFormula`] — product-of-sums formulas over [`Var`]/[`Lit`],
//! * [`Solver`] — the classic engine: one iterative DPLL loop with
//!   two-watched-literal propagation, light clause learning (or
//!   chronological backtracking) and three decision [`Heuristic`]s,
//! * a configurable **backtrack limit** ([`SolverOptions::max_backtracks`]),
//!   reproducing the paper's "SAT Backtrack Limit" aborts on the direct
//!   (no-decomposition) method,
//! * [`Cdcl`] — the default core: conflict-driven clause learning with
//!   blocker lists, 1-UIP analysis with deep clause minimisation,
//!   heap-backed VSIDS, LBD-aware clause-database reduction with glue
//!   protection, Luby restarts, phase saving, and assumptions,
//! * [`Engine`] / [`solve_with_engine_traced`] — the dispatch point the
//!   synthesis loop and the `modsat`/`modsyn` CLIs share, and the one
//!   place a solve is observed (the `sat.solve` span, flight span,
//!   counters and `sat_*` histograms),
//! * DIMACS import/export for interoperability, and the exhaustive
//!   reference decider the property tests check both cores against.
//!
//! Both cores keep their assignment on one trail, draw decisions from one
//! indexed activity heap, each under its own comparison, and share one
//! cancel and fault poll: the cancel token and the `sat.abort` /
//! `sat.conflict-storm` sites are read every 256 search-loop iterations,
//! so chaos plans cover either core.
//!
//! # Example
//!
//! ```
//! use modsyn_sat::{CnfFormula, Lit, Outcome, Solver, SolverOptions, Var};
//!
//! let mut f = CnfFormula::new(2);
//! let a = Var::new(0);
//! let b = Var::new(1);
//! f.add_clause([Lit::positive(a), Lit::positive(b)]);
//! f.add_clause([Lit::negative(a)]);
//!
//! let mut solver = Solver::new(&f, SolverOptions::default());
//! match solver.solve() {
//!     Outcome::Satisfiable(model) => {
//!         assert!(!model.value(a));
//!         assert!(model.value(b));
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

mod cdcl;
mod cnf;
mod dimacs;
mod engine;
mod error;
mod exhaustive;
mod heap;
mod heuristic;
mod lit;
mod model;
mod poll;
mod solver;
mod stats;
mod trail;

pub use cdcl::Cdcl;
pub use cnf::{Clause, CnfFormula};
pub use dimacs::{parse_dimacs, write_dimacs};
pub use engine::{solve_with_engine, solve_with_engine_traced, Engine};
pub use error::SatError;
pub use exhaustive::{solve_exhaustive, EXHAUSTIVE_VAR_LIMIT};
pub use heuristic::Heuristic;
pub use lit::{Lit, Var};
pub use model::Model;
pub use solver::{solve, Outcome, Solver, SolverOptions};
pub use stats::SolverStats;

/// PHP(holes + 1, holes): unsatisfiable, and it needs real search.
/// Variable `p * holes + h` puts pigeon `p` in hole `h`.
#[cfg(test)]
fn pigeonhole(holes: usize) -> CnfFormula {
    let pigeons = holes + 1;
    let mut f = CnfFormula::new(pigeons * holes);
    let var = |p: usize, h: usize| Var::new(p * holes + h);
    for p in 0..pigeons {
        f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
    }
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in p1 + 1..pigeons {
                f.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
            }
        }
    }
    f
}
