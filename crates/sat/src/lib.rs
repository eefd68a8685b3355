//! A DPLL branch-and-bound SAT solver.
//!
//! This crate is the stand-in for the Stephan/Brayton branch-and-bound SAT
//! program shipped with SIS, which the paper used to solve its CSC
//! constraint formulas. It provides:
//!
//! * [`CnfFormula`] — product-of-sums formulas over [`Var`]/[`Lit`],
//! * [`Solver`] — iterative DPLL with two-watched-literal propagation,
//!   chronological backtracking and selectable decision [`Heuristic`]s,
//! * a configurable **backtrack limit** ([`SolverOptions::max_backtracks`]),
//!   reproducing the paper's "SAT Backtrack Limit" aborts on the direct
//!   (no-decomposition) method,
//! * DIMACS import/export for interoperability.
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

mod cnf;
mod dimacs;
mod error;
mod exhaustive;
mod heuristic;
mod lit;
mod model;
mod poll;
mod solver;
mod stats;

pub use cnf::{Clause, CnfFormula};
pub use dimacs::{parse_dimacs, write_dimacs};
pub use error::SatError;
pub use exhaustive::{solve_exhaustive, EXHAUSTIVE_VAR_LIMIT};
pub use heuristic::Heuristic;
pub use lit::{Lit, Var};
pub use model::Model;
pub use poll::SearchPoll;
pub use solver::{solve, Outcome, Solver, SolverOptions};
pub use stats::SolverStats;
