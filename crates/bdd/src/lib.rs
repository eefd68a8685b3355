//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! This crate backs the BDD-based constraint-satisfaction extension the
//! paper points to in its conclusion ("the implementation area was further
//! reduced by developing a BDD based constraint satisfaction approach",
//! citing the authors' follow-up work). Unlike a SAT solver — which returns
//! *some* satisfying assignment — a BDD of the constraint formula supports
//! **minimum-cost** assignment extraction in one linear pass, so the CSC
//! layer can pick the insertion with the fewest excited states (smallest
//! expansion, least area).
//!
//! The manager is deliberately simple: an arena of `(var, lo, hi)` nodes
//! with a unique table, memoised `AND`/`OR`/`NOT`, conversion from
//! [`modsyn_sat::CnfFormula`], satisfying-assignment counting and
//! extraction, and a node budget that fails fast on blow-ups.
//!
//! # Example
//!
//! ```
//! use modsyn_bdd::BddManager;
//!
//! # fn main() -> Result<(), modsyn_bdd::BddError> {
//! let mut mgr = BddManager::new(2);
//! let a = mgr.var(0)?;
//! let b = mgr.var(1)?;
//! let f = mgr.or(a, b)?; // a ∨ b
//! assert_eq!(mgr.count_sat(f), 3);
//! let cheapest = mgr.min_cost_sat(f, &[(0.0, 5.0), (0.0, 1.0)]).unwrap();
//! assert_eq!(cheapest, vec![false, true]); // pay 1 for b, not 5 for a
//! # Ok(())
//! # }
//! ```

mod cnf;
mod error;
mod manager;
mod sat_ops;

pub use cnf::{build_from_cnf, build_from_cnf_traced};
pub use error::BddError;
pub use manager::{Bdd, BddManager};
