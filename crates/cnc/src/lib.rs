//! Cube-and-conquer SAT subsystem: a modern CDCL core plus a lookahead
//! cuber that decomposes hard CSC instances into independently solvable
//! cubes for the `modsyn-par` worker pool.
//!
//! The paper's direct (no-decomposition) method deliberately reproduces
//! the 1994 experience: its monolithic CSC formulas blow the SAT backtrack
//! limit. This crate is the modern counterpoint (ROADMAP item 1, grounded
//! in Kondratiev/Gribanova/Semenov's parallel CircuitSAT decomposition):
//!
//! * [`Cdcl`] — conflict-driven clause learning with two-watched-literal
//!   propagation (blocker lists), 1-UIP analysis with deep clause
//!   minimisation, heap-backed VSIDS, LBD-aware clause-database reduction
//!   with glue protection, Luby restarts, phase saving, and assumptions;
//! * [`cube_formula`] — a measured-reduction lookahead cuber with failed
//!   literal detection;
//! * [`solve_cnc`] — the conquer stage on a [`modsyn_par::WorkerPool`]
//!   with a deterministic lowest-index-SAT aggregation contract
//!   (DESIGN.md §15);
//! * [`Engine`] / [`solve_with_engine_traced`] — the dispatch point the
//!   synthesis loop and the `modsat`/`modsyn` CLIs share.
//!
//! Everything honours the workspace-wide cancellation and fault
//! discipline: cancel tokens are polled every few hundred propagations,
//! and the `sat.abort` / `sat.conflict-storm` sites are probed at the same
//! cadence, so existing chaos plans cover this core unchanged.

mod cdcl;
mod conquer;
mod cube;
mod engine;

pub use cdcl::{Cdcl, CdclExtra, CdclOptions};
pub use conquer::{solve_cnc, solve_cnc_traced, CncOptions, CncResult};
pub use cube::{cube_formula, CubeOptions, CubeSet};
pub use engine::{solve_with_engine, solve_with_engine_traced, Engine};
