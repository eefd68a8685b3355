//! State graphs for STG-based asynchronous circuit synthesis.
//!
//! A *state graph* is the finite automaton obtained by exhaustively firing
//! an STG's token game; every state carries a binary code over the STG's
//! signals (the consistent state assignment). This crate implements the
//! machinery the paper's Section 2 and 3 rely on:
//!
//! * [`StateGraph`] — states, codes and labelled edges ([`derive()`] builds
//!   one from an [`modsyn_stg::Stg`], enforcing consistency),
//! * [`CscAnalysis`] — USC/CSC conflict detection, `Max_csc` and the
//!   state-signal lower bound,
//! * [`StateGraph::hide_signals`] — ε-labelling and state merging, the
//!   modular-state-graph construction of Section 3.3, and
//!   [`HidingScorer`], which scores hiding trials without building it,
//! * [`insert_state_signals`] — state splitting that realises a 4-valued
//!   state-signal assignment ({0, 1, Up, Down}) as real transitions,
//! * semi-modularity checking.
//!
//! # Example
//!
//! ```
//! use modsyn_sg::{derive, DeriveOptions};
//! use modsyn_stg::benchmarks;
//!
//! # fn main() -> Result<(), modsyn_sg::SgError> {
//! let stg = benchmarks::vbe_ex1();
//! let sg = derive(&stg, &DeriveOptions::default())?;
//! assert_eq!(sg.state_count(), 6);
//! let csc = sg.csc_analysis();
//! assert!(!csc.csc_pairs.is_empty(), "vbe-ex1 has a CSC conflict");
//! # Ok(())
//! # }
//! ```

mod bisim;
mod csc;
mod derive;
mod dot;
mod error;
mod expand;
mod graph;
mod quotient;
mod semimod;

pub use bisim::bisimilar;
pub use csc::CscAnalysis;
pub use derive::{derive, derive_traced, DeriveOptions};
pub use dot::to_dot;
pub use error::SgError;
pub use expand::{insert_state_signals, Quat, StateSignalAssignment};
pub use graph::{Edge, EdgeLabel, SignalMeta, StateGraph};
pub use quotient::{HidingScore, HidingScorer, Quotient};
pub use semimod::SemiModularityReport;
