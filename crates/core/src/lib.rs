//! Modular partitioning for asynchronous circuit synthesis.
//!
//! A from-scratch reproduction of **Puri & Gu, "A Modular Partitioning
//! Approach for Asynchronous Circuit Synthesis" (DAC 1994)**. Given a
//! signal transition graph, the library resolves Complete State Coding by
//! partitioning the state graph into small per-output *modules* (paper
//! Section 3), solving a tiny SAT-CSC instance per module, propagating the
//! state-signal assignments back, expanding the graph, and finally deriving
//! prime-irredundant two-level logic.
//!
//! Two comparators are included for the Table-1 reproduction: the direct
//! (no decomposition) flow of Vanbekbergen et al. and a Lavagno/Moon-style
//! state-table flow.
//!
//! # Quickstart
//!
//! ```
//! use modsyn::{synthesize, Method, SynthesisOptions};
//! use modsyn_stg::benchmarks;
//!
//! # fn main() -> Result<(), modsyn::SynthesisError> {
//! let stg = benchmarks::vbe_ex1();
//! let report = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular))?;
//! println!(
//!     "{}: {} -> {} signals, {} literals in {:.3}s",
//!     report.benchmark,
//!     report.initial_signals,
//!     report.final_signals(),
//!     report.literals,
//!     report.cpu_seconds,
//! );
//! # Ok(())
//! # }
//! ```

mod checker;
mod circuit;
mod direct;
mod encode;
mod error;
mod input_set;
mod lavagno;
mod logic_fn;
mod modular;
mod netlist;
mod reject;
mod retry;
mod solve;
mod synth;

pub use checker::{certify_report, gate_netlist};
pub use circuit::{hazard_report, remove_static_hazards, HazardSummary};
pub use direct::direct_resolve_traced;
pub use encode::{encode_csc, encode_csc_partial, Encoding};
pub use error::SynthesisError;
pub use input_set::{determine_input_set, determine_input_set_traced, immediate_inputs, InputSet};
pub use lavagno::{lavagno_resolve, LavagnoOptions};
pub use logic_fn::{
    derive_logic, derive_logic_jobs_traced, derive_logic_shared, total_literals, verify_logic,
    MinimizeMode, SignalFunction,
};
pub use modular::{modular_resolve, modular_resolve_jobs_traced, ModuleReport};
pub use netlist::to_verilog;
pub use reject::Rejection;
pub use retry::{
    escalation_ladder, synthesize_with_retry, synthesize_with_retry_traced, Attempt, RetryOutcome,
    RetryPolicy,
};
pub use solve::{solve_csc_scoped_traced, CscOutcome, CscSolution, CscSolveOptions, ResolveScope};
pub use synth::{synthesize, synthesize_traced, Method, SynthesisOptions, SynthesisReport};

/// Re-exported so callers selecting a SAT engine (`modsyn --engine`,
/// `modsat --engine`) need not depend on `modsyn-cnc` directly.
pub use modsyn_cnc::Engine;

// Store types surfaced through the options/report API, re-exported so
// callers need not depend on modsyn-store directly. `FormulaStat` is the
// one per-formula record: reports carry it and the store replays it.
pub use modsyn_store::{
    ClauseFamilies, FormulaStat, Provenance, StoreLink, StoreSession, SynthStore,
};
