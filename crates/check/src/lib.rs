//! An independent synthesis oracle and random-STG test harness.
//!
//! Everything else in this workspace *produces* synthesis results; this
//! crate *certifies* them, and deliberately shares no machinery with the
//! code it checks (following Verbeek & Schmaltz's separate-checker
//! discipline). It depends only on the passive data types — [`modsyn_stg`]
//! for STGs, [`modsyn_sg::StateGraph`] for solved graphs — and re-implements
//! every judgement from the definitions:
//!
//! * [`check_consistency`] — every edge fires its signal from the right
//!   value and toggles exactly that code bit (so +/- strictly alternate
//!   along every path),
//! * [`check_usc`] / [`check_csc`] — unique / complete state coding over
//!   the reachable states,
//! * [`check_speed_independence`] — the derived gate netlist, run in
//!   closed loop with the specification under the unbounded-gate-delay
//!   model, conforms and never withdraws a pending output excitation,
//! * [`check_equivalence`] — weak bisimilarity of two graphs after hiding
//!   internal (inserted state) signals,
//! * [`verify_solution`] — the conjunction a solved result must satisfy.
//!
//! For differential testing, [`gen_stg`] draws live safe free-choice STGs
//! from a seeded grammar ([`gen`] module docs) with [`StgRecipe::shrink`]
//! for minimisation, drawing from the workspace's one deterministic PRNG,
//! [`modsyn_fault::SplitMix64`].
//!
//! # Example
//!
//! ```
//! use modsyn_check::{check_consistency, check_csc, gen_stg, Profile};
//! use modsyn_sg::{derive, DeriveOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let stg = gen_stg(7, Profile::Small);
//! let sg = derive(&stg, &DeriveOptions::default())?;
//! check_consistency(&sg)?; // the token game must be consistent
//! let _ = check_csc(&sg); // may legitimately fail before resolution
//! # Ok(())
//! # }
//! ```

mod equiv;
mod error;
pub mod gen;
mod oracle;
mod speed;

pub use equiv::check_equivalence;
pub use error::CheckError;
pub use gen::{gen_recipe, gen_stg, GenPhase, Profile, StgRecipe};
pub use oracle::{check_consistency, check_csc, check_usc};
pub use speed::{check_speed_independence, GateNetlist, SopFn, SopLiteral};

use modsyn_sg::StateGraph;

/// Certifies one complete synthesis result: the solved graph must be
/// consistent and satisfy CSC, the gate netlist must be speed-independent
/// against it, and — when the unsolved specification graph is supplied —
/// the solved graph must be observation-equivalent to it after hiding the
/// inserted signals.
///
/// # Errors
///
/// The first failing judgement's [`CheckError`].
pub fn verify_solution(
    specification: Option<&StateGraph>,
    solved: &StateGraph,
    netlist: &GateNetlist,
) -> Result<(), CheckError> {
    check_consistency(solved)?;
    check_csc(solved)?;
    check_speed_independence(netlist, solved)?;
    if let Some(spec) = specification {
        check_equivalence(spec, solved)?;
    }
    Ok(())
}
