//! Two-level logic minimisation, in the style of espresso.
//!
//! The paper measures implementation area as the **literal count of the
//! unfactored prime-irredundant cover** produced by `espresso -Dso -S1`.
//! This crate reimplements the required machinery from scratch:
//!
//! * [`Cube`] — positional-cube representation of a product term,
//! * [`Cover`] — sums of products with cofactor / tautology / complement /
//!   containment operations (the classic unate-recursive paradigm),
//! * the espresso loop — [`expand`], [`irredundant`], [`reduce`] — driven by
//!   [`minimize`], which returns a prime and irredundant cover,
//! * [`Sop`] — pretty-printing with named inputs and literal counting.
//!
//! # Example
//!
//! Minimise `f = a·b + a·b'` (which collapses to `a`):
//!
//! ```
//! use modsyn_logic::{minimize, Cover, Cube};
//!
//! let on = Cover::from_cubes(2, vec![
//!     Cube::from_literals(2, &[(0, true), (1, true)]),
//!     Cube::from_literals(2, &[(0, true), (1, false)]),
//! ]);
//! let dc = Cover::empty(2);
//! let result = minimize(&on, &dc);
//! assert_eq!(result.cover.cube_count(), 1);
//! assert_eq!(result.cover.literal_count(), 1);
//! ```

mod complement;
mod cover;
mod cube;
mod error;
mod espresso;
mod exact;
mod gatesim;
mod hazard;
mod multi;
mod pla;
mod sop;
mod tautology;
mod unate;

pub use complement::complement;
pub use cover::Cover;
pub use cube::Cube;
pub use error::LogicError;
pub use espresso::{expand, irredundant, minimize, minimize_traced, reduce, MinimizeResult};
pub use exact::{minimize_exact, ExactLimits};
pub use gatesim::{simulate_cover, DelayModel, OutputEvent, SimulationTrace};
pub use hazard::{static_hazards, HazardReport};
pub use multi::{minimize_multi, MultiCover, MultiCube};
pub use pla::{parse_pla, write_pla};
pub use sop::Sop;
pub use tautology::is_tautology;
