//! Signal transition graphs (STGs) for asynchronous circuit synthesis.
//!
//! An STG (Chu, 1987) is a Petri net whose transitions are interpreted as
//! rising (`s+`) and falling (`s-`) edges of interface signals. This crate
//! provides:
//!
//! * the [`Stg`] type on top of [`modsyn_petri`],
//! * the [`StgBuilder`]/[`Frag`] combinator DSL for building live, safe,
//!   cyclic STGs,
//! * [`parse_g`]/[`write_g`] for the `.g` (astg) interchange format used by
//!   SIS and petrify,
//! * structural validation, and
//! * the [`benchmarks`] module with synthetic stand-ins for the paper's 23
//!   Table-1 STGs.
//!
//! # Example
//!
//! ```
//! use modsyn_stg::{parse_g, SignalKind};
//!
//! # fn main() -> Result<(), modsyn_stg::StgError> {
//! let stg = parse_g("
//! .model celement
//! .inputs a b
//! .outputs c
//! .graph
//! a+ c+
//! b+ c+
//! c+ a- b-
//! a- c-
//! b- c-
//! c- a+ b+
//! .marking { <c-,a+> <c-,b+> }
//! .end
//! ")?;
//! assert_eq!(stg.signal_count(), 3);
//! assert_eq!(stg.find_signal("c").map(|s| stg.signal(s).kind()),
//!            Some(SignalKind::Output));
//! # Ok(())
//! # }
//! ```

pub mod benchmarks;
mod digest;
mod dsl;
mod error;
mod parser;
mod signal;
mod stg;
mod validate;
mod writer;

pub use digest::{combined_module_digest, module_digest, output_module_digests, stg_digest};
pub use dsl::{Frag, StgBuilder};
pub use error::StgError;
pub use parser::{parse_g, parse_g_traced};
pub use signal::{Polarity, SignalId, SignalKind, TransitionLabel};
pub use stg::{SignalInfo, Stg};
pub use validate::StgReport;
pub use writer::write_g;
