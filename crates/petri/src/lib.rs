//! Petri-net substrate for asynchronous circuit synthesis.
//!
//! This crate provides the bipartite-graph formalism underlying signal
//! transition graphs (STGs): a [`PetriNet`] is a set of *places* and
//! *transitions* connected by a flow relation, with dynamics given by
//! [`Marking`]s and the token-game firing rule.
//!
//! The API is deliberately index-based: [`PlaceId`] and [`TransitionId`] are
//! small copyable handles into the net, which keeps higher layers (state
//! graphs with hundreds of thousands of edges) cheap to build.
//!
//! # Example
//!
//! Build a two-transition cycle (a minimal live net) and enumerate its
//! reachable markings:
//!
//! ```
//! use modsyn_petri::{PetriNet, ReachabilityOptions};
//!
//! # fn main() -> Result<(), modsyn_petri::PetriError> {
//! let mut net = PetriNet::new();
//! let p0 = net.add_place("p0");
//! let p1 = net.add_place("p1");
//! let t0 = net.add_transition("t0");
//! let t1 = net.add_transition("t1");
//! net.add_arc_place_to_transition(p0, t0)?;
//! net.add_arc_transition_to_place(t0, p1)?;
//! net.add_arc_place_to_transition(p1, t1)?;
//! net.add_arc_transition_to_place(t1, p0)?;
//! net.set_initial_tokens(p0, 1)?;
//!
//! let reach = net.reachability(&ReachabilityOptions::default())?;
//! assert_eq!(reach.markings.len(), 2);
//! # Ok(())
//! # }
//! ```

mod analysis;
mod error;
mod ids;
mod liveness;
mod marking;
mod net;
mod reachability;

pub use analysis::{NetClass, StructuralReport};
pub use error::PetriError;
pub use ids::{PlaceId, TransitionId};
pub use liveness::LivenessReport;
pub use marking::Marking;
pub use net::{PetriNet, Place, Transition};
pub use reachability::{ReachabilityGraph, ReachabilityOptions, ReachedEdge};
