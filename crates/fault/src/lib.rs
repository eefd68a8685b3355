//! # modsyn-fault — deterministic fault injection for the synthesis stack
//!
//! The paper's headline failure mode is resource exhaustion (the direct
//! method aborts on `mr1` at the SAT backtrack limit), and a serving
//! deployment adds its own: synthesis panics, torn connections, cache
//! eviction storms. This crate is the *fault plane* the rest of the
//! workspace uses to prove it survives all of them without ever serving
//! a wrong or uncertified answer.
//!
//! Two pieces:
//!
//! - [`FaultPlan`] — inert, named, seeded data describing which
//!   [`site`]s fail, how often, and for how long. Plans parse from a
//!   compact spec (`sat.abort*2,svc.synth-panic@1/4`) so the chaos matrix
//!   and the `modsynd --faults` flag share one format; a spec naming a
//!   site outside [`site::ALL`] is rejected, not armed to never fire.
//! - [`Faults`] — the armed handle layers actually probe, built by
//!   [`FaultPlan::arm`]. It follows the `CancelToken` idiom: the
//!   default handle is `None` inside, so a probe on the nominal path is
//!   a single branch and the instrumented hot loops cost nothing when
//!   chaos is off. Decisions are drawn from per-site SplitMix64 streams
//!   (seed ⊕ FNV-1a(site)), so a plan's injection sequence is a pure
//!   function of the plan — chaos failures printed in CI replay locally.
//!   Layers probe it with [`Faults::fire`] (inject now?) and
//!   [`Faults::stall`] (stall now, and for how long?).
//!
//! This crate sits *below* everything else in the workspace graph (it
//! depends on nothing, not even `modsyn-obs`): the solver, service, store
//! and fleet all probe sites, so the fault plane cannot depend on any of
//! them. Layers that own tracers mirror injection counts into their own
//! metrics.

mod plan;
mod rng;

pub use plan::{site, FaultEvent, FaultPlan, FaultRule, Faults};
pub use rng::{fnv1a64, SplitMix64};
