//! The typed rejection taxonomy.
//!
//! Every way a synthesis method can decline an input is mapped onto a
//! closed, testable enum. The contract the corpus pipeline enforces is
//! three-valued: a method either *certifies* (oracle-verified result),
//! *rejects with a type* (one of the variants here — a legitimate class or
//! capacity boundary), or the run is a **violation** (panic, untyped
//! failure, oracle-refuted output). Out-of-theory probes must land on a
//! [class rejection](Rejection::is_class); in-theory cases may at worst hit
//! a [capacity rejection](Rejection::is_capacity) on the methods the paper
//! itself reports aborting (direct SAT limits, Lavagno state splitting).
//!
//! The serving layer's 422 responses carry the same [`Rejection::tag`], so
//! a rejection observed through the daemon and one observed in-process
//! compare equal in reports.

use modsyn_sg::SgError;

use crate::SynthesisError;

/// A typed rejection: every non-certifying, non-violating outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rejection {
    /// The net is outside the method's structural theory (beyond live safe
    /// free-choice) — the *expected* verdict for asymmetric-choice probes.
    BeyondFreeChoice,
    /// The SAT search hit its backtrack limit before a verdict.
    BacktrackLimit,
    /// No CSC assignment exists within the configured signal cap.
    NoSolution,
    /// The Lavagno-style flow would need state splitting.
    StateSplittingRequired,
    /// State-graph derivation exceeded its state budget.
    StateBudget,
    /// More signals than the packed state code supports.
    TooManySignals,
    /// The final graph still violates CSC after insertion.
    CscUnresolved,
    /// The run was cancelled before a verdict.
    Aborted,
    /// The supervised retry ladder ran out of rungs.
    Exhausted,
    /// Any other state-graph error (inconsistency, STG validation).
    StateGraph,
}

impl Rejection {
    /// Maps a [`SynthesisError`] onto the taxonomy. Total: every error a
    /// method can return has a typed rejection.
    pub fn of(error: &SynthesisError) -> Rejection {
        match error {
            SynthesisError::NotFreeChoice => Rejection::BeyondFreeChoice,
            SynthesisError::BacktrackLimit { .. } => Rejection::BacktrackLimit,
            SynthesisError::NoSolution { .. } => Rejection::NoSolution,
            SynthesisError::StateSplittingRequired => Rejection::StateSplittingRequired,
            SynthesisError::CscUnresolved { .. } => Rejection::CscUnresolved,
            SynthesisError::Aborted { .. } => Rejection::Aborted,
            SynthesisError::Exhausted { .. } => Rejection::Exhausted,
            SynthesisError::Sg(SgError::StateBudgetExceeded { .. }) => Rejection::StateBudget,
            SynthesisError::Sg(SgError::TooManySignals { .. }) => Rejection::TooManySignals,
            SynthesisError::Sg(_) => Rejection::StateGraph,
        }
    }

    /// Stable kebab-case tag: the corpus reports' rejection names and the
    /// `error` field of the daemon's 422 bodies.
    pub fn tag(&self) -> &'static str {
        match self {
            Rejection::BeyondFreeChoice => "not-free-choice",
            Rejection::BacktrackLimit => "backtrack-limit",
            Rejection::NoSolution => "no-solution",
            Rejection::StateSplittingRequired => "state-splitting-required",
            Rejection::StateBudget => "state-budget",
            Rejection::TooManySignals => "too-many-signals",
            Rejection::CscUnresolved => "csc-unresolved",
            Rejection::Aborted => "aborted",
            Rejection::Exhausted => "exhausted",
            Rejection::StateGraph => "state-graph",
        }
    }

    /// A structural-class rejection: the one verdict out-of-theory probes
    /// must receive from theory-scoped methods.
    pub fn is_class(&self) -> bool {
        matches!(self, Rejection::BeyondFreeChoice)
    }

    /// A capacity rejection: resource/solvability boundaries the paper's
    /// own Table 1 reports for the comparators (never acceptable as a
    /// *class* verdict, but legitimate for in-theory cases on the
    /// restricted methods).
    pub fn is_capacity(&self) -> bool {
        matches!(
            self,
            Rejection::BacktrackLimit
                | Rejection::NoSolution
                | Rejection::StateSplittingRequired
                | Rejection::StateBudget
                | Rejection::TooManySignals
        )
    }

    /// Every taxonomy variant, for exhaustiveness tests.
    pub fn all() -> [Rejection; 10] {
        [
            Rejection::BeyondFreeChoice,
            Rejection::BacktrackLimit,
            Rejection::NoSolution,
            Rejection::StateSplittingRequired,
            Rejection::StateBudget,
            Rejection::TooManySignals,
            Rejection::CscUnresolved,
            Rejection::Aborted,
            Rejection::Exhausted,
            Rejection::StateGraph,
        ]
    }
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_synthesis_error_maps_to_a_type() {
        let cases: Vec<(SynthesisError, Rejection)> = vec![
            (SynthesisError::NotFreeChoice, Rejection::BeyondFreeChoice),
            (
                SynthesisError::BacktrackLimit {
                    state_signals: 2,
                    elapsed: 0.1,
                },
                Rejection::BacktrackLimit,
            ),
            (
                SynthesisError::NoSolution { max_signals: 5 },
                Rejection::NoSolution,
            ),
            (
                SynthesisError::StateSplittingRequired,
                Rejection::StateSplittingRequired,
            ),
            (
                SynthesisError::CscUnresolved {
                    remaining_conflicts: 1,
                },
                Rejection::CscUnresolved,
            ),
            (SynthesisError::Aborted { elapsed: 0.2 }, Rejection::Aborted),
            (
                SynthesisError::Exhausted {
                    attempts: Vec::new(),
                },
                Rejection::Exhausted,
            ),
            (
                SynthesisError::Sg(SgError::StateBudgetExceeded { budget: 10 }),
                Rejection::StateBudget,
            ),
            (
                SynthesisError::Sg(SgError::TooManySignals { requested: 70 }),
                Rejection::TooManySignals,
            ),
            (
                SynthesisError::Sg(SgError::Inconsistent {
                    signal: "x".into(),
                    detail: "d".into(),
                }),
                Rejection::StateGraph,
            ),
        ];
        for (error, expected) in cases {
            assert_eq!(Rejection::of(&error), expected, "{error}");
        }
    }

    #[test]
    fn tags_are_unique_and_stable() {
        let all = Rejection::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.tag(), b.tag());
            }
        }
        assert_eq!(Rejection::BeyondFreeChoice.tag(), "not-free-choice");
        assert_eq!(Rejection::BacktrackLimit.tag(), "backtrack-limit");
        assert_eq!(
            Rejection::StateSplittingRequired.tag(),
            "state-splitting-required"
        );
    }

    #[test]
    fn class_and_capacity_partition_sensibly() {
        assert!(Rejection::BeyondFreeChoice.is_class());
        assert!(!Rejection::BeyondFreeChoice.is_capacity());
        for r in Rejection::all() {
            assert!(
                !(r.is_class() && r.is_capacity()),
                "{r}: class and capacity overlap"
            );
        }
        assert!(Rejection::BacktrackLimit.is_capacity());
        assert!(!Rejection::Aborted.is_capacity());
    }
}
