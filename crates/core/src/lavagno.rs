//! The Lavagno/Moon et al. [13]-style comparator.
//!
//! The original solves state assignment at the state-graph level via an FSM
//! flow table, state minimisation and a **critical-race-free** assignment,
//! and is restricted to live safe free-choice STGs. This stand-in keeps
//! those observable characteristics:
//!
//! * it rejects non-free-choice STGs ([`SynthesisError::NotFreeChoice`]),
//!   like `astg_syn` on `alex-nonfc`;
//! * it solves the **global** problem (no decomposition), with an added
//!   race-freedom restriction — at most one state signal may be in
//!   transition in any state — so some instances have no solution without
//!   state splitting and fail with
//!   [`SynthesisError::StateSplittingRequired`], the analogue of the SIS
//!   "internal state error" on `mmu0`/`pa`;
//! * it searches with the naive first-unassigned branching rule, modelling
//!   the older, less informed search.
//!
//! Each formula goes through the same engine dispatch as the other methods
//! ([`modsyn_sat::solve_with_engine_traced`], classic engine), so its
//! solves are observed the same way: `sat.solve` spans under a `lavagno`
//! span, and the `sat_*` histograms.

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_petri::NetClass;
use modsyn_sat::{solve_with_engine_traced, Engine, Heuristic, Lit, Outcome, SolverOptions};
use modsyn_sg::{insert_state_signals, StateGraph};
use modsyn_stg::Stg;

use crate::solve::CscOutcome;
use crate::{encode_csc, SynthesisError};

/// Options for the Lavagno-style flow.
#[derive(Debug, Clone, PartialEq)]
pub struct LavagnoOptions {
    /// Backtrack limit for the underlying search.
    pub max_backtracks: Option<u64>,
    /// How many state signals beyond the lower bound to try before
    /// declaring that state splitting would be required.
    pub extra_signals: usize,
    /// Cooperative cancellation, polled inside the search. Inert by
    /// default.
    pub cancel: CancelToken,
}

impl Default for LavagnoOptions {
    fn default() -> Self {
        LavagnoOptions {
            max_backtracks: None,
            extra_signals: 3,
            cancel: CancelToken::never(),
        }
    }
}

/// Runs the Lavagno-style global state-assignment flow under a `lavagno`
/// span; each formula's solve nests its `sat.solve` span there.
///
/// # Errors
///
/// * [`SynthesisError::NotFreeChoice`] for non-free-choice STGs,
/// * [`SynthesisError::StateSplittingRequired`] when no race-free
///   assignment exists within the signal cap,
/// * [`SynthesisError::BacktrackLimit`] if the search aborts.
pub fn lavagno_resolve(
    stg: &Stg,
    initial: &StateGraph,
    options: &LavagnoOptions,
    tracer: &Tracer,
) -> Result<CscOutcome, SynthesisError> {
    let _span = tracer.span("lavagno");
    // The theory stops at free choice: asymmetric-choice and general nets
    // are both outside it (`alex-nonfc` sits in the asymmetric tier).
    if stg.net().classify() > NetClass::FreeChoice {
        return Err(SynthesisError::NotFreeChoice);
    }
    let analysis = initial.csc_analysis();
    if analysis.satisfies_csc() {
        return Ok(CscOutcome::undecomposed(initial.clone(), &[], Vec::new()));
    }

    let start = std::time::Instant::now();
    // Naive fixed branching order, modelling the older, less informed
    // search; learning stays on so UNSAT verdicts terminate.
    let solver_options = SolverOptions {
        heuristic: Heuristic::FirstUnassigned,
        max_backtracks: options.max_backtracks,
        learning: true,
    };
    let mut formulas = Vec::new();
    let mut m = analysis.lower_bound.max(1);
    let cap = analysis.lower_bound.max(1) + options.extra_signals;

    while m <= cap {
        let mut encoding = encode_csc(initial, &analysis, m);
        // Race freedom: at most one state signal in transition per state.
        for s in 0..initial.state_count() {
            for k in 0..m {
                for l in k + 1..m {
                    encoding.formula.add_clause([
                        Lit::negative(encoding.a(s, k)),
                        Lit::negative(encoding.a(s, l)),
                    ]);
                }
            }
        }
        let (outcome, stats) = solve_with_engine_traced(
            Engine::Dpll,
            &encoding.formula,
            solver_options,
            &options.cancel,
            &Faults::none(),
            tracer,
        );
        formulas.push(encoding.stat(outcome.is_sat(), stats));
        match outcome {
            Outcome::Satisfiable(model) => {
                let assignments = encoding.decode(&model, "st", 0);
                let graph = insert_state_signals(initial, &assignments)?;
                debug_assert!(graph.csc_analysis().satisfies_csc());
                return Ok(CscOutcome::undecomposed(graph, &assignments, formulas));
            }
            Outcome::Unsatisfiable => m += 1,
            Outcome::BacktrackLimit => {
                return Err(SynthesisError::BacktrackLimit {
                    state_signals: m,
                    elapsed: start.elapsed().as_secs_f64(),
                });
            }
            Outcome::Aborted => {
                return Err(SynthesisError::Aborted {
                    elapsed: start.elapsed().as_secs_f64(),
                });
            }
        }
    }
    Err(SynthesisError::StateSplittingRequired)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    #[test]
    fn non_free_choice_is_rejected() {
        let stg = benchmarks::alex_nonfc();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        assert_eq!(
            lavagno_resolve(&stg, &sg, &LavagnoOptions::default(), &Tracer::disabled()).map(|_| ()),
            Err(SynthesisError::NotFreeChoice)
        );
    }

    #[test]
    fn solves_small_free_choice_benchmarks() {
        for name in ["vbe-ex1", "vbe-ex2", "sendr-done"] {
            let stg = benchmarks::by_name(name).unwrap();
            let sg = derive(&stg, &DeriveOptions::default()).unwrap();
            let out = lavagno_resolve(&stg, &sg, &LavagnoOptions::default(), &Tracer::disabled())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.graph.csc_analysis().satisfies_csc(), "{name}");
        }
    }

    #[test]
    fn race_freedom_limits_concurrent_insertion() {
        // nouse needs two signals; with the race-free restriction they may
        // not be excited simultaneously — the flow must still find some
        // solution or report the splitting error, never panic.
        let stg = benchmarks::nouse();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        match lavagno_resolve(&stg, &sg, &LavagnoOptions::default(), &Tracer::disabled()) {
            Ok(out) => assert!(out.graph.csc_analysis().satisfies_csc()),
            Err(SynthesisError::StateSplittingRequired) => {}
            Err(e) => panic!("unexpected: {e}"),
        }
    }
}
