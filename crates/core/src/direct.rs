//! The direct (no-decomposition) comparator — Vanbekbergen et al. [22].
//!
//! The same SAT-CSC encoding as the modular flow, but applied to the
//! complete state graph in one formula. On large benchmarks the formula
//! explodes and the branch-and-bound solver aborts at its backtrack limit,
//! exactly as Table 1 reports.

use modsyn_obs::Tracer;
use modsyn_sg::{insert_state_signals, StateGraph};

use crate::solve::{solve_csc_scoped_traced, CscOutcome, CscSolveOptions, ResolveScope};
use crate::SynthesisError;

/// Solves the CSC problem on the complete state graph in one SAT instance
/// per signal count, under a `direct` observability span: the complete
/// graph's size as gauges plus the nested `csc.attempt` spans (one big
/// formula each — the contrast with the modular `module:*` spans).
///
/// # Errors
///
/// * [`SynthesisError::BacktrackLimit`] when the solver aborts (the
///   expected outcome on the paper's large rows),
/// * [`SynthesisError::Aborted`] when `options.cancel` fires,
/// * [`SynthesisError::NoSolution`] / [`SynthesisError::Sg`] otherwise.
pub fn direct_resolve_traced(
    initial: &StateGraph,
    options: &CscSolveOptions,
    tracer: &Tracer,
) -> Result<CscOutcome, SynthesisError> {
    let _span = tracer.span("direct");
    tracer.gauge("states", initial.state_count() as f64);
    tracer.gauge("signals", initial.signals().len() as f64);
    let solution = solve_csc_scoped_traced(initial, options, 0, ResolveScope::All, 1, tracer)?;
    tracer.counter("inserted", solution.assignments.len() as u64);
    let graph = insert_state_signals(initial, &solution.assignments)?;
    debug_assert!(graph.csc_analysis().satisfies_csc());
    Ok(CscOutcome::undecomposed(
        graph,
        &solution.assignments,
        solution.formulas,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sat::SolverOptions;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    #[test]
    fn direct_solves_small_benchmarks() {
        for name in ["vbe-ex1", "vbe-ex2", "sendr-done", "nousc-ser", "nouse"] {
            let stg = benchmarks::by_name(name).unwrap();
            let sg = derive(&stg, &DeriveOptions::default()).unwrap();
            let out = direct_resolve_traced(&sg, &CscSolveOptions::default(), &Tracer::disabled())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(out.graph.csc_analysis().satisfies_csc(), "{name}");
        }
    }

    #[test]
    fn direct_formula_is_one_big_instance() {
        let stg = benchmarks::nouse();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let out = direct_resolve_traced(&sg, &options, &tracer).unwrap();
        // Variables cover every state of the complete graph.
        let m = out.inserted.len();
        assert!(out
            .formulas
            .iter()
            .any(|f| f.variables >= 2 * sg.state_count() * m.min(f.state_signals)));
    }

    #[test]
    fn tight_backtrack_limit_aborts_large_graphs() {
        let stg = benchmarks::mmu1();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let options = CscSolveOptions {
            solver: SolverOptions {
                max_backtracks: Some(2),
                ..Default::default()
            },
            ..Default::default()
        };
        match direct_resolve_traced(&sg, &options, &Tracer::disabled()) {
            Err(SynthesisError::BacktrackLimit { .. }) => {}
            Ok(_) => {} // solved within two backtracks: acceptable but unlikely
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
}
