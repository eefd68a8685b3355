//! Bridge from synthesis results to the independent oracle in
//! [`modsyn_check`].
//!
//! The oracle deliberately has no dependency on this crate or on
//! `modsyn-logic`; this module does the one-way translation (covers →
//! literal lists) so drivers — the CLI's `--check` flag, the `differ`
//! binary, integration tests — can hand a finished [`SynthesisReport`] to
//! the checkers. Nothing in the synthesis pipeline itself calls the
//! oracle.

use modsyn_check::{verify_solution, CheckError, GateNetlist, SopFn};
use modsyn_sg::StateGraph;

use crate::logic_fn::SignalFunction;
use crate::synth::SynthesisReport;

/// Converts synthesised SOP functions into the oracle's netlist form,
/// mapping each function's variable universe onto `graph`'s signal order
/// by name.
///
/// Functions naming signals absent from `graph` are skipped (the checker
/// reports any non-input signal left undriven).
pub fn gate_netlist(graph: &StateGraph, functions: &[SignalFunction]) -> GateNetlist {
    let mut netlist = GateNetlist::new(graph.signals().len());
    for f in functions {
        let Some(slot) = graph.signal_index(&f.name) else {
            continue;
        };
        let names = f.sop.names();
        let var_map: Vec<Option<usize>> = names.iter().map(|n| graph.signal_index(n)).collect();
        let cubes = f
            .sop
            .cover()
            .cubes()
            .iter()
            .map(|cube| {
                (0..names.len())
                    .filter_map(|v| cube.literal(v).and_then(|pol| var_map[v].map(|g| (g, pol))))
                    .collect()
            })
            .collect();
        netlist.set(
            slot,
            SopFn {
                name: f.name.clone(),
                cubes,
            },
        );
    }
    netlist
}

/// Certifies a finished synthesis run against the independent oracle: the
/// solved graph must be consistent and CSC-clean, the gates must be
/// speed-independent against it, and — given the unsolved specification
/// graph — the result must be observation-equivalent to the
/// specification.
///
/// # Errors
///
/// The first failing judgement's [`CheckError`].
pub fn certify_report(
    specification: Option<&StateGraph>,
    report: &SynthesisReport,
) -> Result<(), CheckError> {
    let netlist = gate_netlist(&report.csc.graph, &report.functions);
    verify_solution(specification, &report.csc.graph, &netlist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize, Method, SynthesisOptions};
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    #[test]
    fn modular_results_pass_the_oracle() {
        for name in ["vbe-ex1", "nouse", "fifo"] {
            let stg = benchmarks::by_name(name).unwrap();
            let spec = derive(&stg, &DeriveOptions::default()).unwrap();
            let report = synthesize(&stg, &SynthesisOptions::default()).unwrap();
            certify_report(Some(&spec), &report).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn all_methods_pass_on_a_small_benchmark() {
        let stg = benchmarks::vbe_ex2();
        let spec = derive(&stg, &DeriveOptions::default()).unwrap();
        for method in [Method::Modular, Method::Direct, Method::Lavagno] {
            let report = synthesize(&stg, &SynthesisOptions::for_method(method)).unwrap();
            certify_report(Some(&spec), &report).unwrap_or_else(|e| panic!("{method}: {e}"));
        }
    }

    #[test]
    fn a_corrupted_code_is_caught() {
        // Mutation check: flipping one state code in the solved graph must
        // trip the oracle (consistency, USC/CSC, or conformance).
        let stg = benchmarks::vbe_ex1();
        let report = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        let mut bad = StateGraph::new(report.csc.graph.signals().to_vec()).unwrap();
        for s in 0..report.csc.graph.state_count() {
            let code = report.csc.graph.code(s);
            bad.add_state(if s == 1 { code ^ 1 } else { code });
        }
        for e in report.csc.graph.edges() {
            bad.add_edge(e.from, e.to, e.label);
        }
        bad.set_initial(report.csc.graph.initial());
        let netlist = gate_netlist(&report.csc.graph, &report.functions);
        assert!(verify_solution(None, &bad, &netlist).is_err());
    }
}
