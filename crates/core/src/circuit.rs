//! Hazard analysis and removal on the synthesised covers (the paper's
//! Section 3.5 post-processing).

use std::collections::BTreeSet;

use modsyn_logic::{complement, expand, Cover, Cube};
use modsyn_sg::{EdgeLabel, StateGraph};

use crate::logic_fn::{unreachable_codes, SignalFunction};

/// Result of [`hazard_report`].
#[derive(Debug, Clone, Default)]
pub struct HazardSummary {
    /// Per function: `(name, hazardous transition count, transitions
    /// examined)`.
    pub per_function: Vec<(String, usize, usize)>,
}

impl HazardSummary {
    /// Total static-1 hazards across all functions.
    pub fn total_hazards(&self) -> usize {
        self.per_function.iter().map(|&(_, h, _)| h).sum()
    }
}

/// Collects, per synthesised function, the single-input-change transitions
/// of the final state graph on which the SOP cover has a static-1 hazard
/// (no single product term covers both endpoints).
pub fn hazard_report(graph: &StateGraph, functions: &[SignalFunction]) -> HazardSummary {
    let transitions = graph_transitions(graph);
    let mut summary = HazardSummary::default();
    for f in functions {
        let report = modsyn_logic::static_hazards(f.sop.cover(), &transitions);
        summary
            .per_function
            .push((f.name.clone(), report.hazardous.len(), report.examined));
    }
    summary
}

/// The state-graph edges as value-vector pairs (each a single-signal
/// change, by construction).
fn graph_transitions(graph: &StateGraph) -> Vec<(Vec<bool>, Vec<bool>)> {
    let n = graph.signals().len();
    let vals = |s: usize| (0..n).map(|i| graph.value(s, i)).collect::<Vec<bool>>();
    graph
        .edges()
        .iter()
        .filter(|e| matches!(e.label, EdgeLabel::Signal { .. }))
        .map(|e| (vals(e.from), vals(e.to)))
        .collect()
}

/// Removes every static-1 hazard of `functions` on the graph's transitions
/// by adding prime consensus cubes (the classic hazard-removal transform:
/// two adjacent ON-minterms with no joint cover get the expanded supercube
/// of the pair added to the cover).
///
/// Returns the repaired functions; covers without hazards are returned
/// unchanged. The repaired cover is functionally identical — added cubes
/// are implicants of the ON∪DC set.
pub fn remove_static_hazards(
    graph: &StateGraph,
    functions: &[SignalFunction],
) -> Vec<SignalFunction> {
    let transitions = graph_transitions(graph);
    let n = graph.signals().len();
    let dc = unreachable_codes(graph);

    functions
        .iter()
        .map(|f| {
            let mut cover = f.sop.cover().clone();
            let report = modsyn_logic::static_hazards(&cover, &transitions);
            if report.hazardous.is_empty() {
                return f.clone();
            }
            let off = complement(&cover.union(&dc));
            // Ordered, so the raise order and hence the repair repeat.
            let added: BTreeSet<Cube> = report
                .hazardous
                .iter()
                .map(|(a, b)| Cube::from_minterm(a).supercube(&Cube::from_minterm(b)))
                .collect();
            let mut extra = Cover::from_cubes(n, added);
            // Raise the consensus cubes to primes for a tighter result.
            extra = expand(&extra, &off);
            for cube in extra.cubes() {
                cover.push(cube.clone());
            }
            cover.drop_contained();
            let literals = cover.literal_count();
            SignalFunction {
                name: f.name.clone(),
                sop: modsyn_logic::Sop::new(f.sop.names().to_vec(), cover).expect("same universe"),
                literals,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::gate_netlist;
    use crate::logic_fn::{derive_logic, verify_logic};
    use crate::modular::modular_resolve;
    use crate::solve::CscSolveOptions;
    use modsyn_check::{check_speed_independence, CheckError};
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    fn synthesised(name: &str) -> (StateGraph, Vec<SignalFunction>) {
        let stg = benchmarks::by_name(name).unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let out = modular_resolve(&sg, &CscSolveOptions::default()).unwrap();
        let functions = derive_logic(&out.graph).unwrap();
        (out.graph, functions)
    }

    #[test]
    fn circuit_conforms_in_closed_loop() {
        // The hazard-repaired gates, run against the specification: what
        // `modsyn --hazards` certifies.
        for name in ["vbe-ex1", "nouse", "fifo", "sbuf-read-ctl", "wrdata"] {
            let (graph, functions) = synthesised(name);
            let repaired = remove_static_hazards(&graph, &functions);
            check_speed_independence(&gate_netlist(&graph, &repaired), &graph)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn a_wrong_circuit_is_caught() {
        let (graph, mut functions) = synthesised("vbe-ex1");
        // Sabotage: constant-0 for the first output.
        let n = graph.signals().len();
        functions[0] = SignalFunction {
            name: functions[0].name.clone(),
            sop: modsyn_logic::Sop::new(functions[0].sop.names().to_vec(), Cover::empty(n))
                .unwrap(),
            literals: 0,
        };
        let verdict = check_speed_independence(&gate_netlist(&graph, &functions), &graph);
        assert!(
            matches!(verdict, Err(CheckError::Nonconforming { .. })),
            "{verdict:?}"
        );
    }

    #[test]
    fn hazard_removal_eliminates_static_one_hazards() {
        for name in ["vbe-ex1", "wrdata", "nouse", "pa"] {
            let (graph, functions) = synthesised(name);
            let before = hazard_report(&graph, &functions);
            let repaired = remove_static_hazards(&graph, &functions);
            let after = hazard_report(&graph, &repaired);
            assert_eq!(after.total_hazards(), 0, "{name}: {:?}", after.per_function);
            // Repair never removes hazard-free coverage and stays verified.
            assert!(verify_logic(&graph, &repaired), "{name}");
            if before.total_hazards() == 0 {
                let unchanged: usize = functions.iter().map(|f| f.literals).sum();
                let now: usize = repaired.iter().map(|f| f.literals).sum();
                assert_eq!(unchanged, now, "{name}: hazard-free cover was altered");
            }
        }
    }

    #[test]
    fn hazard_removal_only_adds_implicants() {
        let (graph, functions) = synthesised("wrdata");
        let repaired = remove_static_hazards(&graph, &functions);
        for (orig, fixed) in functions.iter().zip(&repaired) {
            // Identical on every reachable state (verified), and the cover
            // only grew or stayed equal in cube count.
            assert!(fixed.sop.cover().cube_count() >= orig.sop.cover().cube_count());
        }
    }

    #[test]
    fn hazard_removal_repeats_exactly() {
        let (graph, functions) = synthesised("wrdata");
        let first = remove_static_hazards(&graph, &functions);
        for _ in 0..8 {
            assert_eq!(remove_static_hazards(&graph, &functions), first);
        }
    }
}
