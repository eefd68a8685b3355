//! The synthesised circuit as an executable object: closed-loop simulation
//! against the specification and hazard analysis/removal (the paper's
//! Section 3.5 post-processing).

use std::collections::{BTreeSet, HashSet, VecDeque};

use modsyn_logic::{complement, expand, Cover, Cube};
use modsyn_sg::{EdgeLabel, StateGraph};

use crate::logic_fn::{unreachable_codes, SignalFunction};
use crate::SynthesisError;

/// A gate-level view of the synthesised controller: one SOP next-state
/// function per non-input signal, evaluated over all signal values.
#[derive(Debug, Clone)]
pub struct Circuit {
    /// Signal names in code-bit order (inputs included).
    names: Vec<String>,
    /// Whether each signal is driven by the circuit.
    driven: Vec<bool>,
    /// Function per signal index (`None` for inputs).
    functions: Vec<Option<Cover>>,
}

impl Circuit {
    /// Assembles a circuit from a synthesis result.
    ///
    /// # Errors
    ///
    /// Returns [`SynthesisError::CscUnresolved`] if some non-input signal
    /// has no function (mismatched inputs).
    pub fn new(graph: &StateGraph, functions: &[SignalFunction]) -> Result<Self, SynthesisError> {
        let n = graph.signals().len();
        let mut slots: Vec<Option<Cover>> = vec![None; n];
        for f in functions {
            if let Some(i) = graph.signal_index(&f.name) {
                slots[i] = Some(f.sop.cover().clone());
            }
        }
        let driven: Vec<bool> = graph
            .signals()
            .iter()
            .map(|s| s.kind.is_non_input())
            .collect();
        if driven.iter().zip(&slots).any(|(&d, s)| d && s.is_none()) {
            return Err(SynthesisError::CscUnresolved {
                remaining_conflicts: 0,
            });
        }
        Ok(Circuit {
            names: graph.signals().iter().map(|s| s.name.clone()).collect(),
            driven,
            functions: slots,
        })
    }

    /// Signal names, in code order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Evaluates every driven signal's next value for the given current
    /// values; undriven (input) signals keep their value.
    pub fn next_values(&self, values: &[bool]) -> Vec<bool> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| match f {
                Some(cover) => cover.covers_minterm(values),
                None => values[i],
            })
            .collect()
    }

    /// The set of driven signals currently commanded to change.
    pub fn excited_outputs(&self, values: &[bool]) -> Vec<usize> {
        let next = self.next_values(values);
        (0..values.len())
            .filter(|&i| self.driven[i] && next[i] != values[i])
            .collect()
    }
}

/// Result of [`closed_loop_check`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SimulationReport {
    /// Distinct specification states visited.
    pub states_visited: usize,
    /// Transitions executed.
    pub transitions: usize,
    /// Mismatches: `(state, signal, expected_excited)` — the circuit
    /// commanded (or failed to command) a change the specification does
    /// not (or does) prescribe.
    pub violations: Vec<(usize, usize, bool)>,
}

impl SimulationReport {
    /// Whether the circuit tracked the specification exactly.
    pub fn is_conforming(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Executes the circuit in lock-step with the specification state graph:
/// from every reachable state, the set of outputs the gates command to
/// change must equal the set the specification excites, and every fired
/// transition must lead to a state where the codes still agree.
///
/// This complements [`crate::verify_logic`]: instead of comparing implied
/// values per state, it *runs* the SOP network along every specification
/// edge.
pub fn closed_loop_check(graph: &StateGraph, circuit: &Circuit) -> SimulationReport {
    let n = graph.signals().len();
    let mut report = SimulationReport::default();
    let mut seen: HashSet<usize> = HashSet::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    seen.insert(graph.initial());
    queue.push_back(graph.initial());

    while let Some(state) = queue.pop_front() {
        report.states_visited += 1;
        let values: Vec<bool> = (0..n).map(|i| graph.value(state, i)).collect();
        let commanded: HashSet<usize> = circuit.excited_outputs(&values).into_iter().collect();
        let specified: HashSet<usize> = (0..n)
            .filter(|&i| {
                graph.signals()[i].kind.is_non_input() && graph.excited(state, i).is_some()
            })
            .collect();
        for &i in commanded.difference(&specified) {
            report.violations.push((state, i, false));
        }
        for &i in specified.difference(&commanded) {
            report.violations.push((state, i, true));
        }
        for e in graph.out_edges(state) {
            report.transitions += 1;
            if seen.insert(e.to) {
                queue.push_back(e.to);
            }
        }
    }
    report
}

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
    use crate::logic_fn::{derive_logic, verify_logic};
    use crate::modular::modular_resolve;
    use crate::solve::CscSolveOptions;
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
        for name in ["vbe-ex1", "nouse", "fifo", "sbuf-read-ctl"] {
            let (graph, functions) = synthesised(name);
            let circuit = Circuit::new(&graph, &functions).unwrap();
            let report = closed_loop_check(&graph, &circuit);
            assert!(report.is_conforming(), "{name}: {:?}", report.violations);
            assert_eq!(report.states_visited, graph.state_count(), "{name}");
            assert_eq!(report.transitions, graph.edge_count(), "{name}");
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
        let circuit = Circuit::new(&graph, &functions).unwrap();
        let report = closed_loop_check(&graph, &circuit);
        assert!(!report.is_conforming());
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

    #[test]
    fn excited_outputs_follow_the_spec() {
        let (graph, functions) = synthesised("vbe-ex1");
        let circuit = Circuit::new(&graph, &functions).unwrap();
        let n = graph.signals().len();
        let values: Vec<bool> = (0..n).map(|i| graph.value(graph.initial(), i)).collect();
        let excited = circuit.excited_outputs(&values);
        for i in excited {
            assert!(graph.excited(graph.initial(), i).is_some());
        }
    }
}
