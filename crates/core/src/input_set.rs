//! Input-set derivation (paper Figure 2, `determine_input_set`).
//!
//! The *input signal set* of an output is the smallest set of signals its
//! logic function needs. It seeds with the immediate (causal) inputs and
//! then greedily hides every other signal whose removal does not increase
//! the number of CSC conflicts or the state-signal lower bound in the
//! resulting modular (quotient) state graph.

use std::collections::BTreeSet;

use modsyn_sg::{EdgeLabel, HidingScorer, StateGraph};

/// The outcome of input-set derivation for one output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputSet {
    /// Indices (in the state graph's signal list) of the signals kept.
    pub kept: Vec<usize>,
    /// Indices of the hidden signals.
    pub hidden: Vec<usize>,
    /// Structurally resolvable CSC conflicts of the modular graph that
    /// hiding `hidden` builds — the count the greedy loop last accepted.
    pub conflicts: usize,
}

/// Signals whose transitions *trigger* a transition of `output`: firing `s`
/// newly enables an edge of `output`. This is the state-graph lift of the
/// STG's "direct causal relationship" — unlike raw edge adjacency it does
/// not pick up merely-concurrent signals.
pub fn immediate_inputs(graph: &StateGraph, output: usize) -> BTreeSet<usize> {
    let mut set = BTreeSet::new();
    for e in graph.edges() {
        let EdgeLabel::Signal { signal, .. } = e.label else {
            continue;
        };
        if signal == output {
            continue;
        }
        if graph.excited(e.from, output).is_none() && graph.excited(e.to, output).is_some() {
            set.insert(signal);
        }
    }
    set
}

/// Derives the input signal set of `output` (paper Figure 2).
///
/// Starting from the immediate input set, every other signal is tentatively
/// hidden; the removal is kept iff the modular graph's CSC conflict count
/// and state-signal lower bound both do not increase. Previously inserted
/// state signals (internal signals) take part in the same greedy loop.
/// Trials are scored by [`HidingScorer`], so no quotient graph is built.
pub fn determine_input_set(graph: &StateGraph, output: usize) -> InputSet {
    determine_input_set_traced(graph, output, &modsyn_obs::Tracer::disabled())
}

/// [`determine_input_set`] with observability counters: the greedy loop's
/// hiding trials are tallied as `input_set.kept_trials` /
/// `input_set.rejected_trials` (counters only, no span — this runs once per
/// output per modular iteration and the tree would drown in it).
pub fn determine_input_set_traced(
    graph: &StateGraph,
    output: usize,
    tracer: &modsyn_obs::Tracer,
) -> InputSet {
    let immediate = immediate_inputs(graph, output);
    let mut hidden: Vec<usize> = Vec::new();

    // The paper's two criteria: the CSC conflict count and the state-signal
    // lower bound must not grow. Conflicts that become structurally
    // unresolvable inside the module (their non-input room was hidden) are
    // not counted — the module defers them to other outputs.
    let mut scorer = HidingScorer::new(graph);
    let mut score = scorer.score();

    for s in 0..graph.signals().len() {
        if s == output || immediate.contains(&s) {
            continue;
        }
        let trial = scorer.score_hiding(s);
        if trial.conflicts <= score.conflicts && trial.lower_bound <= score.lower_bound {
            // The signal is not required for this output's logic.
            scorer.hide(s);
            hidden.push(s);
            score = trial;
            tracer.counter("input_set.kept_trials", 1);
        } else {
            tracer.counter("input_set.rejected_trials", 1);
        }
    }

    let kept = (0..graph.signals().len())
        .filter(|s| !hidden.contains(s))
        .collect();
    InputSet {
        kept,
        hidden,
        conflicts: score.conflicts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::{benchmarks, parse_g};

    #[test]
    fn immediate_inputs_follow_state_graph_causality() {
        let stg = parse_g(
            ".model hs\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let b = sg.signal_index("b").unwrap();
        let a = sg.signal_index("a").unwrap();
        assert_eq!(immediate_inputs(&sg, b), BTreeSet::from([a]));
    }

    #[test]
    fn output_is_always_kept() {
        let sg = derive(&benchmarks::nouse(), &DeriveOptions::default()).unwrap();
        for output in 0..sg.signals().len() {
            if !sg.signals()[output].kind.is_non_input() {
                continue;
            }
            let set = determine_input_set(&sg, output);
            assert!(set.kept.contains(&output));
        }
    }

    #[test]
    fn kept_and_hidden_partition_the_signals() {
        let sg = derive(&benchmarks::mmu1(), &DeriveOptions::default()).unwrap();
        let output = sg.signal_index("ack").unwrap();
        let set = determine_input_set(&sg, output);
        let mut all: Vec<usize> = set.kept.iter().chain(&set.hidden).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..sg.signals().len()).collect::<Vec<_>>());
    }

    #[test]
    fn hiding_reduces_the_module_for_large_benchmarks() {
        // The whole point of the method: the module for one output is much
        // smaller than the complete graph.
        let sg = derive(&benchmarks::mmu0(), &DeriveOptions::default()).unwrap();
        let output = sg.signal_index("p1").unwrap();
        let set = determine_input_set(&sg, output);
        assert!(!set.hidden.is_empty(), "expected some signal to be hidden");
        let q = sg.hide_signals(&set.hidden).unwrap();
        assert!(
            q.graph.state_count() < sg.state_count() / 2,
            "module has {} of {} states",
            q.graph.state_count(),
            sg.state_count()
        );
    }

    #[test]
    fn hiding_never_increases_conflicts() {
        let sg = derive(&benchmarks::pa(), &DeriveOptions::default()).unwrap();
        let baseline = sg.csc_analysis().csc_pairs.len();
        for output in 0..sg.signals().len() {
            if !sg.signals()[output].kind.is_non_input() {
                continue;
            }
            let set = determine_input_set(&sg, output);
            let q = sg.hide_signals(&set.hidden).unwrap();
            assert!(
                q.graph.csc_analysis().csc_pairs.len() <= baseline,
                "output {output}"
            );
        }
    }

    #[test]
    fn conflict_count_matches_the_rebuilt_module() {
        let sg = derive(&benchmarks::mmu0(), &DeriveOptions::default()).unwrap();
        for output in 0..sg.signals().len() {
            if !sg.signals()[output].kind.is_non_input() {
                continue;
            }
            let set = determine_input_set(&sg, output);
            let q = sg.hide_signals(&set.hidden).unwrap();
            let analysis = q.graph.csc_analysis();
            let resolvable =
                analysis.csc_pairs.len() - q.graph.unresolvable_csc_pairs(&analysis).len();
            assert_eq!(set.conflicts, resolvable, "output {output}");
        }
    }
}
