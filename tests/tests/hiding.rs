//! Differential test of the hiding-trial scorer.
//!
//! `HidingScorer` reads the input-set search's two figures (structurally
//! resolvable CSC conflicts, state-signal lower bound) off a state
//! partition. The reference builds the quotient with `hide_signals` and
//! analyses it with `csc_analysis` and `unresolvable_csc_pairs`. Both must
//! agree on every greedy trial of every non-input output, and on random
//! hidden sets, for the initial graph of every Table-1 row, corpus seeds
//! 0–63 and an STG whose dummy transitions give ε edges.

use modsyn::{determine_input_set, immediate_inputs, InputSet};
use modsyn_bench::PAPER_TABLE1;
use modsyn_corpus::corpus_case;
use modsyn_sg::{derive, DeriveOptions, EdgeLabel, HidingScore, HidingScorer, StateGraph};
use modsyn_stg::{benchmarks, parse_g, Stg};

/// The score of hiding `hidden`, from the built quotient.
fn reference(graph: &StateGraph, hidden: &[usize]) -> HidingScore {
    let q = graph.hide_signals(hidden).expect("quotient builds");
    let analysis = q.graph.csc_analysis();
    HidingScore {
        conflicts: analysis.csc_pairs.len() - q.graph.unresolvable_csc_pairs(&analysis).len(),
        lower_bound: analysis.lower_bound,
    }
}

/// Replays the greedy loop of `determine_input_set` on reference scores,
/// checking the scorer on every trial, then checks the input set itself.
fn check_greedy_trials(graph: &StateGraph, output: usize, what: &str) {
    let immediate = immediate_inputs(graph, output);
    let mut scorer = HidingScorer::new(graph);
    let mut hidden: Vec<usize> = Vec::new();
    let mut score = reference(graph, &hidden);
    assert_eq!(
        scorer.score(),
        score,
        "{what}: output {output}, nothing hidden"
    );
    for s in 0..graph.signals().len() {
        if s == output || immediate.contains(&s) {
            continue;
        }
        let mut trial = hidden.clone();
        trial.push(s);
        let expected = reference(graph, &trial);
        assert_eq!(
            scorer.score_hiding(s),
            expected,
            "{what}: output {output}, hiding {trial:?}"
        );
        if expected.conflicts <= score.conflicts && expected.lower_bound <= score.lower_bound {
            scorer.hide(s);
            hidden = trial;
            score = expected;
        }
    }
    let kept = (0..graph.signals().len())
        .filter(|s| !hidden.contains(s))
        .collect();
    assert_eq!(
        determine_input_set(graph, output),
        InputSet {
            kept,
            hidden,
            conflicts: score.conflicts,
        },
        "{what}: output {output}"
    );
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Compares the scorer with the reference on a few random hidden sets of
/// varying density.
fn check_random_masks(graph: &StateGraph, seed: u64, what: &str) {
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for round in 0..4 {
        let mut mask = xorshift(&mut rng) & graph.full_mask();
        if round % 2 == 1 {
            mask &= xorshift(&mut rng);
        }
        let hidden: Vec<usize> = (0..graph.signals().len())
            .filter(|&s| mask >> s & 1 == 1)
            .collect();
        let mut scorer = HidingScorer::new(graph);
        for &s in &hidden {
            scorer.hide(s);
        }
        assert_eq!(
            scorer.score(),
            reference(graph, &hidden),
            "{what}: hiding {hidden:?}"
        );
    }
}

fn check_graph(stg: &Stg, seed: u64, what: &str) {
    let graph = derive(stg, &DeriveOptions::default()).unwrap_or_else(|e| panic!("{what}: {e}"));
    for output in 0..graph.signals().len() {
        if graph.signals()[output].kind.is_non_input() {
            check_greedy_trials(&graph, output, what);
        }
    }
    check_random_masks(&graph, seed, what);
}

#[test]
fn scorer_matches_quotients_on_table1_rows() {
    for (i, row) in PAPER_TABLE1.iter().enumerate() {
        let stg = benchmarks::by_name(row.name).expect("known benchmark");
        check_graph(&stg, i as u64, row.name);
    }
}

#[test]
fn scorer_matches_quotients_on_corpus_cases() {
    for seed in 0..64 {
        check_graph(&corpus_case(seed).0, seed, &format!("corpus seed {seed}"));
    }
}

#[test]
fn scorer_merges_dummy_transitions_as_epsilon() {
    // A double pulse on `b` with a dummy `e` after the first pulse: the
    // states either side of `e` share a code and merge whatever is hidden,
    // and the pulses leave CSC conflicts for the trials to score.
    let stg = parse_g(
        ".model dd\n.inputs a c\n.outputs b\n.dummy e\n.graph\n\
         a+ b+\nb+ b-\nb- e\ne c+\nc+ a-\na- b+/2\nb+/2 b-/2\nb-/2 c-\nc- a+\n\
         .marking { <c-,a+> }\n.end\n",
    )
    .unwrap();
    let graph = derive(&stg, &DeriveOptions::default()).unwrap();
    assert!(graph.edges().iter().any(|e| e.label == EdgeLabel::Epsilon));
    let b = graph.signal_index("b").unwrap();
    let c = graph.signal_index("c").unwrap();
    assert!(HidingScorer::new(&graph).score().conflicts > 0);
    // `a` triggers `b`; hiding `c` leaves both figures as they were.
    assert_eq!(determine_input_set(&graph, b).hidden, vec![c]);
    check_graph(&stg, 1, "dummy");
}
