//! Seeded property tests for the Petri-net substrate: every property runs
//! on a fixed SplitMix64 stream, so a failing case number reproduces
//! exactly.

use modsyn_fault::SplitMix64;
use modsyn_petri::{PetriNet, PlaceId, ReachabilityOptions, TransitionId};

/// Cases drawn per property.
const CASES: usize = 64;

/// Builds a ring of `n` places/transitions with extra chord arcs — always a
/// connected, bounded net when only one token circulates.
fn ring(n: usize, chords: &[(usize, usize)]) -> PetriNet {
    let mut net = PetriNet::new();
    let places: Vec<PlaceId> = (0..n).map(|i| net.add_place(format!("p{i}"))).collect();
    let transitions: Vec<TransitionId> = (0..n)
        .map(|i| net.add_transition(format!("t{i}")))
        .collect();
    for i in 0..n {
        net.add_arc_place_to_transition(places[i], transitions[i])
            .unwrap();
        net.add_arc_transition_to_place(transitions[i], places[(i + 1) % n])
            .unwrap();
    }
    // Chords: transition i also deposits into a second place j and consumes
    // it back at j's transition — these keep the net a marked graph.
    for &(i, j) in chords {
        let (i, j) = (i % n, j % n);
        if i == j {
            continue;
        }
        let extra = net.add_place(format!("c{i}_{j}"));
        let _ = net.add_arc_transition_to_place(transitions[i], extra);
        let _ = net.add_arc_place_to_transition(extra, transitions[j]);
    }
    net.set_initial_tokens(places[0], 1).unwrap();
    net
}

#[test]
fn single_token_rings_have_n_markings() {
    let mut rng = SplitMix64::new(0x9e7_0001);
    for _ in 0..CASES {
        let n = 2 + rng.below(10);
        let net = ring(n, &[]);
        let g = net.reachability(&ReachabilityOptions::default()).unwrap();
        assert_eq!(g.markings.len(), n, "n = {n}");
        assert!(g.is_safe(), "n = {n}");
        assert!(g.deadlocks().is_empty(), "n = {n}");
        // Exactly one outgoing edge per marking in a plain ring.
        assert_eq!(g.edges.len(), n, "n = {n}");
    }
}

#[test]
fn firing_preserves_token_count_in_rings() {
    let mut rng = SplitMix64::new(0x9e7_0002);
    for case in 0..CASES {
        let (n, steps) = (2 + rng.below(8), rng.below(30));
        let net = ring(n, &[]);
        let mut m = net.initial_marking();
        for _ in 0..steps {
            let enabled = m.enabled_transitions(&net);
            assert_eq!(
                enabled.len(),
                1,
                "case {case}: ring has one enabled transition"
            );
            m = m.fire(&net, enabled[0]).unwrap();
            assert_eq!(m.total_tokens(), 1, "case {case}");
        }
    }
}

#[test]
fn reachability_never_panics_on_chorded_rings() {
    let mut rng = SplitMix64::new(0x9e7_0003);
    for case in 0..CASES {
        let n = 3 + rng.below(5);
        let chords: Vec<(usize, usize)> = (0..rng.below(4))
            .map(|_| (rng.below(8), rng.below(8)))
            .collect();
        let net = ring(n, &chords);
        // Chorded rings can deadlock (a chord place may starve) but must
        // never panic or report inconsistent graphs.
        if let Ok(g) = net.reachability(&ReachabilityOptions::default()) {
            assert!(!g.markings.is_empty(), "case {case}");
            for e in &g.edges {
                assert!(e.from < g.markings.len(), "case {case}");
                assert!(e.to < g.markings.len(), "case {case}");
                // Edge endpoints really are one firing apart.
                let fired = g.markings[e.from].fire(&net, e.transition).unwrap();
                assert_eq!(&fired, &g.markings[e.to], "case {case}");
            }
        }
    }
}

#[test]
fn classification_is_stable_under_arc_insertion_order() {
    // The same two chords added in either order: the structural class
    // must match.
    let mut rng = SplitMix64::new(0x9e7_0004);
    for case in 0..CASES {
        let n = 3 + rng.below(4);
        let first = (rng.below(n), rng.below(n));
        let second = (rng.below(n), rng.below(n));
        let a = ring(n, &[first, second]);
        let b = ring(n, &[second, first]);
        assert_eq!(a.classify(), b.classify(), "case {case}");
    }
}
