//! Property tests: randomly generated STGs keep the library's invariants.
//!
//! The named `regression_*` tests pin cases proptest found in the past (see
//! `stg_props.proptest-regressions`). The generative properties run on a
//! fixed SplitMix64 stream, so a failing case number reproduces exactly.

use modsyn_fault::SplitMix64;
use modsyn_sg::{derive, DeriveOptions, EdgeLabel, StateGraph};
use modsyn_stg::{Frag, SignalId, SignalKind, Stg, StgBuilder};

/// Cases drawn per property.
const CASES: usize = 48;

/// A compact recipe for a random but well-formed cyclic STG: a sequence of
/// "phases"; each phase either pulses one signal, runs a full handshake, or
/// forks two pulses in parallel.
#[derive(Debug, Clone)]
enum Phase {
    Pulse(u8),
    Handshake(u8, u8),
    ParPulses(u8, u8),
}

/// A random recipe: 1 to `max_len - 1` phases over `signals` signals, the
/// three phase kinds equally likely.
fn random_phases(rng: &mut SplitMix64, signals: u8, max_len: usize) -> Vec<Phase> {
    let s = usize::from(signals);
    (0..1 + rng.below(max_len - 1))
        .map(|_| {
            let a = rng.below(s) as u8;
            match rng.below(3) {
                0 => Phase::Pulse(a),
                1 => Phase::Handshake(a, rng.below(s) as u8),
                _ => Phase::ParPulses(a, rng.below(s) as u8),
            }
        })
        .collect()
}

/// Builds the recipe over `signals` signals, the first `inputs` of them
/// inputs and the rest outputs.
fn build(phases: &[Phase], signals: u8, inputs: u8) -> Option<Stg> {
    let mut b = StgBuilder::new("random");
    let ids: Vec<SignalId> = (0..signals)
        .map(|i| {
            let kind = if i < inputs {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            b.signal(format!("s{i}"), kind).expect("unique names")
        })
        .collect();
    let pulse = |s: u8| Frag::seq([Frag::rise(ids[s as usize]), Frag::fall(ids[s as usize])]);
    // Exercise every signal once so initial values are always inferable.
    let mut frags: Vec<Frag> = (0..signals).map(pulse).collect();
    for p in phases {
        match *p {
            Phase::Pulse(a) => frags.push(pulse(a % signals)),
            Phase::Handshake(a, b) => {
                let (a, b) = (a % signals, b % signals);
                if a == b {
                    frags.push(pulse(a));
                } else {
                    frags.push(Frag::seq([
                        Frag::rise(ids[a as usize]),
                        Frag::rise(ids[b as usize]),
                        Frag::fall(ids[a as usize]),
                        Frag::fall(ids[b as usize]),
                    ]));
                }
            }
            Phase::ParPulses(a, b) => {
                let (a, b) = (a % signals, b % signals);
                if a == b {
                    frags.push(pulse(a));
                } else {
                    frags.push(Frag::seq([
                        Frag::par([pulse(a), pulse(b)]),
                        pulse((a + 1) % signals),
                    ]));
                }
            }
        }
    }
    b.cycle(Frag::seq(frags)).ok()
}

fn assert_edges_flip_exactly_their_bit(sg: &StateGraph) {
    for e in sg.edges() {
        let EdgeLabel::Signal { signal, polarity } = e.label else {
            panic!("no dummies generated");
        };
        assert_eq!(sg.value(e.from, signal), polarity.value_before());
        assert_eq!(sg.code(e.from) ^ sg.code(e.to), 1u64 << signal);
    }
}

/// Pinned from `stg_props.proptest-regressions`: `phases = [Pulse(0)]`
/// repeats the input's pulse right after the prelude already pulsed it, so
/// the derived graph revisits codes. Deriving it must stay consistent.
#[test]
fn regression_repeated_input_pulse_derives_consistent_state_graph() {
    let stg = build(&[Phase::Pulse(0)], 4, 1).expect("recipe is well formed");
    let sg = derive(&stg, &DeriveOptions::default()).expect("DSL output is consistent");
    assert!(sg.state_count() >= 2);
    assert_edges_flip_exactly_their_bit(&sg);
}

/// Pinned from `stg_props.proptest-regressions`: `phases = [Pulse(0)],
/// hide_mask = 0` — hiding the *empty* signal set must be a faithful
/// (if possibly ε-collapsing) quotient, not a no-op short-circuit.
#[test]
fn regression_hiding_no_signals_is_a_faithful_quotient() {
    let stg = build(&[Phase::Pulse(0)], 4, 1).expect("recipe is well formed");
    let sg = derive(&stg, &DeriveOptions::default()).unwrap();
    let q = sg.hide_signals(&[]).unwrap();
    assert!(q.graph.state_count() <= sg.state_count());
    assert!(q.graph.edge_count() <= sg.edge_count());
    // The cover map is total and lands in range.
    assert_eq!(q.state_map.len(), sg.state_count());
    for &m in &q.state_map {
        assert!(m < q.graph.state_count());
    }
    // Codes restrict faithfully.
    for s in 0..sg.state_count() {
        for (orig, mapped) in q.signal_map.iter().enumerate() {
            if let Some(new) = mapped {
                assert_eq!(sg.value(s, orig), q.graph.value(q.state_map[s], *new));
            }
        }
    }
}

#[test]
fn random_stgs_derive_consistent_state_graphs() {
    let mut rng = SplitMix64::new(0x57_9001);
    for case in 0..CASES {
        let phases = random_phases(&mut rng, 4, 5);
        let Some(stg) = build(&phases, 4, 1) else {
            continue;
        };
        let sg = derive(&stg, &DeriveOptions::default())
            .unwrap_or_else(|e| panic!("case {case} {phases:?}: {e}"));
        assert!(sg.state_count() >= 2, "case {case} {phases:?}");
        assert_edges_flip_exactly_their_bit(&sg);
    }
}

#[test]
fn hiding_signals_never_grows_the_graph() {
    let mut rng = SplitMix64::new(0x57_9002);
    for case in 0..CASES {
        let phases = random_phases(&mut rng, 4, 5);
        let hide_mask = rng.below(16);
        let Some(stg) = build(&phases, 4, 1) else {
            continue;
        };
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let hidden: Vec<usize> = (0..4).filter(|i| hide_mask >> i & 1 == 1).collect();
        let q = sg.hide_signals(&hidden).unwrap();
        let at = || format!("case {case} {phases:?} hide {hidden:?}");
        assert!(q.graph.state_count() <= sg.state_count(), "{}", at());
        assert!(q.graph.edge_count() <= sg.edge_count(), "{}", at());
        // The cover map is total and lands in range.
        assert_eq!(q.state_map.len(), sg.state_count(), "{}", at());
        for &m in &q.state_map {
            assert!(m < q.graph.state_count(), "{}", at());
        }
        // Codes restrict faithfully.
        for s in 0..sg.state_count() {
            for (orig, mapped) in q.signal_map.iter().enumerate() {
                if let Some(new) = mapped {
                    assert_eq!(
                        sg.value(s, orig),
                        q.graph.value(q.state_map[s], *new),
                        "{}",
                        at()
                    );
                }
            }
        }
    }
}

/// Every recipe here is in theory: with no input signal, no conflict pair
/// is joined by input edges alone, so the modular flow must resolve it.
/// (The prelude's input pulse makes every one-input recipe unsolvable.)
#[test]
fn modular_synthesis_handles_random_solvable_stgs() {
    let mut rng = SplitMix64::new(0x57_9003);
    for case in 0..CASES {
        let phases = random_phases(&mut rng, 3, 4);
        let Some(stg) = build(&phases, 3, 0) else {
            continue;
        };
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        assert!(
            sg.unresolvable_csc_pairs(&sg.csc_analysis()).is_empty(),
            "case {case} {phases:?}"
        );
        let out = modsyn::modular_resolve(&sg, &modsyn::CscSolveOptions::default())
            .unwrap_or_else(|e| panic!("case {case} {phases:?}: {e}"));
        assert!(
            out.graph.csc_analysis().satisfies_csc(),
            "case {case} {phases:?}"
        );
        let functions = modsyn::derive_logic(&out.graph).unwrap();
        assert!(
            modsyn::verify_logic(&out.graph, &functions),
            "case {case} {phases:?}"
        );
    }
}
