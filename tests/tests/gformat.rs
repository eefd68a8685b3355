//! `.g` format round-trip integration: every benchmark survives
//! serialisation and re-parsing with identical synthesis behaviour.

use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::{benchmarks, parse_g, write_g};

#[test]
fn every_benchmark_round_trips_through_g_format() {
    for (name, stg) in benchmarks::all() {
        let text = write_g(&stg);
        let again = parse_g(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_eq!(stg.signal_count(), again.signal_count(), "{name}");
        assert_eq!(
            stg.net().transition_count(),
            again.net().transition_count(),
            "{name}"
        );
        // The state graphs must be identical in size and conflict structure.
        let a = derive(&stg, &DeriveOptions::default()).unwrap();
        let b = derive(&again, &DeriveOptions::default()).unwrap();
        assert_eq!(a.state_count(), b.state_count(), "{name}");
        assert_eq!(a.edge_count(), b.edge_count(), "{name}");
        assert_eq!(
            a.csc_analysis().csc_pairs.len(),
            b.csc_analysis().csc_pairs.len(),
            "{name}"
        );
    }
}

/// `parse ∘ write` is idempotent: one round trip reaches a fixpoint, both
/// at the text level and at the [`modsyn_stg::Stg`] structural level.
fn assert_round_trip_fixpoint(name: &str, stg: &modsyn_stg::Stg) {
    let t1 = write_g(stg);
    let s2 = parse_g(&t1).unwrap_or_else(|e| panic!("{name}: {e}\n{t1}"));
    let t2 = write_g(&s2);
    assert_eq!(t1, t2, "{name}: text is not a write/parse fixpoint");
    let s3 = parse_g(&t2).unwrap_or_else(|e| panic!("{name}: {e}\n{t2}"));
    assert_eq!(s2, s3, "{name}: structure is not a write/parse fixpoint");
}

#[test]
fn write_then_parse_is_idempotent_on_every_benchmark() {
    for (name, stg) in benchmarks::all() {
        assert_round_trip_fixpoint(name, &stg);
    }
}

#[test]
fn write_then_parse_is_idempotent_on_generated_stgs() {
    use modsyn_check::{gen_stg, Profile};
    for seed in 0..30 {
        for profile in [Profile::Small, Profile::Medium] {
            let stg = gen_stg(seed, profile);
            assert_round_trip_fixpoint(&format!("seed {seed} {profile:?}"), &stg);
        }
    }
}

#[test]
fn round_trip_preserves_signal_kinds_and_names() {
    let stg = benchmarks::nak_pa();
    let again = parse_g(&write_g(&stg)).unwrap();
    for s in stg.signal_ids() {
        let info = stg.signal(s);
        let mapped = again
            .find_signal(info.name())
            .unwrap_or_else(|| panic!("{} lost", info.name()));
        assert_eq!(again.signal(mapped).kind(), info.kind(), "{}", info.name());
    }
}

#[test]
fn synthesis_result_is_stable_across_round_trip() {
    use modsyn::{synthesize, Method, SynthesisOptions};
    let stg = benchmarks::vbe_ex2();
    let again = parse_g(&write_g(&stg)).unwrap();
    let a = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular)).unwrap();
    let b = synthesize(&again, &SynthesisOptions::for_method(Method::Modular)).unwrap();
    assert_eq!(a.final_signals(), b.final_signals());
    assert_eq!(a.literals, b.literals);
}
