//! Seeded property tests for the two-level minimiser: every property runs
//! on a fixed SplitMix64 stream, so a failing case number reproduces
//! exactly. COMPLEMENT and TAUTOLOGY are checked against brute force by
//! `complement_and_tautology_match_brute_force` in
//! `crates/logic/tests/kernels.rs`.

use modsyn_fault::SplitMix64;
use modsyn_logic::{complement, minimize, Cover, Cube};

/// Cases drawn per property.
const CASES: usize = 48;

/// A random cover over `n` variables: up to 7 cubes, each variable a
/// negative literal, a positive literal or absent with equal odds.
fn random_cover(rng: &mut SplitMix64, n: usize) -> Cover {
    let cubes: Vec<Cube> = (0..rng.below(8))
        .map(|_| {
            let mut c = Cube::full(n);
            for v in 0..n {
                match rng.below(3) {
                    0 => c.set_literal(v, Some(false)),
                    1 => c.set_literal(v, Some(true)),
                    _ => {}
                }
            }
            c
        })
        .collect();
    Cover::from_cubes(n, cubes)
}

fn minterms(n: usize) -> Vec<Vec<bool>> {
    (0u32..(1 << n))
        .map(|bits| (0..n).map(|v| bits >> v & 1 == 1).collect())
        .collect()
}

#[test]
fn minimize_preserves_semantics() {
    let mut rng = SplitMix64::new(0x10_9c01);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let r = minimize(&on, &Cover::empty(4));
        for m in minterms(4) {
            assert_eq!(
                r.cover.covers_minterm(&m),
                on.covers_minterm(&m),
                "case {case}: differs on {m:?}"
            );
        }
    }
}

#[test]
fn minimize_never_increases_cost() {
    let mut rng = SplitMix64::new(0x10_9c02);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let r = minimize(&on, &Cover::empty(4));
        assert!(
            r.cover.cube_count() <= on.cube_count().max(1),
            "case {case}"
        );
        assert!(r.cover.literal_count() <= on.literal_count(), "case {case}");
    }
}

#[test]
fn minimize_result_is_prime_and_irredundant() {
    let mut rng = SplitMix64::new(0x10_9c03);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let r = minimize(&on, &Cover::empty(4));
        let off = complement(&on);
        for (i, c) in r.cover.cubes().iter().enumerate() {
            // Prime: raising any literal hits the OFF-set.
            for (v, _) in c.literals() {
                let mut raised = c.clone();
                raised.set_literal(v, None);
                assert!(
                    off.cubes().iter().any(|oc| oc.intersects(&raised)),
                    "case {case}: cube {c} not prime"
                );
            }
            // Irredundant: dropping the cube loses coverage.
            let rest = Cover::from_cubes(
                4,
                r.cover
                    .cubes()
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, x)| x.clone()),
            );
            assert!(!rest.covers_cube(c), "case {case}: cube {c} redundant");
        }
    }
}

/// Don't-cares bound where the result may go, not its cost: espresso is a
/// heuristic, and a larger DC-set can steer EXPAND to more literals.
#[test]
fn dont_cares_keep_the_result_between_on_and_on_or_dc() {
    let mut rng = SplitMix64::new(0x10_9c04);
    for case in 0..CASES {
        let on = random_cover(&mut rng, 4);
        let dc = random_cover(&mut rng, 4);
        // Remove overlap so ON and DC are disjoint.
        let dc = Cover::from_cubes(
            4,
            dc.cubes()
                .iter()
                .filter(|c| !on.cubes().iter().any(|oc| oc.intersects(c)))
                .cloned(),
        );
        let with_dc = minimize(&on, &dc);
        let allowed = on.union(&dc);
        for m in minterms(4) {
            if on.covers_minterm(&m) {
                assert!(with_dc.cover.covers_minterm(&m), "case {case}: lost {m:?}");
            }
            if with_dc.cover.covers_minterm(&m) {
                assert!(allowed.covers_minterm(&m), "case {case}: {m:?} is OFF");
            }
        }
    }
}
