//! Seeded property tests for the BDD manager: every property runs on a
//! fixed SplitMix64 stream, so a failing case number reproduces exactly.

use modsyn_bdd::{build_from_cnf, BddManager};
use modsyn_fault::SplitMix64;
use modsyn_sat::{CnfFormula, Lit, Var};

/// Cases drawn per property.
const CASES: usize = 48;

/// A random CNF over `n` variables: up to 15 clauses of 1–3 literals.
fn random_cnf(rng: &mut SplitMix64, n: usize) -> CnfFormula {
    let mut f = CnfFormula::new(n);
    for _ in 0..rng.below(16) {
        let len = 1 + rng.below(3);
        f.add_clause(
            (0..len).map(|_| Lit::with_polarity(Var::new(rng.below(n)), rng.chance(1, 2))),
        );
    }
    f
}

/// Every assignment of `n` variables, as value vectors.
fn assignments(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0u32..(1 << n)).map(move |bits| (0..n).map(|v| bits >> v & 1 == 1).collect())
}

#[test]
fn bdd_evaluation_matches_the_formula() {
    let mut rng = SplitMix64::new(0xbdd_e7a1);
    for case in 0..CASES {
        let f = random_cnf(&mut rng, 6);
        let mut mgr = BddManager::new(6);
        let bdd = build_from_cnf(&mut mgr, &f).unwrap();
        for a in assignments(6) {
            assert_eq!(mgr.eval(bdd, &a), f.evaluate(&a), "case {case}: {a:?}");
        }
    }
}

#[test]
fn count_sat_matches_brute_force() {
    let mut rng = SplitMix64::new(0xbdd_c0a7);
    for case in 0..CASES {
        let f = random_cnf(&mut rng, 6);
        let mut mgr = BddManager::new(6);
        let bdd = build_from_cnf(&mut mgr, &f).unwrap();
        let brute = assignments(6).filter(|a| f.evaluate(a)).count() as u128;
        assert_eq!(mgr.count_sat(bdd), brute, "case {case}");
    }
}

#[test]
fn any_sat_is_a_model() {
    let mut rng = SplitMix64::new(0xbdd_a5a7);
    for case in 0..CASES {
        let f = random_cnf(&mut rng, 6);
        let mut mgr = BddManager::new(6);
        let bdd = build_from_cnf(&mut mgr, &f).unwrap();
        match mgr.any_sat(bdd) {
            Some(a) => assert!(f.evaluate(&a), "case {case}"),
            None => assert_eq!(mgr.count_sat(bdd), 0, "case {case}"),
        }
    }
}

#[test]
fn min_cost_sat_is_optimal() {
    let mut rng = SplitMix64::new(0xbdd_0971);
    for case in 0..CASES {
        let f = random_cnf(&mut rng, 5);
        let costs: Vec<(f64, f64)> = (0..5)
            .map(|_| (rng.below(8) as f64, rng.below(8) as f64))
            .collect();
        let mut mgr = BddManager::new(5);
        let bdd = build_from_cnf(&mut mgr, &f).unwrap();
        let Some(got) = mgr.min_cost_sat(bdd, &costs) else {
            assert_eq!(mgr.count_sat(bdd), 0, "case {case}");
            continue;
        };
        assert!(f.evaluate(&got), "case {case}");
        let cost = |a: &[bool]| -> f64 {
            a.iter()
                .enumerate()
                .map(|(v, &x)| if x { costs[v].1 } else { costs[v].0 })
                .sum()
        };
        let best = assignments(5)
            .filter(|a| f.evaluate(a))
            .map(|a| cost(&a))
            .fold(f64::INFINITY, f64::min);
        assert!((cost(&got) - best).abs() < 1e-9, "case {case}");
    }
}

/// The function whose minterms over three variables are the set bits of
/// `mask`.
fn from_mask(m: &mut BddManager, mask: usize) -> modsyn_bdd::Bdd {
    let mut acc = m.zero();
    for bits in 0..8 {
        if mask >> bits & 1 == 1 {
            let mut term = m.one();
            for v in 0..3 {
                let lit = if bits >> v & 1 == 1 {
                    m.var(v).unwrap()
                } else {
                    m.nvar(v).unwrap()
                };
                term = m.and(term, lit).unwrap();
            }
            acc = m.or(acc, term).unwrap();
        }
    }
    acc
}

#[test]
fn boolean_algebra_laws_hold() {
    // Three functions from random minterm masks; distributivity and De
    // Morgan must hold structurally (handle equality = semantic equality).
    let mut rng = SplitMix64::new(0xbdd_1a35);
    for case in 0..CASES {
        let mut m = BddManager::new(3);
        let a = from_mask(&mut m, rng.below(64));
        let b = from_mask(&mut m, rng.below(64));
        let c = from_mask(&mut m, rng.below(64));
        // a ∧ (b ∨ c) == (a ∧ b) ∨ (a ∧ c)
        let bc = m.or(b, c).unwrap();
        let lhs = m.and(a, bc).unwrap();
        let ab = m.and(a, b).unwrap();
        let ac = m.and(a, c).unwrap();
        let rhs = m.or(ab, ac).unwrap();
        assert_eq!(lhs, rhs, "case {case}");
        // ¬(a ∧ b) == ¬a ∨ ¬b
        let nab = m.not(ab).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let dem = m.or(na, nb).unwrap();
        assert_eq!(nab, dem, "case {case}");
    }
}
