//! Cover complementation by Shannon expansion.

use crate::unate::RowStack;
use crate::{Cover, Cube};

/// Computes a cover of the complement `f'`.
///
/// Recursive Shannon expansion about the most binate variable, merging
/// `x·c + x'·c` into `c` on the way up, with single-cube complement (De
/// Morgan) at the leaves. The result is not minimal but is exact. The
/// recursion runs on the row-stack engine of `unate.rs`.
///
/// ```
/// use modsyn_logic::{complement, Cover, Cube};
/// let f = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
/// let g = complement(&f); // a' over two variables
/// assert!(g.covers_minterm(&[false, false]));
/// assert!(g.covers_minterm(&[false, true]));
/// assert!(!g.covers_minterm(&[true, false]));
/// ```
pub fn complement(cover: &Cover) -> Cover {
    let n = cover.num_vars();
    RowStack::new(n).complement(cover.cubes(), &Cube::full(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_tautology;

    fn cube(n: usize, lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(n, lits)
    }

    #[test]
    fn complement_of_zero_is_one() {
        let g = complement(&Cover::empty(3));
        assert!(is_tautology(&g));
    }

    #[test]
    fn complement_of_one_is_zero() {
        let g = complement(&Cover::one(3));
        assert!(g.is_empty());
    }

    #[test]
    fn union_with_complement_is_tautology() {
        let f = Cover::from_cubes(
            3,
            vec![
                cube(3, &[(0, true), (1, false)]),
                cube(3, &[(1, true), (2, true)]),
            ],
        );
        let g = complement(&f);
        assert!(is_tautology(&f.union(&g)));
        // And disjoint:
        assert!(f.intersect(&g).cubes().iter().all(|c| c.is_empty()) || f.intersect(&g).is_empty());
    }

    #[test]
    fn double_complement_is_identity_semantically() {
        let f = Cover::from_cubes(
            3,
            vec![cube(3, &[(0, true)]), cube(3, &[(1, false), (2, true)])],
        );
        let ff = complement(&complement(&f));
        assert!(f.semantically_equals(&ff));
    }

    #[test]
    fn complement_matches_brute_force_on_random_covers() {
        let n = 4;
        let mut seed = 0x2545f4914f6cdd1du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..40 {
            let mut cubes = Vec::new();
            for _ in 0..(next() % 5 + 1) {
                let mut c = Cube::full(n);
                for v in 0..n {
                    match next() % 3 {
                        0 => c.set_literal(v, Some(true)),
                        1 => c.set_literal(v, Some(false)),
                        _ => {}
                    }
                }
                cubes.push(c);
            }
            let f = Cover::from_cubes(n, cubes);
            let g = complement(&f);
            for bits in 0u32..(1 << n) {
                let values: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                assert_ne!(
                    f.covers_minterm(&values),
                    g.covers_minterm(&values),
                    "disagree on {values:?} for cover\n{f}"
                );
            }
        }
    }
}
