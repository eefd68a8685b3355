//! Tautology checking via the unate-recursive paradigm.

use crate::unate::RowStack;
use crate::{Cover, Cube};

/// Whether the cover represents the constant-1 function.
///
/// Uses the classic unate-recursive scheme: quick unate checks at each node,
/// Shannon expansion about the most binate variable otherwise. The
/// recursion runs on the row-stack engine of `unate.rs`.
///
/// ```
/// use modsyn_logic::{is_tautology, Cover, Cube};
/// let f = Cover::from_cubes(1, vec![
///     Cube::from_literals(1, &[(0, true)]),
///     Cube::from_literals(1, &[(0, false)]),
/// ]);
/// assert!(is_tautology(&f));
/// ```
pub fn is_tautology(cover: &Cover) -> bool {
    let n = cover.num_vars();
    RowStack::new(n).tautology(cover.cubes(), &Cube::full(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(n: usize, lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(n, lits)
    }

    #[test]
    fn constant_one_is_tautology() {
        assert!(is_tautology(&Cover::one(4)));
    }

    #[test]
    fn constant_zero_is_not() {
        assert!(!is_tautology(&Cover::empty(4)));
    }

    #[test]
    fn single_literal_is_not_tautology() {
        let f = Cover::from_cubes(2, vec![cube(2, &[(0, true)])]);
        assert!(!is_tautology(&f));
    }

    #[test]
    fn complementary_pair_is_tautology() {
        let f = Cover::from_cubes(3, vec![cube(3, &[(1, true)]), cube(3, &[(1, false)])]);
        assert!(is_tautology(&f));
    }

    #[test]
    fn full_minterm_expansion_is_tautology() {
        let n = 3;
        let mut cubes = Vec::new();
        for bits in 0..(1 << n) {
            let lits: Vec<(usize, bool)> = (0..n).map(|v| (v, bits >> v & 1 == 1)).collect();
            cubes.push(cube(n, &lits));
        }
        assert!(is_tautology(&Cover::from_cubes(n, cubes)));
    }

    #[test]
    fn missing_one_minterm_is_not_tautology() {
        let n = 3;
        let mut cubes = Vec::new();
        for bits in 1..(1 << n) {
            let lits: Vec<(usize, bool)> = (0..n).map(|v| (v, bits >> v & 1 == 1)).collect();
            cubes.push(cube(n, &lits));
        }
        assert!(!is_tautology(&Cover::from_cubes(n, cubes)));
    }

    #[test]
    fn mixed_granularity_tautology() {
        // a + a'b + a'b' = 1.
        let f = Cover::from_cubes(
            2,
            vec![
                cube(2, &[(0, true)]),
                cube(2, &[(0, false), (1, true)]),
                cube(2, &[(0, false), (1, false)]),
            ],
        );
        assert!(is_tautology(&f));
    }

    #[test]
    fn agrees_with_exhaustive_on_random_covers() {
        // Deterministic pseudo-random covers, checked against brute force.
        let n = 4;
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..50 {
            let mut cubes = Vec::new();
            let count = (next() % 6 + 1) as usize;
            for _ in 0..count {
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
            let brute = (0u32..(1 << n)).all(|bits| {
                let values: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
                f.covers_minterm(&values)
            });
            assert_eq!(is_tautology(&f), brute, "cover:\n{f}");
        }
    }
}
