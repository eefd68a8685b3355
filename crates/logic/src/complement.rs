//! Cover complementation by Shannon expansion.

use crate::{Cover, Cube};

/// Computes a cover of the complement `f'`.
///
/// Recursive Shannon expansion about the most binate variable, with
/// single-cube complement (De Morgan) at the leaves. The result is not
/// minimal but is exact.
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
    if cover.is_empty() {
        return Cover::one(n);
    }
    if cover.cubes().iter().any(|c| c.literal_count() == 0) {
        return Cover::empty(n);
    }
    if cover.cube_count() == 1 {
        return complement_cube(n, &cover.cubes()[0]);
    }

    // If unate, De Morgan over rows would explode; Shannon still works and
    // most_binate falls back to the most frequent variable.
    let split = cover
        .most_binate_variable()
        .expect("nonempty cover with literals");
    let pos_co = complement(&cover.cofactor_literal(split, true));
    let neg_co = complement(&cover.cofactor_literal(split, false));

    let mut out = Cover::empty(n);
    for c in pos_co.cubes() {
        let mut c = c.clone();
        c.set_literal(split, Some(true));
        out.push(c);
    }
    for c in neg_co.cubes() {
        let mut c = c.clone();
        c.set_literal(split, Some(false));
        out.push(c);
    }
    merge_split(&mut out, split);
    out
}

/// Merge pairs differing only in the split literal (x·c + x'·c = c).
fn merge_split(cover: &mut Cover, split: usize) {
    let cubes = cover.cubes();
    let mut used = vec![false; cubes.len()];
    let mut merged = Vec::with_capacity(cubes.len());
    for i in 0..cubes.len() {
        if used[i] {
            continue;
        }
        let mut ci = cubes[i].clone();
        if let Some(pol) = ci.literal(split) {
            for (j, cj) in cubes.iter().enumerate().skip(i + 1) {
                if !used[j] && cj.literal(split) != Some(pol) && ci.eq_except(cj, split) {
                    used[j] = true;
                    ci.set_literal(split, None);
                    break;
                }
            }
        }
        merged.push(ci);
    }
    *cover = Cover::from_cubes(cover.num_vars(), merged);
}

/// De Morgan complement of a single cube: one unit cube per literal.
fn complement_cube(num_vars: usize, cube: &Cube) -> Cover {
    let mut out = Cover::empty(num_vars);
    for (v, pol) in cube.literal_iter() {
        out.push(Cube::from_literals(num_vars, &[(v, !pol)]));
    }
    out
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
