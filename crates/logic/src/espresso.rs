//! The espresso minimisation loop: EXPAND, IRREDUNDANT, REDUCE.

use crate::unate::RowStack;
use crate::{complement, Cover, Cube};

/// Result of [`minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeResult {
    /// The minimised (prime, irredundant) cover.
    pub cover: Cover,
    /// Number of EXPAND/REDUCE iterations performed.
    pub iterations: usize,
}

impl MinimizeResult {
    /// Literal count of the result — the paper's two-level area metric.
    pub fn literal_count(&self) -> usize {
        self.cover.literal_count()
    }
}

/// EXPAND: raise each cube to a prime implicant against the OFF-set. A
/// cube an earlier prime contains is skipped, and a new prime drops the
/// earlier ones it contains, so no cube of the result contains another.
///
/// Cubes are processed largest-first so big primes get a chance to absorb
/// smaller cubes. Within a cube, raising is attempted on every literal in a
/// blocking-aware order (literals conflicting with the fewest OFF-cubes
/// first).
pub fn expand(cover: &Cover, off: &Cover) -> Cover {
    let n = cover.num_vars();
    let mut cubes = cover.cubes().to_vec();
    cubes.sort_by_key(|c| c.literal_count());

    // `off_literals[2 * v + p]` counts the OFF-cubes with literal `v = p`:
    // the cubes that block raising a literal `v = !p`.
    let mut off_literals = vec![0usize; 2 * n];
    for (v, pol) in off.cubes().iter().flat_map(Cube::literal_iter) {
        off_literals[2 * v + usize::from(pol)] += 1;
    }

    let mut out: Vec<Cube> = Vec::with_capacity(cubes.len());
    for mut cube in cubes {
        // Skip if an already-expanded prime covers this cube.
        if out.iter().any(|p| p.contains(&cube)) {
            continue;
        }
        // Order candidate raises: fewest OFF-set conflicts first.
        let mut lits = cube.literals();
        lits.sort_by_key(|&(v, pol)| off_literals[2 * v + usize::from(!pol)]);
        for (v, _pol) in lits {
            let mut raised = cube.clone();
            raised.set_literal(v, None);
            if !off.cubes().iter().any(|oc| oc.intersects(&raised)) {
                cube = raised;
            }
        }
        out.retain(|p| !cube.contains(p));
        out.push(cube);
    }
    Cover::from_cubes(n, out)
}

/// IRREDUNDANT: greedily removes cubes covered by the rest of the cover plus
/// the don't-care set.
///
/// Cubes with the most literals (the most specific) are tried first, so the
/// surviving cover leans on large primes.
pub fn irredundant(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_vars();
    let cubes = cover.cubes();
    // Most-specific first: they are the most likely to be redundant.
    let mut order: Vec<usize> = (0..cubes.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].literal_count()));

    let mut removed = vec![false; cubes.len()];
    let mut stack = RowStack::new(n);
    for &i in &order {
        let rest = cubes
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i && !removed[j])
            .map(|(_, c)| c)
            .chain(dc.cubes());
        if stack.tautology(rest, &cubes[i]) {
            removed[i] = true;
        }
    }
    let survivors = cubes
        .iter()
        .zip(&removed)
        .filter(|&(_, &gone)| !gone)
        .map(|(c, _)| c.clone());
    Cover::from_cubes(n, survivors)
}

/// REDUCE: shrinks each cube to the smallest cube that still covers its
/// private part of the ON-set, opening room for the next EXPAND to escape a
/// local minimum.
///
/// Implements the classic formula `c~ = c ∩ supercube(complement((F∖c ∪ D)
/// cofactored by c))`, applied sequentially so coverage is preserved.
pub fn reduce(cover: &Cover, dc: &Cover) -> Cover {
    let n = cover.num_vars();
    let mut cubes = cover.cubes().to_vec();
    // Largest cubes first: standard espresso ordering for REDUCE.
    cubes.sort_by_key(Cube::literal_count);

    let mut reduced: Vec<Option<Cube>> = cubes.iter().cloned().map(Some).collect();
    let mut stack = RowStack::new(n);
    for (i, c) in cubes.iter().enumerate() {
        let rest = reduced
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .filter_map(|(_, x)| x.as_ref())
            .chain(dc.cubes());
        let comp = stack.complement(rest, c);
        reduced[i] = match comp.cubes() {
            // The rest covers everything under c: c can vanish entirely.
            [] => None,
            [first, more @ ..] => {
                let sup = more.iter().fold(first.clone(), |acc, k| acc.supercube(k));
                Some(c.intersection(&sup))
            }
        };
    }
    Cover::from_cubes(n, reduced.into_iter().flatten().filter(|c| !c.is_empty()))
}

/// Runs the full espresso loop: EXPAND, IRREDUNDANT, then REDUCE/EXPAND/
/// IRREDUNDANT until the cost (cube count, then literal count) stops
/// improving. The result is a prime and irredundant cover of `on` within
/// `on ∪ dc`.
///
/// # Panics
///
/// Panics (debug assertions) if the result fails verification: it must cover
/// every ON-set cube and stay disjoint from the OFF-set.
pub fn minimize(on: &Cover, dc: &Cover) -> MinimizeResult {
    assert_eq!(dc.num_vars(), on.num_vars(), "on/dc universe mismatch");
    minimize_with_off(on, dc, &complement(&on.union(dc)))
}

/// [`minimize`] with the OFF-set `off = complement(on ∪ dc)` already
/// built, for callers that need it themselves.
pub(crate) fn minimize_with_off(on: &Cover, dc: &Cover, off: &Cover) -> MinimizeResult {
    let mut f = on.clone();
    f.drop_contained();
    f = expand(&f, off);
    f = irredundant(&f, dc);

    let mut iterations = 1usize;
    loop {
        let cost = (f.cube_count(), f.literal_count());
        let reduced = reduce(&f, dc);
        let expanded = expand(&reduced, off);
        let candidate = irredundant(&expanded, dc);
        let new_cost = (candidate.cube_count(), candidate.literal_count());
        iterations += 1;
        if new_cost < cost {
            f = candidate;
        } else {
            break;
        }
        if iterations > 20 {
            break; // safety net; espresso converges in a few passes
        }
    }

    debug_assert!(
        {
            let within = f.union(dc);
            let mut stack = RowStack::new(on.num_vars());
            on.cubes()
                .iter()
                .all(|c| stack.tautology(within.cubes(), c))
        },
        "minimised cover lost part of the ON-set"
    );
    debug_assert!(
        f.cubes()
            .iter()
            .all(|c| !off.cubes().iter().any(|oc| oc.intersects(c))),
        "minimised cover intersects the OFF-set"
    );

    MinimizeResult {
        cover: f,
        iterations,
    }
}

/// [`minimize`] wrapped in an `espresso` observability span recording cube
/// counts before/after, the literal count, and the iteration total. With a
/// disabled tracer this is exactly [`minimize`].
pub fn minimize_traced(on: &Cover, dc: &Cover, tracer: &modsyn_obs::Tracer) -> MinimizeResult {
    if !tracer.is_enabled() {
        return minimize(on, dc);
    }
    let _span = tracer.span("espresso");
    tracer.gauge("cubes_in", on.cube_count() as f64);
    let result = minimize(on, dc);
    tracer.counter("iterations", result.iterations as u64);
    tracer.gauge("cubes_out", result.cover.cube_count() as f64);
    tracer.gauge("literals", result.literal_count() as f64);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::is_tautology;

    fn cube(n: usize, lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(n, lits)
    }

    #[test]
    fn merge_adjacent_minterms() {
        // ab + ab' = a.
        let on = Cover::from_cubes(
            2,
            vec![
                cube(2, &[(0, true), (1, true)]),
                cube(2, &[(0, true), (1, false)]),
            ],
        );
        let r = minimize(&on, &Cover::empty(2));
        assert_eq!(r.cover.cube_count(), 1);
        assert_eq!(r.cover.literal_count(), 1);
        assert!(r.cover.semantically_equals(&on));
    }

    #[test]
    fn xor_cannot_be_reduced() {
        let on = Cover::from_cubes(
            2,
            vec![
                cube(2, &[(0, true), (1, false)]),
                cube(2, &[(0, false), (1, true)]),
            ],
        );
        let r = minimize(&on, &Cover::empty(2));
        assert_eq!(r.cover.cube_count(), 2);
        assert_eq!(r.cover.literal_count(), 4);
    }

    #[test]
    fn dont_cares_enable_collapse() {
        // ON = {11}, DC = {10, 01, 00}: function can become constant 1.
        let on = Cover::from_cubes(2, vec![cube(2, &[(0, true), (1, true)])]);
        let dc = Cover::from_cubes(
            2,
            vec![cube(2, &[(0, true), (1, false)]), cube(2, &[(0, false)])],
        );
        let r = minimize(&on, &dc);
        assert_eq!(r.cover.literal_count(), 0);
        assert!(is_tautology(&r.cover));
    }

    #[test]
    fn minimize_traced_records_an_espresso_span() {
        let on = Cover::from_cubes(
            2,
            vec![
                cube(2, &[(0, true), (1, true)]),
                cube(2, &[(0, true), (1, false)]),
            ],
        );
        let tracer = modsyn_obs::Tracer::enabled();
        let r = minimize_traced(&on, &Cover::empty(2), &tracer);
        let report = tracer.report();
        let spans = report.spans_with_prefix("espresso");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].gauge("cubes_in"), Some(2.0));
        assert_eq!(spans[0].gauge("cubes_out"), Some(1.0));
        assert_eq!(spans[0].counter("iterations"), Some(r.iterations as u64));
    }

    #[test]
    fn redundant_consensus_cube_is_removed() {
        // ab + a'c + bc: the bc term is redundant.
        let on = Cover::from_cubes(
            3,
            vec![
                cube(3, &[(0, true), (1, true)]),
                cube(3, &[(0, false), (2, true)]),
                cube(3, &[(1, true), (2, true)]),
            ],
        );
        let r = minimize(&on, &Cover::empty(3));
        assert_eq!(r.cover.cube_count(), 2);
        assert!(r.cover.semantically_equals(&on));
    }

    #[test]
    fn expanded_cubes_are_prime() {
        let on = Cover::from_cubes(
            3,
            vec![
                cube(3, &[(0, true), (1, true), (2, true)]),
                cube(3, &[(0, true), (1, true), (2, false)]),
                cube(3, &[(0, true), (1, false), (2, true)]),
            ],
        );
        let r = minimize(&on, &Cover::empty(3));
        // Every cube must be prime: raising any literal must hit the OFF-set.
        let off = complement(&on);
        for c in r.cover.cubes() {
            for (v, _) in c.literals() {
                let mut raised = c.clone();
                raised.set_literal(v, None);
                assert!(
                    off.cubes().iter().any(|oc| oc.intersects(&raised)),
                    "cube {c} is not prime (raising var {v} stays valid)"
                );
            }
        }
    }

    #[test]
    fn majority_function_minimises_to_three_cubes() {
        // maj(a,b,c) minterms: 011 101 110 111 -> ab + ac + bc.
        let on = Cover::from_minterms(
            3,
            [
                &[false, true, true][..],
                &[true, false, true],
                &[true, true, false],
                &[true, true, true],
            ],
        );
        let r = minimize(&on, &Cover::empty(3));
        assert_eq!(r.cover.cube_count(), 3);
        assert_eq!(r.cover.literal_count(), 6);
        assert!(r.cover.semantically_equals(&on));
    }

    #[test]
    fn random_functions_round_trip_semantically() {
        let n = 4;
        let mut seed = 0xdeadbeefcafef00du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..25 {
            let truth: Vec<bool> = (0..(1 << n)).map(|_| next() % 2 == 0).collect();
            let minterms: Vec<Vec<bool>> = truth
                .iter()
                .enumerate()
                .filter(|&(_, &t)| t)
                .map(|(bits, _)| (0..n).map(|v| bits >> v & 1 == 1).collect())
                .collect();
            if minterms.is_empty() {
                continue;
            }
            let on = Cover::from_minterms(n, minterms.iter().map(|m| m.as_slice()));
            let r = minimize(&on, &Cover::empty(n));
            assert!(
                r.cover.semantically_equals(&on),
                "on:\n{on}\nresult:\n{}",
                r.cover
            );
            assert!(r.cover.literal_count() <= on.literal_count());
        }
    }

    #[test]
    fn reduce_keeps_coverage() {
        let on = Cover::from_cubes(3, vec![cube(3, &[(0, true)]), cube(3, &[(1, true)])]);
        let reduced = reduce(&on, &Cover::empty(3));
        for c in on.cubes() {
            assert!(reduced.covers_cube(c), "lost {c}");
        }
    }
}
