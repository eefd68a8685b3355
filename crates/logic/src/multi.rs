//! Multi-output two-level minimisation with shared product terms.
//!
//! The paper's area metric is per-output (`espresso -Dso`); real PLAs share
//! AND-plane terms between outputs. This module minimises a bank of
//! functions over a common input universe, representing each product term
//! as an input cube plus an **output mask** — the set of functions the term
//! feeds. The loop mirrors espresso: expand input parts against the
//! per-output OFF-sets, widen output masks, and drop per-output redundant
//! connections.

use std::collections::HashMap;

use crate::espresso::minimize_with_off;
use crate::unate::RowStack;
use crate::{complement, Cover, Cube};

/// One shared product term: an input cube feeding the outputs in `outputs`
/// (bit `o` set = term is part of function `o`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCube {
    /// The input product.
    pub cube: Cube,
    /// Output connection mask.
    pub outputs: u64,
}

/// A multi-output cover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCover {
    num_vars: usize,
    num_outputs: usize,
    cubes: Vec<MultiCube>,
}

impl MultiCover {
    /// The shared product terms.
    pub fn cubes(&self) -> &[MultiCube] {
        &self.cubes
    }

    /// Number of distinct product terms (AND gates / PLA rows).
    pub fn term_count(&self) -> usize {
        self.cubes.len()
    }

    /// Input literals summed over distinct terms — the shared-AND-plane
    /// cost.
    pub fn input_literal_count(&self) -> usize {
        self.cubes.iter().map(|m| m.cube.literal_count()).sum()
    }

    /// Output connections (OR-plane contacts).
    pub fn output_connection_count(&self) -> usize {
        self.cubes
            .iter()
            .map(|m| m.outputs.count_ones() as usize)
            .sum()
    }

    /// The single-output view of function `o`.
    pub fn function(&self, o: usize) -> Cover {
        Cover::from_cubes(
            self.num_vars,
            self.cubes
                .iter()
                .filter(|m| m.outputs >> o & 1 == 1)
                .map(|m| m.cube.clone()),
        )
    }
}

/// Minimises the function bank `(on[i], dc[i])` into a shared-term cover.
///
/// Every `on[i]`/`dc[i]` pair must live in the same input universe. Result
/// guarantee: each output's function is semantically unchanged
/// (covers its ON-set, avoids its OFF-set); terms are input-prime with
/// maximal output masks; no output connection is redundant.
///
/// # Panics
///
/// Panics if the universes disagree or more than 64 outputs are given.
pub fn minimize_multi(on: &[Cover], dc: &[Cover]) -> MultiCover {
    assert_eq!(on.len(), dc.len(), "one dc set per output");
    assert!(on.len() <= 64, "at most 64 outputs");
    assert!(!on.is_empty(), "at least one output");
    let n = on[0].num_vars();
    for c in on.iter().chain(dc) {
        assert_eq!(c.num_vars(), n, "shared input universe");
    }
    let m = on.len();
    let offs: Vec<Cover> = (0..m).map(|o| complement(&on[o].union(&dc[o]))).collect();

    // Seed: per-output minimised covers, then merge equal input cubes.
    let mut seed: HashMap<Cube, u64> = HashMap::new();
    for (o, cover) in on.iter().enumerate() {
        let single = minimize_with_off(cover, &dc[o], &offs[o]);
        for cube in single.cover.cubes() {
            *seed.entry(cube.clone()).or_insert(0) |= 1 << o;
        }
    }
    let mut cubes: Vec<MultiCube> = seed
        .into_iter()
        .map(|(cube, outputs)| MultiCube { cube, outputs })
        .collect();
    cubes.sort_by(|a, b| a.cube.cmp(&b.cube).then(a.outputs.cmp(&b.outputs)));

    // Expand phase: raise input literals where every connected output's
    // OFF-set permits; then widen the output mask with every compatible,
    // useful output.
    #[allow(clippy::needless_range_loop)] // `cubes` is re-borrowed mutably inside the loop
    for i in 0..cubes.len() {
        let mut cube = cubes[i].cube.clone();
        let mask = cubes[i].outputs;
        for (v, _pol) in cube.literals() {
            let mut raised = cube.clone();
            raised.set_literal(v, None);
            let ok = (0..m)
                .filter(|&o| mask >> o & 1 == 1)
                .all(|o| !offs[o].cubes().iter().any(|oc| oc.intersects(&raised)));
            if ok {
                cube = raised;
            }
        }
        let mut outputs = mask;
        for o in 0..m {
            if outputs >> o & 1 == 1 {
                continue;
            }
            let off_clash = offs[o].cubes().iter().any(|oc| oc.intersects(&cube));
            let useful = on[o].cubes().iter().any(|c| c.intersects(&cube));
            if !off_clash && useful {
                outputs |= 1 << o;
            }
        }
        cubes[i] = MultiCube { cube, outputs };
    }

    // Irredundant phase, per output: drop connections whose contribution
    // is covered by the other connected terms plus the don't-cares.
    let mut stack = RowStack::new(n);
    #[allow(clippy::needless_range_loop)] // `o` also masks `cubes[i].outputs`
    for o in 0..m {
        // Process most-specific terms first, as in the single-output loop.
        let mut order: Vec<usize> = (0..cubes.len())
            .filter(|&i| cubes[i].outputs >> o & 1 == 1)
            .collect();
        order.sort_by_key(|&i| std::cmp::Reverse(cubes[i].cube.literal_count()));
        for &i in &order {
            let rest = cubes
                .iter()
                .enumerate()
                .filter(|&(j, mc)| j != i && mc.outputs >> o & 1 == 1)
                .map(|(_, mc)| &mc.cube)
                .chain(dc[o].cubes());
            if stack.tautology(rest, &cubes[i].cube) {
                cubes[i].outputs &= !(1 << o);
            }
        }
    }
    cubes.retain(|mc| mc.outputs != 0);

    let result = MultiCover {
        num_vars: n,
        num_outputs: m,
        cubes,
    };
    debug_assert!((0..m).all(|o| {
        let f = result.function(o);
        let within = f.union(&dc[o]);
        let mut stack = RowStack::new(n);
        on[o]
            .cubes()
            .iter()
            .all(|c| stack.tautology(within.cubes(), c))
            && f.cubes()
                .iter()
                .all(|c| !offs[o].cubes().iter().any(|oc| oc.intersects(c)))
    }));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(n: usize, lits: &[(usize, bool)]) -> Cube {
        Cube::from_literals(n, lits)
    }

    #[test]
    fn shared_term_is_discovered() {
        // f0 = ab, f1 = ab + c: the ab term should be shared.
        let f0 = Cover::from_cubes(3, vec![cube(3, &[(0, true), (1, true)])]);
        let f1 = Cover::from_cubes(
            3,
            vec![cube(3, &[(0, true), (1, true)]), cube(3, &[(2, true)])],
        );
        let dc = vec![Cover::empty(3), Cover::empty(3)];
        let result = minimize_multi(&[f0.clone(), f1.clone()], &dc);
        assert_eq!(result.term_count(), 2, "{:?}", result.cubes());
        let shared = result
            .cubes()
            .iter()
            .find(|mc| mc.outputs == 0b11)
            .expect("ab is shared");
        assert_eq!(shared.cube.literal_count(), 2);
        assert!(result.function(0).semantically_equals(&f0));
        assert!(result.function(1).semantically_equals(&f1));
    }

    #[test]
    fn functions_stay_correct_on_random_banks() {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let n = 4usize;
            let m = 3usize;
            let mut on: Vec<Cover> = Vec::new();
            for _ in 0..m {
                let minterms: Vec<Vec<bool>> = (0..(1u32 << n))
                    .filter(|_| next() % 3 == 0)
                    .map(|bits| (0..n).map(|v| bits >> v & 1 == 1).collect())
                    .collect();
                on.push(Cover::from_minterms(n, minterms.iter().map(Vec::as_slice)));
            }
            let dc = vec![Cover::empty(n); m];
            let result = minimize_multi(&on, &dc);
            for (o, f) in on.iter().enumerate() {
                assert!(
                    result.function(o).semantically_equals(f),
                    "output {o} changed"
                );
            }
            // Sharing can never use more distinct terms than the seed
            // single-output covers combined.
            let single_total: usize = on
                .iter()
                .map(|f| crate::minimize(f, &Cover::empty(n)).cover.cube_count())
                .sum();
            assert!(result.term_count() <= single_total);
        }
    }

    #[test]
    fn identical_functions_collapse_to_one_term_set() {
        let f = Cover::from_cubes(2, vec![cube(2, &[(0, true)])]);
        let result = minimize_multi(
            &[f.clone(), f.clone(), f.clone()],
            &[Cover::empty(2), Cover::empty(2), Cover::empty(2)],
        );
        assert_eq!(result.term_count(), 1);
        assert_eq!(result.cubes()[0].outputs, 0b111);
        assert_eq!(result.output_connection_count(), 3);
        assert_eq!(result.input_literal_count(), 1);
    }

    #[test]
    fn redundant_connections_are_dropped() {
        // f0 = a + ab: the ab connection to f0 is redundant after sharing.
        let f0 = Cover::from_cubes(2, vec![cube(2, &[(0, true)])]);
        let f1 = Cover::from_cubes(2, vec![cube(2, &[(0, true), (1, true)])]);
        let result = minimize_multi(
            &[f0.clone(), f1.clone()],
            &[Cover::empty(2), Cover::empty(2)],
        );
        for o in 0..2 {
            let f = result.function(o);
            assert!(f.semantically_equals(if o == 0 { &f0 } else { &f1 }));
        }
        // f1's only term is ab (a would hit f1's OFF-set), f0's is a.
        assert!(result.cubes().iter().all(|mc| mc.outputs.count_ones() == 1));
    }

    #[test]
    fn dont_cares_enable_wider_sharing() {
        // f0 = ab with b' don't-care -> expands to a, sharable with f1 = a.
        let f0 = Cover::from_cubes(2, vec![cube(2, &[(0, true), (1, true)])]);
        let dc0 = Cover::from_cubes(2, vec![cube(2, &[(0, true), (1, false)])]);
        let f1 = Cover::from_cubes(2, vec![cube(2, &[(0, true)])]);
        let result = minimize_multi(&[f0, f1], &[dc0, Cover::empty(2)]);
        assert_eq!(result.term_count(), 1);
        assert_eq!(result.cubes()[0].outputs, 0b11);
    }
}
