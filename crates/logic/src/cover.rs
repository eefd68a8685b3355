//! Sums of products.

use std::fmt;

use crate::unate::{PolarityCounts, RowStack};
use crate::Cube;

/// A sum of product terms over a fixed variable universe.
///
/// ```
/// use modsyn_logic::{Cover, Cube};
/// let f = Cover::from_cubes(2, vec![
///     Cube::from_literals(2, &[(0, true)]),
///     Cube::from_literals(2, &[(1, true)]),
/// ]);
/// assert!(f.covers_minterm(&[true, false]));
/// assert!(!f.covers_minterm(&[false, false]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// The empty cover (constant 0) over `num_vars`.
    pub fn empty(num_vars: usize) -> Self {
        Cover {
            num_vars,
            cubes: Vec::new(),
        }
    }

    /// A cover holding the single universal cube (constant 1).
    pub fn one(num_vars: usize) -> Self {
        Cover {
            num_vars,
            cubes: vec![Cube::full(num_vars)],
        }
    }

    /// Builds a cover from cubes; empty cubes are dropped.
    ///
    /// # Panics
    ///
    /// Panics if a cube's universe does not match `num_vars`.
    pub fn from_cubes(num_vars: usize, cubes: impl IntoIterator<Item = Cube>) -> Self {
        let cubes: Vec<Cube> = cubes
            .into_iter()
            .inspect(|c| assert_eq!(c.num_vars(), num_vars, "cube universe mismatch"))
            .filter(|c| !c.is_empty())
            .collect();
        Cover { num_vars, cubes }
    }

    /// Builds the cover of all given minterms.
    pub fn from_minterms<'a>(
        num_vars: usize,
        minterms: impl IntoIterator<Item = &'a [bool]>,
    ) -> Self {
        Cover::from_cubes(num_vars, minterms.into_iter().map(Cube::from_minterm))
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of product terms.
    pub fn cube_count(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Total literal count across cubes — the paper's area metric.
    pub fn literal_count(&self) -> usize {
        self.cubes.iter().map(Cube::literal_count).sum()
    }

    /// The product terms.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Adds a cube (ignored if empty).
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube universe mismatch");
        if !cube.is_empty() {
            self.cubes.push(cube);
        }
    }

    /// Removes the cube at `index` and returns it.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn remove(&mut self, index: usize) -> Cube {
        self.cubes.remove(index)
    }

    /// Whether the function is 1 on the given minterm.
    pub fn covers_minterm(&self, values: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.covers_minterm(values))
    }

    /// The cofactor of the cover with respect to `cube` (the Shannon
    /// generalised cofactor): rows disjoint from `cube` are dropped, the
    /// rest have `cube`'s literals raised to don't-care.
    pub fn cofactor(&self, cube: &Cube) -> Cover {
        let cubes = self
            .cubes
            .iter()
            .filter(|c| c.intersects(cube))
            .map(|c| c.raised_by(cube))
            .collect();
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Cofactor by a single literal.
    pub fn cofactor_literal(&self, var: usize, polarity: bool) -> Cover {
        self.cofactor(&Cube::from_literals(self.num_vars, &[(var, polarity)]))
    }

    /// Whether the cover contains every minterm of `cube` (single-cube
    /// containment via the tautology of the cofactor).
    ///
    /// # Panics
    ///
    /// Panics if `cube`'s universe does not match the cover's.
    pub fn covers_cube(&self, cube: &Cube) -> bool {
        RowStack::new(self.num_vars).tautology(&self.cubes, cube)
    }

    /// Union of two covers over the same universe.
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn union(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars, "cube universe mismatch");
        let mut cubes = self.cubes.clone();
        cubes.extend(other.cubes.iter().cloned());
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Pairwise intersection of two covers (product of sums of products).
    ///
    /// # Panics
    ///
    /// Panics if the universes differ.
    pub fn intersect(&self, other: &Cover) -> Cover {
        assert_eq!(self.num_vars, other.num_vars, "cube universe mismatch");
        let mut cubes = Vec::new();
        for a in &self.cubes {
            for b in &other.cubes {
                let c = a.intersection(b);
                if !c.is_empty() {
                    cubes.push(c);
                }
            }
        }
        Cover {
            num_vars: self.num_vars,
            cubes,
        }
    }

    /// Removes cubes single-cube-contained in another cube of the cover:
    /// in order, what stays is each cube no other cube strictly contains,
    /// plus the first copy of each duplicate.
    ///
    /// Containment is a subset test on the slot bits, so only a cube with
    /// more set bits can strictly contain another. The cubes are visited
    /// from most bits to fewest, equal cubes side by side with the first
    /// copy leading, and each is tested only against the survivors with
    /// more bits: an ON-set of distinct minterms costs one sort.
    pub fn drop_contained(&mut self) {
        let cubes = &self.cubes;
        let bits: Vec<u32> = cubes.iter().map(Cube::set_bits).collect();
        let mut order: Vec<usize> = (0..cubes.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            bits[b]
                .cmp(&bits[a])
                .then_with(|| cubes[a].cmp(&cubes[b]))
                .then(a.cmp(&b))
        });
        let mut keep = vec![false; cubes.len()];
        let mut kept: Vec<usize> = Vec::new();
        // `kept[..wider]` have more set bits than the cube at hand.
        let mut wider = 0;
        let mut prev: Option<usize> = None;
        for &i in &order {
            match prev.replace(i) {
                Some(p) if bits[p] != bits[i] => wider = kept.len(),
                Some(p) if cubes[p] == cubes[i] => continue,
                _ => {}
            }
            if !kept[..wider].iter().any(|&j| cubes[j].contains(&cubes[i])) {
                keep[i] = true;
                kept.push(i);
            }
        }
        let mut it = keep.iter();
        self.cubes
            .retain(|_| *it.next().expect("keep has one entry per cube"));
    }

    /// Picks the most binate variable (appears in both polarities, maximum
    /// occurrence count); falls back to the most frequent literal variable.
    /// `None` if no cube carries a literal. This is the split rule of
    /// [`complement`](fn@crate::complement) and
    /// [`is_tautology`](crate::is_tautology).
    pub fn most_binate_variable(&self) -> Option<usize> {
        let mut counts = PolarityCounts::default();
        counts.reset(self.num_vars);
        for c in &self.cubes {
            counts.add(c.words());
        }
        counts.split().map(|(var, _)| var)
    }

    /// Exhaustive semantic equality check (2^n evaluation). Intended for
    /// tests and verification on small universes.
    ///
    /// # Panics
    ///
    /// Panics if the universe exceeds 24 variables.
    pub fn semantically_equals(&self, other: &Cover) -> bool {
        assert!(
            self.num_vars <= 24,
            "too many variables for exhaustive check"
        );
        debug_assert_eq!(self.num_vars, other.num_vars);
        let mut values = vec![false; self.num_vars];
        for bits in 0u64..(1u64 << self.num_vars) {
            for (v, val) in values.iter_mut().enumerate() {
                *val = bits >> v & 1 == 1;
            }
            if self.covers_minterm(&values) != other.covers_minterm(&values) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Cover {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cubes.is_empty() {
            return write!(f, "0");
        }
        for (i, c) in self.cubes.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2() -> Cover {
        Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true), (1, false)]),
                Cube::from_literals(2, &[(0, false), (1, true)]),
            ],
        )
    }

    #[test]
    fn evaluation_matches_semantics() {
        let f = xor2();
        assert!(!f.covers_minterm(&[false, false]));
        assert!(f.covers_minterm(&[true, false]));
        assert!(f.covers_minterm(&[false, true]));
        assert!(!f.covers_minterm(&[true, true]));
    }

    #[test]
    fn cofactor_by_literal() {
        let f = xor2();
        let f_a = f.cofactor_literal(0, true); // should be b'
        assert!(f_a.covers_minterm(&[true, false]));
        assert!(f_a.covers_minterm(&[false, false])); // a raised to dc
        assert!(!f_a.covers_minterm(&[false, true]));
    }

    #[test]
    fn covers_cube_via_tautology() {
        let f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(0, false)]),
            ],
        );
        assert!(f.covers_cube(&Cube::full(2)));
        let g = xor2();
        assert!(!g.covers_cube(&Cube::full(2)));
        assert!(g.covers_cube(&Cube::from_literals(2, &[(0, true), (1, false)])));
    }

    #[test]
    fn union_and_intersect() {
        let a = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(0, true)])]);
        let b = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(1, true)])]);
        let u = a.union(&b);
        assert_eq!(u.cube_count(), 2);
        let i = a.intersect(&b);
        assert_eq!(i.cube_count(), 1);
        assert!(i.covers_minterm(&[true, true]));
        assert!(!i.covers_minterm(&[true, false]));
    }

    #[test]
    fn drop_contained_removes_subsumed_rows() {
        let mut f = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, true)]),
                Cube::from_literals(2, &[(0, true), (1, true)]),
                Cube::from_literals(2, &[(0, true)]), // duplicate
            ],
        );
        f.drop_contained();
        assert_eq!(f.cube_count(), 1);
        assert_eq!(f.cubes()[0].literal_count(), 1);
    }

    /// The quadratic loop [`Cover::drop_contained`] replaced, kept as its
    /// reference: each surviving cube is tested against every other
    /// survivor, and of two equal cubes the later one goes.
    fn drop_contained_reference(cubes: &[Cube]) -> Vec<Cube> {
        let mut keep = vec![true; cubes.len()];
        for i in 0..cubes.len() {
            if !keep[i] {
                continue;
            }
            for j in 0..cubes.len() {
                if i == j || !keep[j] {
                    continue;
                }
                if cubes[j].contains(&cubes[i]) && (cubes[i] != cubes[j] || i > j) {
                    keep[i] = false;
                    break;
                }
            }
        }
        let mut it = keep.iter();
        let mut kept = cubes.to_vec();
        kept.retain(|_| *it.next().expect("keep has one entry per cube"));
        kept
    }

    #[test]
    fn drop_contained_matches_the_quadratic_reference() {
        let mut seed = 0x0dd5_c0de_5eed_f00du64;
        let mut next = move |below: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % below as u64) as usize
        };
        // One-word and two-word universes; literals sit on a few variables
        // at both ends of each word, so containment is common.
        for n in [5, 32, 33, 64] {
            let active = [0, 1, n / 2, n - 2, n - 1];
            for round in 0..300 {
                let mut cubes: Vec<Cube> = Vec::new();
                for _ in 0..next(40) {
                    let var = active[next(active.len())];
                    let pick = (!cubes.is_empty()).then(|| cubes[next(cubes.len())].clone());
                    let cube = match (next(5), pick) {
                        (0, Some(c)) => c,
                        (1, Some(mut c)) => {
                            if c.literal(var).is_none() {
                                c.set_literal(var, Some(next(2) == 0));
                            }
                            c
                        }
                        (2, Some(mut c)) => {
                            c.set_literal(var, None);
                            c
                        }
                        (3, Some(c)) => {
                            let pol = c.literal(var).unwrap_or(true);
                            c.intersection(&Cube::from_literals(n, &[(var, !pol)]))
                        }
                        _ => {
                            let mut c = Cube::full(n);
                            for &v in &active {
                                match next(3) {
                                    0 => c.set_literal(v, Some(true)),
                                    1 => c.set_literal(v, Some(false)),
                                    _ => {}
                                }
                            }
                            c
                        }
                    };
                    cubes.push(cube);
                }
                let mut cover = Cover {
                    num_vars: n,
                    cubes: cubes.clone(),
                };
                cover.drop_contained();
                assert_eq!(
                    cover.cubes,
                    drop_contained_reference(&cubes),
                    "{n} variables, round {round}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cube universe mismatch")]
    fn union_rejects_another_universe() {
        let _ = Cover::one(2).union(&Cover::one(3));
    }

    #[test]
    #[should_panic(expected = "cube universe mismatch")]
    fn intersect_rejects_another_universe() {
        let _ = Cover::one(2).intersect(&Cover::one(3));
    }

    #[test]
    #[should_panic(expected = "cube universe mismatch")]
    fn covers_cube_rejects_another_universe() {
        let _ = Cover::one(2).covers_cube(&Cube::full(3));
    }

    #[test]
    fn most_binate_picks_split_variable() {
        let f = xor2();
        let v = f.most_binate_variable().unwrap();
        assert!(v == 0 || v == 1);
        let unate = Cover::from_cubes(2, vec![Cube::from_literals(2, &[(1, true)])]);
        assert_eq!(unate.most_binate_variable(), Some(1));
        assert_eq!(Cover::one(2).most_binate_variable(), None);
    }

    #[test]
    fn constants() {
        assert!(Cover::empty(3).is_empty());
        assert!(Cover::one(3).covers_minterm(&[false, true, false]));
        assert_eq!(Cover::empty(2).to_string(), "0");
    }

    #[test]
    fn semantic_equality() {
        let f = xor2();
        let g = Cover::from_cubes(
            2,
            vec![
                Cube::from_literals(2, &[(0, false), (1, true)]),
                Cube::from_literals(2, &[(0, true), (1, false)]),
            ],
        );
        assert!(f.semantically_equals(&g));
        assert!(!f.semantically_equals(&Cover::one(2)));
    }
}
