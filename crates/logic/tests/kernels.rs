//! Differential test of the cube kernels against a per-variable model, and
//! of COMPLEMENT and TAUTOLOGY against the classic recursions.
//!
//! Every kernel works on packed words; the model is one `Option<bool>` per
//! variable (`None` = don't-care). Universe sizes straddle the 32-variable
//! word boundary, the inline/heap boundary at 64 variables and the masking
//! of a partly used last word.
//!
//! COMPLEMENT and TAUTOLOGY run on the library's row-stack engine. The
//! [`reference`] module keeps the recursions it replaced, written against
//! the public `Cube` and `Cover` API only, and the engine must return the
//! same cube list, in the same order, and the same tautology answer:
//! EXPAND's raise order reads the OFF-set's cube list, so the covers depend
//! on that order.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use modsyn_logic::{complement, is_tautology, Cover, Cube};

type Model = Vec<Option<bool>>;

const SIZES: [usize; 9] = [1, 31, 32, 33, 63, 64, 65, 70, 96];

/// xorshift64: a fixed, dependency-free pseudo-random stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random model; `density` in sixteenths is the chance of a literal, so
/// sparse models make intersecting pairs likely even in wide universes.
fn random_model(rng: &mut Rng, n: usize, density: u64) -> Model {
    (0..n)
        .map(|_| (rng.below(16) < density).then(|| rng.below(2) == 1))
        .collect()
}

fn literals_of(model: &Model) -> Vec<(usize, bool)> {
    model
        .iter()
        .enumerate()
        .filter_map(|(v, lit)| lit.map(|pol| (v, pol)))
        .collect()
}

fn cube_of(model: &Model) -> Cube {
    Cube::from_literals(model.len(), &literals_of(model))
}

/// The positional-cube words of a model, built independently of `Cube`:
/// two bits a variable, 32 variables a word, `11` don't-care, `10`
/// positive, `01` negative, `00` past the last variable.
fn words_of(model: &Model) -> Vec<u64> {
    let mut words = vec![0u64; model.len().div_ceil(32)];
    for (v, lit) in model.iter().enumerate() {
        let bits: u64 = match lit {
            None => 0b11,
            Some(true) => 0b10,
            Some(false) => 0b01,
        };
        words[v / 32] |= bits << (2 * (v % 32));
    }
    words
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = DefaultHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

fn conflicts(a: &Model, b: &Model) -> usize {
    a.iter()
        .zip(b)
        .filter(|(x, y)| matches!((x, y), (Some(p), Some(q)) if p != q))
        .count()
}

fn check_single(model: &Model, cube: &Cube) {
    let n = model.len();
    assert_eq!(cube.num_vars(), n);
    for (v, lit) in model.iter().enumerate() {
        assert_eq!(cube.literal(v), *lit, "literal {v} of {cube}");
    }
    assert_eq!(cube.literal_count(), literals_of(model).len());
    assert_eq!(cube.literals(), literals_of(model));
    assert!(!cube.is_empty());
    assert_eq!(*cube, cube.clone());
    assert_eq!(hash_of(cube), hash_of(&(n, words_of(model))));
}

fn check_pair(a_model: &Model, b_model: &Model) {
    let n = a_model.len();
    let (a, b) = (cube_of(a_model), cube_of(b_model));
    let disjoint = conflicts(a_model, b_model) > 0;

    assert_eq!(a.intersects(&b), !disjoint, "{a} vs {b}");
    assert_eq!(a.intersects(&b), !a.intersection(&b).is_empty());
    assert_eq!(a.distance(&b), conflicts(a_model, b_model));

    // The raw intersection keeps its `00` slots: compare it word for word.
    let inter = a.intersection(&b);
    let inter_words: Vec<u64> = words_of(a_model)
        .iter()
        .zip(words_of(b_model))
        .map(|(x, y)| x & y)
        .collect();
    assert_eq!(hash_of(&inter), hash_of(&(n, inter_words)));
    let agreed: Model = a_model.iter().zip(b_model).map(|(x, y)| x.or(*y)).collect();
    // Conflicting slots read as no literal; the rest as the agreed one.
    for (v, (x, y)) in a_model.iter().zip(b_model).enumerate() {
        let clash = matches!((x, y), (Some(p), Some(q)) if p != q);
        assert_eq!(inter.literal(v), if clash { None } else { x.or(*y) });
    }
    assert_eq!(
        inter.literal_count(),
        (0..n).filter(|&v| inter.literal(v).is_some()).count()
    );
    if disjoint {
        assert!(inter.is_empty());
    } else {
        assert_eq!(inter, cube_of(&agreed));
    }

    let contains = a_model
        .iter()
        .zip(b_model)
        .all(|(x, y)| x.is_none() || x == y);
    assert_eq!(a.contains(&b), contains, "{a} contains {b}");
    assert!(a.contains(&a));

    let sup: Model = a_model
        .iter()
        .zip(b_model)
        .map(|(x, y)| if x == y { *x } else { None })
        .collect();
    assert_eq!(a.supercube(&b), cube_of(&sup));

    assert_eq!(a == b, a_model == b_model);
    assert_eq!(
        a.cmp(&b),
        (n, words_of(a_model)).cmp(&(n, words_of(b_model))),
        "order of {a} and {b}"
    );
    if a == b {
        assert_eq!(hash_of(&a), hash_of(&b));
    }
}

fn check_cofactor(rows: &[Model], by: &Model) {
    let n = by.len();
    let cover = Cover::from_cubes(n, rows.iter().map(cube_of));
    let expected: Vec<Cube> = rows
        .iter()
        .filter(|row| conflicts(row, by) == 0)
        .map(|row| {
            let raised: Model = row
                .iter()
                .zip(by)
                .map(|(r, c)| if c.is_some() { None } else { *r })
                .collect();
            cube_of(&raised)
        })
        .collect();
    assert_eq!(cover.cofactor(&cube_of(by)).cubes(), expected.as_slice());
}

#[test]
fn cube_kernels_match_the_model_across_word_boundaries() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for n in SIZES {
        for round in 0..150 {
            let density = [1, 4, 11, 16][round % 4];
            let a = random_model(&mut rng, n, density);
            let b = if round % 5 == 0 {
                // Equal or near-equal pairs exercise Eq, Ord and Hash ties.
                let mut b = a.clone();
                if round % 10 == 0 {
                    let v = rng.below(n as u64) as usize;
                    b[v] = match b[v] {
                        None => Some(true),
                        Some(pol) => Some(!pol),
                    };
                }
                b
            } else {
                random_model(&mut rng, n, density)
            };
            check_single(&a, &cube_of(&a));
            check_pair(&a, &b);
            check_pair(&b, &a);
            let rows: Vec<Model> = (0..rng.below(6))
                .map(|_| random_model(&mut rng, n, density))
                .chain([a.clone()])
                .collect();
            check_cofactor(&rows, &b);
        }
        assert_eq!(Cube::full(n).literal_count(), 0);
        assert_eq!(
            hash_of(&Cube::full(n)),
            hash_of(&(n, words_of(&vec![None; n])))
        );
        for m in SIZES {
            assert_eq!(Cube::full(n).cmp(&Cube::full(m)), n.cmp(&m));
        }
    }
}

fn model_covers(model: &Model, bits: u32) -> bool {
    model
        .iter()
        .enumerate()
        .all(|(v, lit)| lit.is_none_or(|pol| pol == (bits >> v & 1 == 1)))
}

#[test]
fn complement_and_tautology_match_brute_force() {
    let mut rng = Rng(0x2545_f491_4f6c_dd1d);
    for round in 0..400 {
        let n = 1 + round % 10;
        let density = [3, 6, 10][round % 3];
        let models: Vec<Model> = (0..rng.below(12))
            .map(|_| random_model(&mut rng, n, density))
            .collect();
        let f = Cover::from_cubes(n, models.iter().map(cube_of));
        let g = complement(&f);
        let mut all = true;
        for bits in 0u32..(1 << n) {
            let on = models.iter().any(|m| model_covers(m, bits));
            let values: Vec<bool> = (0..n).map(|v| bits >> v & 1 == 1).collect();
            assert_ne!(on, g.covers_minterm(&values), "complement of\n{f}");
            all &= on;
        }
        assert_eq!(is_tautology(&f), all, "tautology of\n{f}");
    }
}

/// The classic unate-recursive COMPLEMENT and TAUTOLOGY: a fresh cofactor
/// cover per node, the split and merge rules written out per variable.
mod reference {
    use modsyn_logic::{Cover, Cube};

    /// The variable with the largest `min(pos, neg)` literal count, then
    /// the largest total, then the lowest index; `None` without literals.
    pub fn most_binate_variable(cover: &Cover) -> Option<usize> {
        let n = cover.num_vars();
        let mut pos = vec![0usize; n];
        let mut neg = vec![0usize; n];
        for c in cover.cubes() {
            for (v, pol) in c.literals() {
                if pol {
                    pos[v] += 1;
                } else {
                    neg[v] += 1;
                }
            }
        }
        let mut best: Option<(usize, usize, usize)> = None; // (binate, total, var)
        for v in 0..n {
            let total = pos[v] + neg[v];
            if total == 0 {
                continue;
            }
            let binate = pos[v].min(neg[v]);
            match best {
                Some((b, t, _)) if binate < b || (binate == b && total <= t) => {}
                _ => best = Some((binate, total, v)),
            }
        }
        best.map(|(_, _, v)| v)
    }

    fn cofactor_literal(cover: &Cover, var: usize, polarity: bool) -> Cover {
        let rows = cover
            .cubes()
            .iter()
            .filter(|c| c.literal(var) != Some(!polarity))
            .map(|c| {
                let mut c = c.clone();
                c.set_literal(var, None);
                c
            });
        Cover::from_cubes(cover.num_vars(), rows)
    }

    fn eq_except(a: &Cube, b: &Cube, var: usize) -> bool {
        (0..a.num_vars()).all(|v| v == var || a.literal(v) == b.literal(v))
    }

    /// Merges pairs that differ only in the split literal: each cube in
    /// turn takes the first later, unused cube of the other polarity.
    fn merge_split(cubes: Vec<Cube>, split: usize) -> Vec<Cube> {
        let mut used = vec![false; cubes.len()];
        let mut merged = Vec::with_capacity(cubes.len());
        for i in 0..cubes.len() {
            if used[i] {
                continue;
            }
            let mut ci = cubes[i].clone();
            if let Some(pol) = ci.literal(split) {
                for j in i + 1..cubes.len() {
                    if !used[j]
                        && cubes[j].literal(split) != Some(pol)
                        && eq_except(&ci, &cubes[j], split)
                    {
                        used[j] = true;
                        ci.set_literal(split, None);
                        break;
                    }
                }
            }
            merged.push(ci);
        }
        merged
    }

    pub fn complement(cover: &Cover) -> Cover {
        let n = cover.num_vars();
        if cover.is_empty() {
            return Cover::one(n);
        }
        if cover.cubes().iter().any(|c| c.literal_count() == 0) {
            return Cover::empty(n);
        }
        if cover.cube_count() == 1 {
            let units = cover.cubes()[0]
                .literals()
                .into_iter()
                .map(|(v, pol)| Cube::from_literals(n, &[(v, !pol)]));
            return Cover::from_cubes(n, units);
        }
        let split = most_binate_variable(cover).expect("rows carry literals");
        let mut out = Vec::new();
        for polarity in [true, false] {
            for c in complement(&cofactor_literal(cover, split, polarity)).cubes() {
                let mut c = c.clone();
                c.set_literal(split, Some(polarity));
                out.push(c);
            }
        }
        Cover::from_cubes(n, merge_split(out, split))
    }

    pub fn is_tautology(cover: &Cover) -> bool {
        if cover.cubes().iter().any(|c| c.literal_count() == 0) {
            return true;
        }
        if cover.is_empty() {
            return false;
        }
        let n = cover.num_vars();
        let mut pos = vec![false; n];
        let mut neg = vec![false; n];
        for c in cover.cubes() {
            for (v, pol) in c.literals() {
                if pol {
                    pos[v] = true;
                } else {
                    neg[v] = true;
                }
            }
        }
        if (0..n).all(|v| !(pos[v] && neg[v])) {
            return false;
        }
        let split = most_binate_variable(cover).expect("binate rows carry literals");
        is_tautology(&cofactor_literal(cover, split, true))
            && is_tautology(&cofactor_literal(cover, split, false))
    }
}

/// Asserts that the engine agrees with the reference on `f`: the same
/// complement cube list, tautology answer and split variable, and the
/// same containment answer for each of `probes`.
fn check_against_reference(f: &Cover, probes: &[Cube]) {
    let got = complement(f);
    let want = reference::complement(f);
    assert_eq!(got.cubes(), want.cubes(), "complement of\n{f}");
    assert_eq!(
        is_tautology(f),
        reference::is_tautology(f),
        "tautology of\n{f}"
    );
    assert_eq!(
        f.most_binate_variable(),
        reference::most_binate_variable(f),
        "split of\n{f}"
    );
    for c in probes {
        assert_eq!(
            f.covers_cube(c),
            reference::is_tautology(&f.cofactor(c)),
            "{c} in\n{f}"
        );
    }
}

/// A random cube with `fewest..=most` literal draws (a variable may be
/// drawn twice), so wide universes keep small complements.
fn sparse_cube(rng: &mut Rng, n: usize, fewest: u64, most: u64) -> Cube {
    let mut cube = Cube::full(n);
    for _ in 0..fewest + rng.below(most - fewest + 1) {
        let v = rng.below(n as u64) as usize;
        cube.set_literal(v, Some(rng.below(2) == 1));
    }
    cube
}

#[test]
fn complement_and_tautology_match_the_reference_at_every_size() {
    let mut rng = Rng(0x5851_f42d_4c95_7f2d);
    for n in SIZES {
        for round in 0..40 {
            let mut rows: Vec<Cube> = (0..rng.below(6))
                .map(|_| sparse_cube(&mut rng, n, 1, 4))
                .collect();
            let probes: Vec<Cube> = (0..3).map(|_| sparse_cube(&mut rng, n, 0, 2)).collect();
            let f = Cover::from_cubes(n, rows.clone());
            check_against_reference(&f, &probes);
            // A cover with its complement is a tautology; without its
            // last row it usually is not.
            rows.extend(complement(&f).cubes().iter().cloned());
            if round % 2 == 1 {
                rows.pop();
            }
            check_against_reference(&Cover::from_cubes(n, rows), &probes);
        }
    }
}

#[test]
fn split_counts_past_a_byte_lane_match_the_reference() {
    // 600 rows: variable `a` in every row (300 of each polarity), `b` in
    // every third row (100 of each), and two literals from an eight-variable
    // pool (about 75 of each polarity per variable). `a` is the split; a
    // byte-lane counter that wrapped at 256 would read 44 and pick `b`.
    let mut rng = Rng(0x2f6b_1c5d_9a3e_8b71);
    for (n, a, b) in [(40, 37, 5), (70, 66, 33)] {
        let pool: Vec<usize> = (0..8).map(|k| 8 + 3 * k).collect();
        let rows: Vec<Cube> = (0..600)
            .map(|r| {
                let mut cube = Cube::full(n);
                cube.set_literal(a, Some(r % 2 == 0));
                if r % 3 == 0 {
                    cube.set_literal(b, Some(r % 6 == 0));
                }
                for _ in 0..2 {
                    let v = pool[rng.below(8) as usize];
                    cube.set_literal(v, Some(rng.below(2) == 1));
                }
                cube
            })
            .collect();
        let f = Cover::from_cubes(n, rows);
        assert_eq!(f.most_binate_variable(), Some(a));
        let probes = [Cube::from_literals(n, &[(b, true)]), Cube::full(n)];
        check_against_reference(&f, &probes);
    }
}

#[test]
fn minterm_covers_match_the_reference() {
    // Shaped like `derive_logic`: the reachable codes as minterms, the DC
    // set their complement, ON a subset of the codes, and the OFF-set the
    // complement of ON plus DC.
    let mut rng = Rng(0x94d0_49bb_1331_11eb);
    for (n, states) in [(4, 9), (7, 40), (10, 60), (14, 90), (20, 120), (30, 150)] {
        let mut codes: Vec<u64> = (0..states).map(|_| rng.below(1 << n)).collect();
        codes.sort_unstable();
        codes.dedup();
        let minterm = |code: &u64| {
            let values: Vec<bool> = (0..n).map(|v| code >> v & 1 == 1).collect();
            Cube::from_minterm(&values)
        };
        let reachable = Cover::from_cubes(n, codes.iter().map(minterm));
        check_against_reference(&reachable, &[]);
        let dc = complement(&reachable);
        let on = Cover::from_cubes(n, codes.iter().filter(|_| rng.below(2) == 1).map(minterm));
        let probes: Vec<Cube> = on.cubes().iter().take(4).cloned().collect();
        check_against_reference(&on.union(&dc), &probes);
        check_against_reference(&dc, &probes);
    }
}

#[test]
fn edge_cases_match_the_reference() {
    for n in [0, 1, 5, 33, 70] {
        let universal = Cube::full(n);
        let whole = std::slice::from_ref(&universal);
        check_against_reference(&Cover::empty(n), whole);
        check_against_reference(&Cover::one(n), whole);
        check_against_reference(
            &Cover::from_cubes(n, [universal.clone(), universal.clone()]),
            whole,
        );
        assert_eq!(complement(&Cover::empty(n)).cubes(), whole);
        assert!(complement(&Cover::one(n)).is_empty());
        assert!(!is_tautology(&Cover::empty(n)));
        assert!(is_tautology(&Cover::one(n)));
        if n == 0 {
            continue;
        }
        // A universal row among others, first or last.
        let row = Cube::from_literals(n, &[(0, true), (n - 1, false)]);
        for rows in [
            vec![universal.clone(), row.clone()],
            vec![row.clone(), universal.clone()],
        ] {
            let f = Cover::from_cubes(n, rows);
            check_against_reference(&f, std::slice::from_ref(&row));
            assert!(complement(&f).is_empty());
        }
        // One row: its De Morgan complement, in literal order.
        let lits: Vec<(usize, bool)> = (0..n).step_by(2).map(|v| (v, v % 4 == 0)).collect();
        let f = Cover::from_cubes(n, [Cube::from_literals(n, &lits)]);
        check_against_reference(&f, whole);
        let units: Vec<Cube> = lits
            .iter()
            .map(|&(v, pol)| Cube::from_literals(n, &[(v, !pol)]))
            .collect();
        assert_eq!(complement(&f).cubes(), units.as_slice());
    }
}
