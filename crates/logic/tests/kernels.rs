//! Differential test of the cube kernels against a per-variable model.
//!
//! Every kernel works on packed words; the model is one `Option<bool>` per
//! variable (`None` = don't-care). Universe sizes straddle the 32-variable
//! word boundary, the inline/heap boundary at 64 variables and the masking
//! of a partly used last word.

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
