//! Product terms in positional-cube notation.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A product term over `n` boolean variables.
///
/// Each variable takes one of three states: required `1` (positive literal),
/// required `0` (negative literal), or don't-care (absent from the product).
/// Internally two bits per variable are stored — bit0 "allows 0", bit1
/// "allows 1" — so don't-care is `11`, a positive literal `10`… matching the
/// classic positional-cube notation where intersection is bitwise AND.
///
/// ```
/// use modsyn_logic::Cube;
/// let c = Cube::from_literals(3, &[(0, true), (2, false)]); // a · c'
/// assert_eq!(c.literal(0), Some(true));
/// assert_eq!(c.literal(1), None);
/// assert_eq!(c.literal(2), Some(false));
/// assert_eq!(c.literal_count(), 2);
/// ```
#[derive(Clone)]
pub struct Cube {
    num_vars: usize,
    /// Two bits per variable, 32 variables per word.
    words: Words,
}

/// The packed slots of a [`Cube`].
///
/// Universes of up to [`INLINE_VARS`] variables keep their words inline,
/// so building, cloning and combining such cubes never allocates; this
/// covers every state-graph universe, since state codes are `u64`. Wider
/// universes (PLA input) keep them on the heap.
///
/// Word invariants: every slot past `num_vars` — the tail of the last word
/// and any unused inline word — is `00`; a literal slot has exactly one bit
/// set; and a `00` slot inside the universe appears only in a raw
/// [`Cube::intersection`], marking the cube empty.
#[derive(Clone)]
enum Words {
    Inline([u64; INLINE_WORDS]),
    Heap(Box<[u64]>),
}

pub(crate) const VARS_PER_WORD: usize = 32;
const INLINE_WORDS: usize = 2;
const INLINE_VARS: usize = INLINE_WORDS * VARS_PER_WORD;
/// The low ("allows 0") bit of every slot of a word.
pub(crate) const LOW_BITS: u64 = 0x5555_5555_5555_5555;

/// Word index and bit shift of a variable's slot.
pub(crate) fn slot(var: usize) -> (usize, u32) {
    (var / VARS_PER_WORD, (2 * (var % VARS_PER_WORD)) as u32)
}

/// The low bit of every literal slot (`10` or `01`) of a word.
pub(crate) fn literal_lows(word: u64) -> u64 {
    (word ^ word >> 1) & LOW_BITS
}

/// The low bit of every `00` slot of a word among the slots `lows`.
fn empty_lows(word: u64, lows: u64) -> u64 {
    !(word | word >> 1) & lows
}

impl Cube {
    /// The universal cube (every variable don't-care) over `num_vars`.
    pub fn full(num_vars: usize) -> Self {
        let len = num_vars.div_ceil(VARS_PER_WORD);
        let words = if num_vars <= INLINE_VARS {
            Words::Inline([0; INLINE_WORDS])
        } else {
            Words::Heap(vec![0; len].into_boxed_slice())
        };
        let mut cube = Cube { num_vars, words };
        for i in 0..len {
            let lows = cube.slot_lows(i);
            cube.words_mut()[i] = lows | lows << 1;
        }
        cube
    }

    /// The cube over `num_vars` whose slot words are `words`, which must
    /// keep the word invariants.
    pub(crate) fn from_words(num_vars: usize, words: &[u64]) -> Cube {
        let mut cube = Cube::full(num_vars);
        cube.words_mut().copy_from_slice(words);
        cube
    }

    /// The words holding the universe's slots.
    pub(crate) fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(words) => &words[..self.num_vars.div_ceil(VARS_PER_WORD)],
            Words::Heap(words) => words,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(words) => &mut words[..self.num_vars.div_ceil(VARS_PER_WORD)],
            Words::Heap(words) => words,
        }
    }

    /// The low bit of every slot of word `i` that holds a variable.
    fn slot_lows(&self, i: usize) -> u64 {
        let vars = self.num_vars - i * VARS_PER_WORD;
        if vars >= VARS_PER_WORD {
            LOW_BITS
        } else {
            LOW_BITS & ((1 << (2 * vars)) - 1)
        }
    }

    /// Combines two cubes word by word; `op(0, 0)` must be 0 so the tail
    /// stays `00`.
    fn zip_with(&self, other: &Cube, op: impl Fn(u64, u64) -> u64) -> Cube {
        debug_assert_eq!(self.num_vars, other.num_vars);
        let words = match (&self.words, &other.words) {
            (Words::Inline(a), Words::Inline(b)) => {
                Words::Inline(std::array::from_fn(|i| op(a[i], b[i])))
            }
            _ => Words::Heap(
                self.words()
                    .iter()
                    .zip(other.words())
                    .map(|(&a, &b)| op(a, b))
                    .collect(),
            ),
        };
        Cube {
            num_vars: self.num_vars,
            words,
        }
    }

    /// Builds a cube from `(variable, polarity)` literals; unmentioned
    /// variables are don't-care.
    ///
    /// # Panics
    ///
    /// Panics if a variable index is out of range.
    pub fn from_literals(num_vars: usize, literals: &[(usize, bool)]) -> Self {
        let mut cube = Cube::full(num_vars);
        for &(v, pol) in literals {
            cube.set_literal(v, Some(pol));
        }
        cube
    }

    /// Builds the minterm cube for a complete assignment.
    pub fn from_minterm(values: &[bool]) -> Self {
        let mut cube = Cube::full(values.len());
        for (v, &val) in values.iter().enumerate() {
            cube.set_literal(v, Some(val));
        }
        cube
    }

    /// Number of variables in the cube's universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The literal on `var`: `Some(true)` positive, `Some(false)` negative,
    /// `None` don't-care.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn literal(&self, var: usize) -> Option<bool> {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = slot(var);
        match (self.words()[w] >> s) & 0b11 {
            0b11 => None,
            0b10 => Some(true),
            0b01 => Some(false),
            _ => None, // empty slot: only in intersections; treated by is_empty
        }
    }

    /// Sets, changes or clears the literal on `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range.
    pub fn set_literal(&mut self, var: usize, literal: Option<bool>) {
        assert!(var < self.num_vars, "variable {var} out of range");
        let (w, s) = slot(var);
        let bits: u64 = match literal {
            None => 0b11,
            Some(true) => 0b10,
            Some(false) => 0b01,
        };
        let word = &mut self.words_mut()[w];
        *word = (*word & !(0b11 << s)) | (bits << s);
    }

    /// Whether some variable has the empty state (the cube denotes no
    /// minterm). Only intersections produce empty cubes.
    pub fn is_empty(&self) -> bool {
        self.words()
            .iter()
            .enumerate()
            .any(|(i, &w)| empty_lows(w, self.slot_lows(i)) != 0)
    }

    /// Number of literals (non-don't-care variables).
    pub fn literal_count(&self) -> usize {
        self.words()
            .iter()
            .map(|&w| literal_lows(w).count_ones() as usize)
            .sum()
    }

    /// Number of set slot bits: [`Cube::contains`] is a subset test on
    /// these bits, so a cube strictly contains only cubes with fewer.
    pub(crate) fn set_bits(&self) -> u32 {
        self.words().iter().map(|w| w.count_ones()).sum()
    }

    /// Bitwise intersection; empty if the cubes conflict on some variable.
    pub fn intersection(&self, other: &Cube) -> Cube {
        self.zip_with(other, |a, b| a & b)
    }

    /// Whether the two cubes share at least one minterm.
    pub fn intersects(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words()
            .iter()
            .zip(other.words())
            .enumerate()
            .all(|(i, (&a, &b))| empty_lows(a & b, self.slot_lows(i)) == 0)
    }

    /// Whether `self` contains `other` (every minterm of `other` is in
    /// `self`).
    pub fn contains(&self, other: &Cube) -> bool {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words()
            .iter()
            .zip(other.words())
            .all(|(a, b)| a & b == *b)
    }

    /// Number of variables where the cubes have disjoint (conflicting)
    /// literal requirements.
    pub fn distance(&self, other: &Cube) -> usize {
        debug_assert_eq!(self.num_vars, other.num_vars);
        self.words()
            .iter()
            .zip(other.words())
            .enumerate()
            .map(|(i, (&a, &b))| empty_lows(a & b, self.slot_lows(i)).count_ones() as usize)
            .sum()
    }

    /// The smallest cube containing both inputs (bitwise OR).
    pub fn supercube(&self, other: &Cube) -> Cube {
        self.zip_with(other, |a, b| a | b)
    }

    /// `self` with every literal of `by` raised to don't-care: one OR per
    /// word with `by`'s literal-slot mask. This is a cofactor row.
    pub(crate) fn raised_by(&self, by: &Cube) -> Cube {
        self.zip_with(by, |w, b| {
            let lows = literal_lows(b);
            w | lows | lows << 1
        })
    }

    /// Whether the cube contains the given minterm.
    pub fn covers_minterm(&self, values: &[bool]) -> bool {
        debug_assert_eq!(values.len(), self.num_vars);
        (0..self.num_vars).all(|v| match self.literal(v) {
            None => true,
            Some(pol) => pol == values[v],
        })
    }

    /// Variables carrying a literal, with polarity.
    pub fn literals(&self) -> Vec<(usize, bool)> {
        self.literal_iter().collect()
    }

    /// [`Cube::literals`] without the `Vec`: scans the set bits of the
    /// literal-slot masks, in variable order.
    pub(crate) fn literal_iter(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.words().iter().enumerate().flat_map(|(i, &w)| {
            let mut lows = literal_lows(w);
            std::iter::from_fn(move || {
                if lows == 0 {
                    return None;
                }
                let s = lows.trailing_zeros();
                lows &= lows - 1;
                Some((i * VARS_PER_WORD + s as usize / 2, w >> (s + 1) & 1 == 1))
            })
        })
    }
}

/// Equality, order and hash are those of `(num_vars, words)`, the word
/// slice compared lexicographically; `minimize_multi` sorts by this order.
impl PartialEq for Cube {
    fn eq(&self, other: &Cube) -> bool {
        self.num_vars == other.num_vars && self.words() == other.words()
    }
}

impl Eq for Cube {}

impl Ord for Cube {
    fn cmp(&self, other: &Cube) -> Ordering {
        self.num_vars
            .cmp(&other.num_vars)
            .then_with(|| self.words().cmp(other.words()))
    }
}

impl PartialOrd for Cube {
    fn partial_cmp(&self, other: &Cube) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Cube {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.num_vars.hash(state);
        self.words().hash(state);
    }
}

impl fmt::Debug for Cube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cube")
            .field("num_vars", &self.num_vars)
            .field("words", &self.words())
            .finish()
    }
}

impl fmt::Display for Cube {
    /// PLA-style string: `1` positive, `0` negative, `-` don't-care.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for v in 0..self.num_vars {
            let ch = match self.literal(v) {
                Some(true) => '1',
                Some(false) => '0',
                None => '-',
            };
            write!(f, "{ch}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cube_has_no_literals() {
        let c = Cube::full(40); // spans two words
        assert_eq!(c.literal_count(), 0);
        assert!(!c.is_empty());
        for v in 0..40 {
            assert_eq!(c.literal(v), None);
        }
    }

    #[test]
    fn set_and_get_literals_across_words() {
        let mut c = Cube::full(70);
        c.set_literal(0, Some(true));
        c.set_literal(33, Some(false));
        c.set_literal(69, Some(true));
        assert_eq!(c.literal(0), Some(true));
        assert_eq!(c.literal(33), Some(false));
        assert_eq!(c.literal(69), Some(true));
        assert_eq!(c.literal_count(), 3);
        c.set_literal(33, None);
        assert_eq!(c.literal_count(), 2);
    }

    #[test]
    fn intersection_conflict_is_empty() {
        let a = Cube::from_literals(2, &[(0, true)]);
        let b = Cube::from_literals(2, &[(0, false)]);
        assert!(a.intersection(&b).is_empty());
        assert!(!a.intersects(&b));
        assert_eq!(a.distance(&b), 1);
    }

    #[test]
    fn containment() {
        let big = Cube::from_literals(3, &[(0, true)]);
        let small = Cube::from_literals(3, &[(0, true), (1, false)]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn supercube_unions_spans() {
        let a = Cube::from_literals(2, &[(0, true), (1, true)]);
        let b = Cube::from_literals(2, &[(0, true), (1, false)]);
        let s = a.supercube(&b);
        assert_eq!(s.literal(0), Some(true));
        assert_eq!(s.literal(1), None);
    }

    #[test]
    fn minterm_coverage() {
        let c = Cube::from_literals(3, &[(0, true), (2, false)]);
        assert!(c.covers_minterm(&[true, false, false]));
        assert!(c.covers_minterm(&[true, true, false]));
        assert!(!c.covers_minterm(&[true, true, true]));
        assert!(!c.covers_minterm(&[false, true, false]));
    }

    #[test]
    fn display_pla_style() {
        let c = Cube::from_literals(4, &[(0, true), (3, false)]);
        assert_eq!(c.to_string(), "1--0");
    }

    #[test]
    fn from_minterm_fixes_every_variable() {
        let c = Cube::from_minterm(&[true, false, true]);
        assert_eq!(c.literal_count(), 3);
        assert_eq!(c.to_string(), "101");
    }

    #[test]
    fn empty_detection_is_per_slot_and_respects_tail() {
        let mut c = Cube::full(33);
        assert!(!c.is_empty());
        let conflict = Cube::from_literals(33, &[(32, true)]);
        c.set_literal(32, Some(false));
        assert!(c.intersection(&conflict).is_empty());
    }
}
