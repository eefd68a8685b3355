//! The unate-recursive engine behind COMPLEMENT and TAUTOLOGY.
//!
//! A [`RowStack`] runs whole top-level calls without allocating per node.
//! Rows are flat slot words, `stride` words a row. A node owns the rows at
//! or above its `lo` index; it pushes each child's cofactor rows above its
//! own and truncates them when the child returns. A row that comes out
//! universal while it is pushed ends that child at once: its complement is
//! empty and its tautology check true. Complement output is appended to
//! one flat buffer, and a node's output is the part at or above the
//! `start` it noted on entry; it is merged there in place. The polarity
//! counts that pick the split variable live in one reusable
//! [`PolarityCounts`].
//!
//! Four rules decide a complement's cube list, and EXPAND's raise order
//! reads the OFF-set's list, so each is fixed: the split variable (the
//! most binate one, see [`PolarityCounts::split`]), the positive branch
//! before the negative one, the leaves (no rows: the universal cube; a
//! universal row: nothing; one row: its De Morgan complement in literal
//! order) and the merge's pairing order (see [`RowStack::merge_split`]).

use crate::cube::{literal_lows, slot, LOW_BITS, VARS_PER_WORD};
use crate::{Cover, Cube};

/// One `1` in each byte lane of a word.
const LANE_ONES: u64 = 0x0101_0101_0101_0101;
/// Rows a byte lane can count before it must be flushed.
const LANE_ROWS: usize = 255;

/// Per-variable literal counts by polarity, accumulated word-parallel.
///
/// A row's positive (negative) literal slots form a mask with one bit per
/// slot, at the slot's low bit. Four byte-lane accumulators per word and
/// polarity each take every fourth slot of that mask (accumulator `a`,
/// lane `j` counts slot `a + 4j`), so one row costs eight adds a word.
/// Every [`LANE_ROWS`] rows, before a lane can overflow, the lanes are
/// flushed into per-variable totals; a variable's count is its total
/// plus its lane.
#[derive(Debug, Default)]
pub(crate) struct PolarityCounts {
    num_vars: usize,
    /// Eight accumulators per word: four positive, then four negative.
    lanes: Vec<u64>,
    /// Per word, the low bit of every slot some counted row has a literal in.
    present: Vec<u64>,
    /// Rows added to the lanes since the last flush.
    pending: usize,
    /// Flushed totals by variable; all zero until the first flush.
    pos: Vec<usize>,
    neg: Vec<usize>,
    flushed: bool,
}

impl PolarityCounts {
    /// Clears the counts for rows over `num_vars` variables.
    pub(crate) fn reset(&mut self, num_vars: usize) {
        let words = num_vars.div_ceil(VARS_PER_WORD);
        self.lanes.clear();
        self.lanes.resize(words * 8, 0);
        self.present.clear();
        self.present.resize(words, 0);
        self.pending = 0;
        if self.flushed || self.num_vars != num_vars {
            for totals in [&mut self.pos, &mut self.neg] {
                totals.clear();
                totals.resize(num_vars, 0);
            }
            self.flushed = false;
        }
        self.num_vars = num_vars;
    }

    /// Counts the literals of one row's slot words.
    pub(crate) fn add(&mut self, row: &[u64]) {
        let words = row.iter().zip(&mut self.present);
        for ((&w, present), lanes) in words.zip(self.lanes.chunks_exact_mut(8)) {
            let high = w >> 1;
            let pos = high & !w & LOW_BITS;
            let neg = w & !high & LOW_BITS;
            *present |= pos | neg;
            for a in 0..4 {
                lanes[a] += pos >> (2 * a) & LANE_ONES;
                lanes[4 + a] += neg >> (2 * a) & LANE_ONES;
            }
        }
        self.pending += 1;
        if self.pending == LANE_ROWS {
            for v in 0..self.num_vars {
                let (p, q) = self.lane_counts(v);
                self.pos[v] += p;
                self.neg[v] += q;
            }
            self.lanes.fill(0);
            self.pending = 0;
            self.flushed = true;
        }
    }

    /// Variable `v`'s positive and negative counts still in the lanes.
    fn lane_counts(&self, v: usize) -> (usize, usize) {
        let (word, k) = (v / VARS_PER_WORD, v % VARS_PER_WORD);
        let lanes = &self.lanes[8 * word..8 * word + 8];
        let byte = |acc: u64| (acc >> (8 * (k / 4)) & 0xff) as usize;
        (byte(lanes[k % 4]), byte(lanes[4 + k % 4]))
    }

    /// The split variable and its binate count `min(pos, neg)`: the
    /// variable with the largest binate count, then the largest total
    /// count, then the lowest index. A unate set of rows yields its most
    /// frequent variable with binate count 0. `None` if no row carries a
    /// literal.
    pub(crate) fn split(&self) -> Option<(usize, usize)> {
        let mut best: Option<(usize, usize, usize)> = None; // (binate, total, var)
        for (i, &present) in self.present.iter().enumerate() {
            let mut lows = present;
            while lows != 0 {
                let v = i * VARS_PER_WORD + lows.trailing_zeros() as usize / 2;
                lows &= lows - 1;
                let (mut p, mut q) = self.lane_counts(v);
                if self.flushed {
                    p += self.pos[v];
                    q += self.neg[v];
                }
                let (binate, total) = (p.min(q), p + q);
                if best.is_none_or(|(b, t, _)| binate > b || (binate == b && total > t)) {
                    best = Some((binate, total, v));
                }
            }
        }
        best.map(|(binate, _, v)| (v, binate))
    }
}

/// The reusable state of the unate-recursive engine over one universe:
/// the row stack, the complement output and the polarity counts. One
/// stack serves any number of top-level calls in turn.
#[derive(Debug)]
pub(crate) struct RowStack {
    num_vars: usize,
    /// Slot words of a cube over the universe.
    words: usize,
    /// Words per stored row: `words`, but at least one, so that a row over
    /// zero variables still occupies a place on the stack.
    stride: usize,
    /// The universal row.
    full: Vec<u64>,
    /// The slots the top-level cofactor raises (both bits of every slot
    /// where the cofactor cube has a literal).
    raise: Vec<u64>,
    rows: Vec<u64>,
    out: Vec<u64>,
    counts: PolarityCounts,
}

impl RowStack {
    /// An empty engine for rows over `num_vars` variables.
    pub(crate) fn new(num_vars: usize) -> Self {
        let words = num_vars.div_ceil(VARS_PER_WORD);
        let stride = words.max(1);
        let mut full = vec![0; stride];
        full[..words].copy_from_slice(Cube::full(num_vars).words());
        RowStack {
            num_vars,
            words,
            stride,
            full,
            raise: vec![0; stride],
            rows: Vec::new(),
            out: Vec::new(),
            counts: PolarityCounts::default(),
        }
    }

    /// A cover of the complement of the cofactor by `by` of the sum of
    /// `rows` (`by` universal: of the sum itself).
    ///
    /// # Panics
    ///
    /// Panics if `by` is over another universe.
    pub(crate) fn complement<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a Cube>,
        by: &Cube,
    ) -> Cover {
        self.out.clear();
        if self.push_cofactor_of(rows, by) {
            match self.stride {
                1 => self.complement_node::<1>(0),
                2 => self.complement_node::<2>(0),
                _ => self.complement_node::<0>(0),
            }
        }
        let n = self.num_vars;
        let cubes = self
            .out
            .chunks_exact(self.stride)
            .map(|row| Cube::from_words(n, &row[..self.words]));
        Cover::from_cubes(n, cubes)
    }

    /// Whether the cofactor by `by` of the sum of `rows` is a tautology,
    /// i.e. whether the sum contains `by`.
    ///
    /// # Panics
    ///
    /// Panics if `by` is over another universe.
    pub(crate) fn tautology<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a Cube>,
        by: &Cube,
    ) -> bool {
        !self.push_cofactor_of(rows, by)
            || match self.stride {
                1 => self.tautology_node::<1>(0),
                2 => self.tautology_node::<2>(0),
                _ => self.tautology_node::<0>(0),
            }
    }

    /// Replaces the stack with the rows that meet `by`, each with `by`'s
    /// literals raised. Returns `false`, with the stack left partly
    /// filled, at the first row that comes out universal.
    fn push_cofactor_of<'a>(
        &mut self,
        rows: impl IntoIterator<Item = &'a Cube>,
        by: &Cube,
    ) -> bool {
        assert_eq!(by.num_vars(), self.num_vars, "cube universe mismatch");
        for (raise, &b) in self.raise.iter_mut().zip(by.words()) {
            let lows = literal_lows(b);
            *raise = lows | lows << 1;
        }
        self.rows.clear();
        for row in rows {
            if !row.intersects(by) {
                continue;
            }
            let at = self.rows.len();
            self.rows.resize(at + self.stride, 0);
            for ((dst, &w), &raise) in self.rows[at..].iter_mut().zip(row.words()).zip(&self.raise)
            {
                *dst = w | raise;
            }
            if self.rows[at..] == self.full[..] {
                return false;
            }
        }
        true
    }

    /// Words per stored row. The node functions take the stride as `W`
    /// too, so that it is a constant for one- and two-word universes and
    /// their row loops unroll; `W = 0` reads it from `self`.
    fn stride<const W: usize>(&self) -> usize {
        if W == 0 {
            self.stride
        } else {
            W
        }
    }

    /// Pushes the cofactor by the literal `(var, polarity)` of the rows
    /// `lo..hi` above them. Returns `false` at the first pushed row that
    /// comes out universal.
    fn push_literal_cofactor<const W: usize>(
        &mut self,
        lo: usize,
        hi: usize,
        var: usize,
        polarity: bool,
    ) -> bool {
        let s = self.stride::<W>();
        let (at, shift) = slot(var);
        let slot_mask = 0b11 << shift;
        let opposite = if polarity { 0b01 } else { 0b10 } << shift;
        let full = &self.full[..s];
        self.rows.resize((2 * hi - lo) * s, 0);
        let (node, child) = self.rows.split_at_mut(hi * s);
        let mut top = 0;
        for row in node[lo * s..].chunks_exact(s) {
            if row[at] & slot_mask == opposite {
                continue;
            }
            let pushed = &mut child[top..top + s];
            pushed.copy_from_slice(row);
            pushed[at] |= slot_mask;
            if pushed == full {
                return false;
            }
            top += s;
        }
        self.rows.truncate(hi * s + top);
        true
    }

    /// The split variable of the rows `lo..hi` and its binate count.
    fn split_of<const W: usize>(&mut self, lo: usize, hi: usize) -> (usize, usize) {
        let s = self.stride::<W>();
        self.counts.reset(self.num_vars);
        for row in self.rows[lo * s..hi * s].chunks_exact(s) {
            self.counts.add(row);
        }
        self.counts
            .split()
            .expect("rows below a node are not universal, so carry literals")
    }

    /// Appends the complement of the rows at or above `lo` (the top of the
    /// stack) to the output.
    fn complement_node<const W: usize>(&mut self, lo: usize) {
        let s = self.stride::<W>();
        let hi = self.rows.len() / s;
        match hi - lo {
            0 => {
                self.out.extend_from_slice(&self.full[..s]);
                return;
            }
            1 => {
                self.de_morgan::<W>(lo);
                return;
            }
            _ => {}
        }
        let (split, _) = self.split_of::<W>(lo, hi);
        let (at, shift) = slot(split);
        let start = self.out.len() / s;
        if self.push_literal_cofactor::<W>(lo, hi, split, true) {
            self.complement_node::<W>(hi);
        }
        self.rows.truncate(hi * s);
        let mid = self.out.len() / s;
        if self.push_literal_cofactor::<W>(lo, hi, split, false) {
            self.complement_node::<W>(hi);
        }
        self.rows.truncate(hi * s);
        // The children's rows never carry `split`, nor does their output:
        // bind it to each branch's polarity.
        for (r, row) in self.out[start * s..].chunks_exact_mut(s).enumerate() {
            row[at] &= !((if start + r < mid { 0b01 } else { 0b10 }) << shift);
        }
        self.merge_split::<W>(start, mid, split);
    }

    /// Appends one cube per literal of row `r`, with that literal negated,
    /// in literal order.
    fn de_morgan<const W: usize>(&mut self, r: usize) {
        let s = self.stride::<W>();
        for i in 0..s {
            let word = self.rows[r * s + i];
            let mut lows = literal_lows(word);
            while lows != 0 {
                let low = lows & lows.wrapping_neg();
                lows &= lows - 1;
                let top = self.out.len();
                self.out.extend_from_slice(&self.full[..s]);
                self.out[top + i] ^= word & (low | low << 1);
            }
        }
    }

    /// Merges the output rows `start..mid` (`split` positive) with the
    /// rows from `mid` on (`split` negative): each positive row in turn
    /// takes the first unclaimed negative row that agrees with it off
    /// `split` and raises `split`; claimed negative rows are dropped. This
    /// is `x·c + x'·c = c`.
    fn merge_split<const W: usize>(&mut self, start: usize, mid: usize, split: usize) {
        let s = self.stride::<W>();
        let (at, shift) = slot(split);
        let slot_mask = 0b11 << shift;
        let negative = 0b01 << shift;
        let (positives, negatives) = self.out[start * s..].split_at_mut((mid - start) * s);
        for p in positives.chunks_exact_mut(s) {
            for q in negatives.chunks_exact_mut(s) {
                // A claimed row's split slot is `00`.
                if q[at] & slot_mask != negative {
                    continue;
                }
                let agree = p.iter().zip(&*q).enumerate().all(|(k, (&a, &b))| {
                    let ignored = if k == at { slot_mask } else { 0 };
                    (a ^ b) & !ignored == 0
                });
                if agree {
                    q[at] &= !slot_mask;
                    p[at] |= slot_mask;
                    break;
                }
            }
        }
        let end = self.out.len() / s;
        let mut kept = mid;
        for j in mid..end {
            if self.out[j * s + at] & slot_mask != 0 {
                self.out.copy_within(j * s..(j + 1) * s, kept * s);
                kept += 1;
            }
        }
        self.out.truncate(kept * s);
    }

    /// Whether the sum of the rows at or above `lo` is a tautology.
    fn tautology_node<const W: usize>(&mut self, lo: usize) -> bool {
        let s = self.stride::<W>();
        let hi = self.rows.len() / s;
        if hi == lo {
            return false;
        }
        let (split, binate) = self.split_of::<W>(lo, hi);
        if binate == 0 {
            // Unate rows are a tautology only with a universal row, and
            // none was pushed.
            return false;
        }
        for polarity in [true, false] {
            let holds = !self.push_literal_cofactor::<W>(lo, hi, split, polarity)
                || self.tautology_node::<W>(hi);
            self.rows.truncate(hi * s);
            if !holds {
                return false;
            }
        }
        true
    }
}
