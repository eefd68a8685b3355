//! The indexed max-heap both search cores draw their decisions from.

use std::marker::PhantomData;

/// `pos` entry of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// The comparison a [`VarHeap`] is ordered by.
pub(crate) trait HeapOrder {
    /// Whether variable `a` belongs above variable `b` under `keys`.
    fn above(keys: &[f64], a: u32, b: u32) -> bool;
}

/// The classic engine's order: the higher key wins and ties go to the
/// lower index; with no keys the lower index wins outright. The order is
/// strict and total, so the top is the variable a linear scan keeping the
/// first strictly greater key would pick, whatever the heap's shape.
#[derive(Debug)]
pub(crate) enum KeyThenIndex {}

impl HeapOrder for KeyThenIndex {
    fn above(keys: &[f64], a: u32, b: u32) -> bool {
        match (keys.get(a as usize), keys.get(b as usize)) {
            (Some(ka), Some(kb)) if ka != kb => ka > kb,
            _ => a < b,
        }
    }
}

/// The CDCL core's VSIDS order: strictly higher activity. Equal keys
/// never swap, so ties stay where the heap's shape put them.
#[derive(Debug)]
pub(crate) enum Key {}

impl HeapOrder for Key {
    fn above(keys: &[f64], a: u32, b: u32) -> bool {
        keys[a as usize] > keys[b as usize]
    }
}

/// Indexed binary max-heap of variables `0..n` in `O` order. The keys are
/// passed to each call rather than held, so a core can bump its
/// activities in place and then tell the heap which variable rose.
#[derive(Debug)]
pub(crate) struct VarHeap<O> {
    heap: Vec<u32>,
    /// `pos[v]` is the heap slot of variable `v`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
    order: PhantomData<O>,
}

impl<O: HeapOrder> VarHeap<O> {
    /// An empty heap over `n` variables.
    pub(crate) fn new(n: usize) -> Self {
        VarHeap {
            heap: Vec::with_capacity(n),
            pos: vec![NOT_IN_HEAP; n],
            order: PhantomData,
        }
    }

    /// Puts every variable in the heap at once.
    pub(crate) fn fill(&mut self, keys: &[f64]) {
        let n = self.pos.len();
        self.heap.clear();
        self.heap.extend(0..n as u32);
        self.pos.clear();
        self.pos.extend(0..n as u32);
        self.rebuild(keys);
    }

    /// Restores the heap order after keys changed without the heap being
    /// told (an activity rescale can turn a strict order into ties).
    pub(crate) fn rebuild(&mut self, keys: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.down(i, keys);
        }
    }

    fn up(&mut self, mut i: usize, keys: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) >> 1;
            let pv = self.heap[parent];
            if !O::above(keys, v, pv) {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    fn down(&mut self, mut i: usize, keys: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && O::above(keys, self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            let cv = self.heap[child];
            if !O::above(keys, cv, v) {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i as u32;
    }

    /// Adds `v` unless it is already in the heap.
    pub(crate) fn insert(&mut self, v: usize, keys: &[f64]) {
        if self.pos[v] != NOT_IN_HEAP {
            return;
        }
        self.pos[v] = self.heap.len() as u32;
        self.heap.push(v as u32);
        self.up(self.heap.len() - 1, keys);
    }

    /// Moves `v` up after its key grew.
    pub(crate) fn raised(&mut self, v: usize, keys: &[f64]) {
        if self.pos[v] != NOT_IN_HEAP {
            self.up(self.pos[v] as usize, keys);
        }
    }

    /// Removes and returns the top variable.
    pub(crate) fn pop(&mut self, keys: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.down(0, keys);
        }
        Some(top as usize)
    }
}
