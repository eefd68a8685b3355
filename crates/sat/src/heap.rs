//! The indexed max-heap both search cores draw their decisions from.

use std::marker::PhantomData;

/// `pos` entry of a variable outside the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// A variable in the heap with the key it is ordered by.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry {
    key: f64,
    var: u32,
}

/// The comparison a [`VarHeap`] is ordered by.
pub(crate) trait HeapOrder {
    /// Whether entry `a` belongs above entry `b`.
    fn above(a: Entry, b: Entry) -> bool;
}

/// The classic engine's order: the higher key wins and ties go to the
/// lower index; with no keys the lower index wins outright. The order is
/// strict and total, so the top is the variable a linear scan keeping the
/// first strictly greater key would pick, whatever the heap's shape.
#[derive(Debug)]
pub(crate) enum KeyThenIndex {}

impl HeapOrder for KeyThenIndex {
    #[inline]
    fn above(a: Entry, b: Entry) -> bool {
        if a.key != b.key {
            a.key > b.key
        } else {
            a.var < b.var
        }
    }
}

/// The CDCL core's VSIDS order: strictly higher activity. Equal keys
/// never swap, so ties stay where the heap's shape put them.
#[derive(Debug)]
pub(crate) enum Key {}

impl HeapOrder for Key {
    #[inline]
    fn above(a: Entry, b: Entry) -> bool {
        a.key > b.key
    }
}

/// Indexed binary max-heap of variables `0..n` in `O` order.
///
/// Each entry holds a copy of its variable's key, so sifting reads the
/// heap array alone. The keys live with the core, which passes them to
/// every call that can change one: an entry copies its key on
/// [`insert`](VarHeap::insert), [`raised`](VarHeap::raised),
/// [`fill`](VarHeap::fill), [`rebuild`](VarHeap::rebuild) and
/// [`rescaled`](VarHeap::rescaled). An empty key slice ranks every
/// variable equal.
#[derive(Debug)]
pub(crate) struct VarHeap<O> {
    heap: Vec<Entry>,
    /// `pos[v]` is the heap slot of variable `v`, or [`NOT_IN_HEAP`].
    pos: Vec<u32>,
    order: PhantomData<O>,
}

/// The key of variable `v`: 0 when there are no keys.
#[inline]
fn key_of(keys: &[f64], v: usize) -> f64 {
    keys.get(v).copied().unwrap_or(0.0)
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
        self.heap.extend((0..n).map(|v| Entry {
            key: 0.0,
            var: v as u32,
        }));
        self.pos.clear();
        self.pos.extend(0..n as u32);
        self.rebuild(keys);
    }

    /// Copies every entry's key from `keys` again and moves no entry. That
    /// alone keeps the heap ordered after every key was scaled by one
    /// positive factor, which keeps each comparison's answer under [`Key`].
    pub(crate) fn rescaled(&mut self, keys: &[f64]) {
        for e in &mut self.heap {
            e.key = key_of(keys, e.var as usize);
        }
    }

    /// Restores the heap order after keys changed without the heap being
    /// told (an activity rescale can turn a strict order into ties).
    pub(crate) fn rebuild(&mut self, keys: &[f64]) {
        self.rescaled(keys);
        for i in (0..self.heap.len() / 2).rev() {
            self.down(i);
        }
    }

    fn up(&mut self, mut i: usize) {
        let e = self.heap[i];
        while i > 0 {
            let parent = (i - 1) >> 1;
            let pe = self.heap[parent];
            if !O::above(e, pe) {
                break;
            }
            self.heap[i] = pe;
            self.pos[pe.var as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = e;
        self.pos[e.var as usize] = i as u32;
    }

    fn down(&mut self, mut i: usize) {
        let e = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && O::above(self.heap[r], self.heap[l]) {
                r
            } else {
                l
            };
            let ce = self.heap[child];
            if !O::above(ce, e) {
                break;
            }
            self.heap[i] = ce;
            self.pos[ce.var as usize] = i as u32;
            i = child;
        }
        self.heap[i] = e;
        self.pos[e.var as usize] = i as u32;
    }

    /// Adds `v` unless it is already in the heap.
    pub(crate) fn insert(&mut self, v: usize, keys: &[f64]) {
        if self.pos[v] != NOT_IN_HEAP {
            return;
        }
        self.pos[v] = self.heap.len() as u32;
        self.heap.push(Entry {
            key: key_of(keys, v),
            var: v as u32,
        });
        self.up(self.heap.len() - 1);
    }

    /// Moves `v` up after its key grew.
    pub(crate) fn raised(&mut self, v: usize, keys: &[f64]) {
        let i = self.pos[v];
        if i != NOT_IN_HEAP {
            self.heap[i as usize].key = key_of(keys, v);
            self.up(i as usize);
        }
    }

    /// Removes and returns the top variable.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        let top = self.heap.first()?.var;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.var as usize] = 0;
            self.down(0);
        }
        Some(top as usize)
    }
}
