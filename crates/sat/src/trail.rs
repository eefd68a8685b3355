//! The assignment both search cores keep: each literal's value, each
//! variable's decision level, reason clause and saved phase, and the trail
//! of assigned literals with its level starts and propagation head.

use crate::heap::{HeapOrder, VarHeap};
use crate::{CnfFormula, Lit, Model};

/// The reason of a decision, of a unit clause and of a free variable.
pub(crate) const NO_REASON: u32 = u32::MAX;

/// A partial assignment, built in trail order.
#[derive(Debug)]
pub(crate) struct Trail {
    /// The value of each literal, by [`Lit::index`] (`2 * var + negated`):
    /// a read is one load, with no polarity to apply.
    values: Vec<Option<bool>>,
    levels: Vec<u32>,
    reasons: Vec<u32>,
    /// The value each variable had when it was last unassigned.
    phases: Vec<bool>,
    /// The assigned literals, in assignment order.
    lits: Vec<Lit>,
    /// Where each decision level starts in `lits`.
    level_starts: Vec<usize>,
    /// How much of `lits` propagation has visited.
    qhead: usize,
}

impl Trail {
    /// Nothing assigned, over one variable per saved phase in `phases`.
    pub(crate) fn new(phases: Vec<bool>) -> Self {
        let n = phases.len();
        Trail {
            values: vec![None; 2 * n],
            levels: vec![0; n],
            reasons: vec![NO_REASON; n],
            phases,
            lits: Vec::new(),
            level_starts: Vec::new(),
            qhead: 0,
        }
    }

    /// Unassigns everything at once and sets every saved phase false.
    pub(crate) fn reset(&mut self) {
        self.values.fill(None);
        self.levels.fill(0);
        self.reasons.fill(NO_REASON);
        self.phases.fill(false);
        self.lits.clear();
        self.level_starts.clear();
        self.qhead = 0;
    }

    /// The value of `lit`, `None` while its variable is free.
    #[inline]
    pub(crate) fn value(&self, lit: Lit) -> Option<bool> {
        self.values[lit.index()]
    }

    #[inline]
    pub(crate) fn is_free(&self, v: usize) -> bool {
        self.values[2 * v].is_none()
    }

    #[inline]
    pub(crate) fn level_of(&self, v: usize) -> u32 {
        self.levels[v]
    }

    /// The clause that implied variable `v`, or [`NO_REASON`].
    #[inline]
    pub(crate) fn reason(&self, v: usize) -> u32 {
        self.reasons[v]
    }

    pub(crate) fn phase(&self, v: usize) -> bool {
        self.phases[v]
    }

    /// The current decision level.
    #[inline]
    pub(crate) fn level(&self) -> u32 {
        self.level_starts.len() as u32
    }

    pub(crate) fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// The literal that opened decision level `level` (from 1).
    pub(crate) fn decision(&self, level: u32) -> Lit {
        self.lits[self.level_starts[level as usize - 1]]
    }

    /// Assigns the free `lit` at the current level.
    #[inline]
    pub(crate) fn assign(&mut self, lit: Lit, reason: u32) {
        let idx = lit.var().index();
        debug_assert!(self.is_free(idx));
        self.values[lit.index()] = Some(true);
        self.values[(!lit).index()] = Some(false);
        self.levels[idx] = self.level();
        self.reasons[idx] = reason;
        self.lits.push(lit);
    }

    /// Makes `lit` true with no reason unless it has a value already;
    /// false when it is already false.
    pub(crate) fn enqueue(&mut self, lit: Lit) -> bool {
        let value = self.value(lit);
        if value.is_none() {
            self.assign(lit, NO_REASON);
        }
        value != Some(false)
    }

    /// Opens a decision level with nothing assigned at it yet.
    pub(crate) fn new_level(&mut self) {
        self.level_starts.push(self.lits.len());
    }

    /// Opens a decision level with `lit` as its decision.
    pub(crate) fn decide(&mut self, lit: Lit) {
        self.new_level();
        self.assign(lit, NO_REASON);
    }

    /// The next assigned literal propagation has not visited, if any.
    #[inline]
    pub(crate) fn next_unpropagated(&mut self) -> Option<Lit> {
        let lit = *self.lits.get(self.qhead)?;
        self.qhead += 1;
        Some(lit)
    }

    pub(crate) fn skip_propagation(&mut self) {
        self.qhead = self.lits.len();
    }

    /// Unassigns every level above `level`, latest literal first, saving
    /// each value as its variable's phase and putting the variable back
    /// in `order`.
    pub(crate) fn backtrack<O: HeapOrder>(
        &mut self,
        level: u32,
        order: &mut VarHeap<O>,
        keys: &[f64],
    ) {
        if self.level() <= level {
            return;
        }
        let target = self.level_starts[level as usize];
        for lit in self.lits.drain(target..).rev() {
            let idx = lit.var().index();
            self.phases[idx] = lit.is_positive();
            self.values[lit.index()] = None;
            self.values[(!lit).index()] = None;
            self.reasons[idx] = NO_REASON;
            order.insert(idx, keys);
        }
        self.level_starts.truncate(level as usize);
        self.qhead = target;
    }

    /// Pops `order` until it yields a free variable.
    pub(crate) fn pop_free<O: HeapOrder>(&self, order: &mut VarHeap<O>) -> Option<usize> {
        std::iter::from_fn(|| order.pop()).find(|&v| self.is_free(v))
    }

    /// The complete assignment, a model of `formula`.
    pub(crate) fn model(&self, formula: &CnfFormula) -> Model {
        let model = Model::from_values(
            self.values
                .iter()
                .step_by(2)
                .map(|&v| v == Some(true))
                .collect(),
        );
        debug_assert!(model.check(formula));
        model
    }
}
