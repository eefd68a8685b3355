//! The CDCL core: a conflict-driven clause-learning solver with the full
//! modern toolkit the lighter `modsyn-sat` engine deliberately omits —
//! blocker-literal watch lists, deep (recursive) learned-clause
//! minimisation, a heap-backed VSIDS order, LBD-aware clause-database
//! reduction with glue protection, Luby restarts, phase saving, and
//! assumption solving.
//!
//! The public surface mirrors `modsyn_sat::Solver` on purpose: borrowed
//! formula in, [`Outcome`] out, [`SolverStats`] counters, builder-style
//! [`Cdcl::with_cancel`] / [`Cdcl::with_faults`], so the synthesis loop can
//! dispatch on an engine without caring which core answered. The
//! `sat.solve` observation lives in that dispatch
//! ([`crate::solve_with_engine_traced`]).

use modsyn_fault::Faults;
use modsyn_par::CancelToken;
use modsyn_sat::{CnfFormula, Lit, Model, Outcome, SearchPoll, SolverStats, Var};

/// Search limits for a [`Cdcl`] solver.
///
/// `max_conflicts` is the CDCL analogue of the paper's SAT backtrack
/// limit: in a learning solver every conflict is one (non-chronological)
/// backtrack, so the two counters coincide and the limit surfaces as
/// [`Outcome::BacktrackLimit`] exactly like the classic engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CdclOptions {
    /// Abort with [`Outcome::BacktrackLimit`] once the instance has met
    /// more than this many conflicts since construction. The count runs
    /// across every solve of the instance, so a sequence of assumption
    /// solves shares this one budget.
    pub max_conflicts: Option<u64>,
}

const UNASSIGNED: u8 = 2;
const NO_REASON: u32 = u32::MAX;

/// Propagations between in-propagation cancel polls: long implication
/// chains inside one conflict window stay responsive to deadlines.
const PROP_POLL_MASK: u64 = 0xFFF;
/// Luby restart unit, in conflicts.
const LUBY_UNIT: u64 = 128;
/// Variable activity decay: 1/decay applied to the increment per conflict.
const VAR_DECAY: f64 = 0.95;
/// Clause activity decay, per conflict.
const CLA_DECAY: f64 = 0.999;
/// Learned clauses with LBD at or below this are glue: never deleted.
const GLUE_LBD: u32 = 2;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: u32,
    /// Any other literal of the clause; if it is already true the clause
    /// is satisfied and the watch scan skips the clause body entirely.
    blocker: Lit,
}

/// Clause header into the shared literal arena.
#[derive(Debug, Clone, Copy)]
struct Header {
    start: u32,
    len: u32,
    lbd: u32,
    activity: f32,
    learned: bool,
    deleted: bool,
}

/// Indexed max-heap over variable activities (the VSIDS order).
#[derive(Debug, Default)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[v]` is the heap slot of variable `v`, or `usize::MAX`.
    pos: Vec<usize>,
}

impl VarOrder {
    fn new(n: usize) -> VarOrder {
        VarOrder {
            heap: Vec::with_capacity(n),
            pos: vec![usize::MAX; n],
        }
    }

    fn contains(&self, v: usize) -> bool {
        self.pos[v] != usize::MAX
    }

    fn up(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) >> 1;
            let pv = self.heap[parent];
            if act[pv as usize] >= act[v as usize] {
                break;
            }
            self.heap[i] = pv;
            self.pos[pv as usize] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }

    fn down(&mut self, mut i: usize, act: &[f64]) {
        let v = self.heap[i];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && act[self.heap[r] as usize] > act[self.heap[l] as usize] {
                r
            } else {
                l
            };
            let cv = self.heap[child];
            if act[v as usize] >= act[cv as usize] {
                break;
            }
            self.heap[i] = cv;
            self.pos[cv as usize] = i;
            i = child;
        }
        self.heap[i] = v;
        self.pos[v as usize] = i;
    }

    fn insert(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.pos[v] = self.heap.len();
        self.heap.push(v as u32);
        self.up(self.pos[v], act);
    }

    fn bumped(&mut self, v: usize, act: &[f64]) {
        if self.contains(v) {
            self.up(self.pos[v], act);
        }
    }

    fn pop_max(&mut self, act: &[f64]) -> Option<u32> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.pos[top as usize] = usize::MAX;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.down(0, act);
        }
        Some(top)
    }
}

/// Conflict-driven clause-learning SAT engine over a borrowed
/// [`CnfFormula`].
#[derive(Debug)]
pub struct Cdcl<'f> {
    formula: &'f CnfFormula,
    options: CdclOptions,
    /// All clause literals, problem clauses first, learned appended.
    arena: Vec<Lit>,
    clauses: Vec<Header>,
    watches: Vec<Vec<Watcher>>,
    values: Vec<u8>,
    levels: Vec<u32>,
    reasons: Vec<u32>,
    trail: Vec<Lit>,
    level_starts: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    activity_inc: f64,
    order: VarOrder,
    saved_phase: Vec<bool>,
    cla_inc: f64,
    /// Live (non-deleted) learned clause count, driving DB reduction.
    learnt_live: usize,
    max_learnts: f64,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    to_clear: Vec<u32>,
    /// The clause the last analysis learned, asserting literal first, and
    /// the minimisation probe's stack; both reused across conflicts.
    learnt: Vec<Lit>,
    min_stack: Vec<Lit>,
    /// Scratch for level-dedup in LBD computation / backjump selection.
    level_seen: Vec<u32>,
    level_stamp: u32,
    assumptions: Vec<Lit>,
    /// Formula contained the empty clause or conflicting units.
    root_unsat: bool,
    stats: SolverStats,
    extra: CdclExtra,
    /// Cancel token and fault plan, polled once per main-loop iteration.
    poll: SearchPoll,
    prop_tick: u64,
}

/// Counters specific to the CDCL core, beyond the shared [`SolverStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CdclExtra {
    /// Learned clauses deleted by DB reduction.
    pub deleted_clauses: u64,
    /// DB reduction passes.
    pub reductions: u64,
    /// Sum of learned-clause LBDs (avg = `lbd_sum / learned_clauses`).
    pub lbd_sum: u64,
    /// Learned glue clauses (LBD ≤ 2, never deleted).
    pub glue_clauses: u64,
    /// Literals removed by learned-clause minimisation.
    pub minimized_literals: u64,
}

impl<'f> Cdcl<'f> {
    /// Prepares a solver for `formula`. Unit clauses are queued at level 0;
    /// an empty clause makes every solve return [`Outcome::Unsatisfiable`].
    pub fn new(formula: &'f CnfFormula, options: CdclOptions) -> Self {
        let n = formula.num_vars();
        // Jeroslow-Wang seeds: informed first decisions and a deterministic
        // initial heap order tuned to the clause-size profile of the CSC
        // encodings (many short consistency clauses, long USC disjunctions).
        let mut activity = vec![0.0f64; n];
        let mut phase_bias = vec![0.0f64; n];
        for clause in formula.clauses() {
            let w = 2f64.powi(-(clause.len().min(30) as i32));
            for &lit in clause {
                activity[lit.var().index()] += w;
                phase_bias[lit.var().index()] += if lit.is_positive() { w } else { -w };
            }
        }
        let mut s = Cdcl {
            formula,
            options,
            arena: Vec::with_capacity(formula.literal_count()),
            clauses: Vec::with_capacity(formula.clause_count()),
            watches: vec![Vec::new(); 2 * n],
            values: vec![UNASSIGNED; n],
            levels: vec![0; n],
            reasons: vec![NO_REASON; n],
            trail: Vec::new(),
            level_starts: Vec::new(),
            qhead: 0,
            activity,
            activity_inc: 1.0,
            order: VarOrder::new(n),
            saved_phase: phase_bias.iter().map(|&b| b > 0.0).collect(),
            cla_inc: 1.0,
            learnt_live: 0,
            max_learnts: (formula.clause_count() as f64 / 3.0).max(2000.0),
            seen: vec![false; n],
            to_clear: Vec::new(),
            learnt: Vec::new(),
            min_stack: Vec::new(),
            level_seen: vec![0; n + 1],
            level_stamp: 0,
            assumptions: Vec::new(),
            root_unsat: formula.contains_empty_clause(),
            stats: SolverStats::default(),
            extra: CdclExtra::default(),
            poll: SearchPoll::default(),
            prop_tick: 0,
        };
        for clause in formula.clauses() {
            let lits = clause.as_slice();
            match lits.len() {
                0 => s.root_unsat = true,
                1 => match s.lit_value(lits[0]) {
                    0 => s.root_unsat = true,
                    1 => {}
                    _ => s.assign(lits[0], NO_REASON),
                },
                _ => {
                    s.attach_clause(lits, false, 0);
                }
            }
        }
        for v in 0..n {
            s.order.insert(v, &s.activity);
        }
        s
    }

    /// Attaches a cancellation token, polled at the [`SearchPoll`] cadence
    /// in the main loop and every `PROP_POLL_MASK + 1` propagations.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.poll.cancel = cancel;
        self
    }

    /// Attaches a fault-injection handle: the `sat.abort` and
    /// `sat.conflict-storm` sites are probed at the cancellation cadence,
    /// so chaos plans written for the classic engine cover this core too.
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.poll.faults = faults;
        self
    }

    /// Statistics since construction: no solve resets them, so after
    /// several (assumption) solves they are the sums over all of them.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// CDCL-specific counters (LBD, deletions) since construction,
    /// summed over every solve like [`Cdcl::stats`].
    pub fn extra(&self) -> CdclExtra {
        self.extra
    }

    /// Average LBD of the clauses learned since construction, rounded; 0
    /// before any learning.
    pub fn avg_lbd(&self) -> u64 {
        self.extra
            .lbd_sum
            .checked_div(self.stats.learned_clauses)
            .unwrap_or(0)
    }

    fn lit_value(&self, lit: Lit) -> u8 {
        let v = self.values[lit.var().index()];
        if v == UNASSIGNED {
            UNASSIGNED
        } else if lit.is_negative() {
            v ^ 1
        } else {
            v
        }
    }

    fn current_level(&self) -> u32 {
        self.level_starts.len() as u32
    }

    fn assign(&mut self, lit: Lit, reason: u32) {
        let idx = lit.var().index();
        debug_assert_eq!(self.values[idx], UNASSIGNED);
        self.values[idx] = u8::from(lit.is_positive());
        self.levels[idx] = self.current_level();
        self.reasons[idx] = reason;
        self.trail.push(lit);
        let level = self.current_level() as usize;
        if level > self.stats.max_level {
            self.stats.max_level = level;
        }
    }

    fn attach_clause(&mut self, lits: &[Lit], learned: bool, lbd: u32) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cid = self.clauses.len() as u32;
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(lits);
        self.clauses.push(Header {
            start,
            len: lits.len() as u32,
            lbd,
            activity: 0.0,
            learned,
            deleted: false,
        });
        self.watches[lits[0].index()].push(Watcher {
            clause: cid,
            blocker: lits[1],
        });
        self.watches[lits[1].index()].push(Watcher {
            clause: cid,
            blocker: lits[0],
        });
        if learned {
            self.learnt_live += 1;
        }
        let live = self.clauses.len() - (self.extra.deleted_clauses as usize);
        if live > self.stats.peak_clauses {
            self.stats.peak_clauses = live;
        }
        cid
    }

    fn clause_lits(&self, cid: u32) -> &[Lit] {
        let h = self.clauses[cid as usize];
        &self.arena[h.start as usize..(h.start + h.len) as usize]
    }

    /// Two-watched-literal propagation with blocker skipping. Returns the
    /// conflicting clause id, or `None` when a fixpoint is reached.
    /// `Err(())` means the cancel token fired mid-chain.
    fn propagate(&mut self) -> Result<Option<u32>, ()> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            if self.poll.cancel.is_cancellable() {
                self.prop_tick = self.prop_tick.wrapping_add(1);
                if (self.prop_tick & PROP_POLL_MASK) == 1 && self.poll.cancel.is_cancelled() {
                    return Err(());
                }
            }
            let false_lit = !p;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0usize;
            let mut j = 0usize;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == 1 {
                    ws[j] = w;
                    i += 1;
                    j += 1;
                    continue;
                }
                let cid = w.clause;
                let h = self.clauses[cid as usize];
                let start = h.start as usize;
                let len = h.len as usize;
                let lits = &mut self.arena[start..start + len];
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                let first_val = {
                    let v = self.values[first.var().index()];
                    if v == UNASSIGNED {
                        UNASSIGNED
                    } else if first.is_negative() {
                        v ^ 1
                    } else {
                        v
                    }
                };
                if first_val == 1 {
                    ws[j] = Watcher {
                        clause: cid,
                        blocker: first,
                    };
                    i += 1;
                    j += 1;
                    continue;
                }
                for k in 2..len {
                    let cand = lits[k];
                    let v = self.values[cand.var().index()];
                    let cand_false = v != UNASSIGNED && (v == 0) != cand.is_negative();
                    if !cand_false {
                        lits.swap(1, k);
                        let new_watch = lits[1];
                        self.watches[new_watch.index()].push(Watcher {
                            clause: cid,
                            blocker: first,
                        });
                        i += 1;
                        continue 'watchers;
                    }
                }
                // No replacement: the clause is unit or conflicting.
                ws[j] = Watcher {
                    clause: cid,
                    blocker: first,
                };
                i += 1;
                j += 1;
                if first_val == 0 {
                    conflict = Some(cid);
                    // Keep the remaining watchers before bailing out.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        i += 1;
                        j += 1;
                    }
                    self.qhead = self.trail.len();
                    break;
                }
                self.assign(first, cid);
                self.stats.propagations += 1;
            }
            ws.truncate(j);
            self.watches[false_lit.index()] = ws;
            if conflict.is_some() {
                return Ok(conflict);
            }
        }
        Ok(None)
    }

    fn bump_var(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.activity_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.activity_inc *= 1e-100;
        }
        self.order.bumped(var.index(), &self.activity);
    }

    fn bump_clause(&mut self, cid: u32) {
        let h = &mut self.clauses[cid as usize];
        if !h.learned {
            return;
        }
        h.activity += self.cla_inc as f32;
        if h.activity > 1e20 {
            for c in &mut self.clauses {
                c.activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// Unassigns the trail back to `target` length, saving phases and
    /// re-inserting variables into the decision order.
    fn unassign_to(&mut self, target: usize) {
        while self.trail.len() > target {
            let lit = self.trail.pop().expect("non-empty trail");
            let idx = lit.var().index();
            self.saved_phase[idx] = self.values[idx] == 1;
            self.values[idx] = UNASSIGNED;
            self.reasons[idx] = NO_REASON;
            self.order.insert(idx, &self.activity);
        }
        self.qhead = target;
    }

    /// Backtracks to decision level `level`.
    fn cancel_until(&mut self, level: u32) {
        if self.current_level() <= level {
            return;
        }
        let target = self.level_starts[level as usize];
        self.unassign_to(target);
        self.level_starts.truncate(level as usize);
    }

    /// Number of distinct decision levels among `lits` (the literal block
    /// distance of a learned clause).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.level_stamp += 1;
        let mut lbd = 0;
        for &lit in lits {
            let l = self.levels[lit.var().index()] as usize;
            if self.level_seen[l] != self.level_stamp {
                self.level_seen[l] = self.level_stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// 1-UIP conflict analysis with deep (recursive) minimisation.
    /// Leaves the learned clause in `self.learnt` (asserting literal
    /// first) and returns the backjump level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let mut learned = std::mem::take(&mut self.learnt);
        learned.clear();
        learned.push(Lit::positive(Var::new(0))); // placeholder
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut cid = conflict;
        let current = self.current_level();
        self.to_clear.clear();

        loop {
            self.bump_clause(cid);
            let h = self.clauses[cid as usize];
            let start = h.start as usize;
            let len = h.len as usize;
            for k in 0..len {
                let q = self.arena[start + k];
                // A reason clause contains its implied literal; skip it.
                if Some(q) == p {
                    continue;
                }
                let vi = q.var().index();
                if self.seen[vi] || self.levels[vi] == 0 {
                    continue;
                }
                self.seen[vi] = true;
                self.to_clear.push(vi as u32);
                self.bump_var(q.var());
                if self.levels[vi] >= current {
                    counter += 1;
                } else {
                    learned.push(q);
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            counter -= 1;
            if counter == 0 {
                break;
            }
            cid = self.reasons[lit.var().index()];
            debug_assert_ne!(cid, NO_REASON);
        }
        let uip = p.expect("1-UIP exists");
        learned[0] = !uip;

        // Deep minimisation: drop any literal whose negation is implied by
        // the rest of the clause through the implication graph.
        let mut abstract_levels = 0u32;
        for &lit in &learned[1..] {
            abstract_levels |= 1 << (self.levels[lit.var().index()] & 31);
        }
        let before = learned.len();
        let mut kept = 1;
        for i in 1..learned.len() {
            let lit = learned[i];
            if self.reasons[lit.var().index()] == NO_REASON
                || !self.lit_redundant(lit, abstract_levels)
            {
                learned[kept] = lit;
                kept += 1;
            }
        }
        learned.truncate(kept);
        self.extra.minimized_literals += (before - kept) as u64;

        // Backjump level: highest level below the asserting literal's.
        let backjump = if learned.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learned.len() {
                if self.levels[learned[i].var().index()] > self.levels[learned[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            learned.swap(1, max_i);
            self.levels[learned[1].var().index()]
        };

        for &vi in &self.to_clear {
            self.seen[vi as usize] = false;
        }
        self.to_clear.clear();
        self.learnt = learned;
        backjump
    }

    /// Whether `lit`'s negation is implied by the remaining learned-clause
    /// literals (minisat's `litRedundant`, iterative).
    fn lit_redundant(&mut self, lit: Lit, abstract_levels: u32) -> bool {
        let mut stack = std::mem::take(&mut self.min_stack);
        stack.clear();
        stack.push(lit);
        let undo_from = self.to_clear.len();
        let mut redundant = true;
        'probe: while let Some(q) = stack.pop() {
            let reason = self.reasons[q.var().index()];
            debug_assert_ne!(reason, NO_REASON);
            let h = self.clauses[reason as usize];
            let start = h.start as usize;
            let len = h.len as usize;
            for k in 0..len {
                let l = self.arena[start + k];
                let vi = l.var().index();
                if vi == q.var().index() || self.seen[vi] || self.levels[vi] == 0 {
                    continue;
                }
                if self.reasons[vi] != NO_REASON
                    && (1u32 << (self.levels[vi] & 31)) & abstract_levels != 0
                {
                    self.seen[vi] = true;
                    self.to_clear.push(vi as u32);
                    stack.push(l);
                } else {
                    // A decision or out-of-clause level: not redundant.
                    // Seen marks added during this probe stay set — they
                    // are cleared with the whole analysis scratch, and
                    // keeping them only makes later probes conservative
                    // in the same (sound) direction as minisat's.
                    for &vi in &self.to_clear[undo_from..] {
                        self.seen[vi as usize] = false;
                    }
                    self.to_clear.truncate(undo_from);
                    redundant = false;
                    break 'probe;
                }
            }
        }
        self.min_stack = stack;
        redundant
    }

    /// Deletes the worst half of the deletable learned clauses: sorted by
    /// LBD (higher first) then activity (lower first); glue clauses
    /// (LBD ≤ [`GLUE_LBD`]), binary clauses and reason clauses survive.
    fn reduce_db(&mut self) {
        self.extra.reductions += 1;
        let mut candidates: Vec<u32> = (0..self.clauses.len() as u32)
            .filter(|&cid| {
                let h = self.clauses[cid as usize];
                h.learned && !h.deleted && h.lbd > GLUE_LBD && h.len > 2 && !self.is_reason(cid)
            })
            .collect();
        candidates.sort_by(|&a, &b| {
            let ha = self.clauses[a as usize];
            let hb = self.clauses[b as usize];
            hb.lbd
                .cmp(&ha.lbd)
                .then(
                    ha.activity
                        .partial_cmp(&hb.activity)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(b.cmp(&a))
        });
        let doomed = candidates.len() / 2;
        for &cid in &candidates[..doomed] {
            self.detach_clause(cid);
        }
    }

    fn is_reason(&self, cid: u32) -> bool {
        let first = self.clause_lits(cid)[0];
        self.values[first.var().index()] != UNASSIGNED && self.reasons[first.var().index()] == cid
    }

    fn detach_clause(&mut self, cid: u32) {
        let (w0, w1) = {
            let lits = self.clause_lits(cid);
            (lits[0], lits[1])
        };
        self.watches[w0.index()].retain(|w| w.clause != cid);
        self.watches[w1.index()].retain(|w| w.clause != cid);
        self.clauses[cid as usize].deleted = true;
        self.learnt_live -= 1;
        self.extra.deleted_clauses += 1;
    }

    /// The reluctant-doubling Luby sequence (1, 1, 2, 1, 1, 2, 4, …).
    fn luby(mut i: u64) -> u64 {
        // Find the smallest complete subsequence (length 2^seq - 1)
        // containing index i, then recurse into it by modulus.
        let mut size: u64 = 1;
        let mut seq: u32 = 0;
        while size < i + 1 {
            seq += 1;
            size = 2 * size + 1;
        }
        while size - 1 != i {
            size = (size - 1) / 2;
            seq -= 1;
            i %= size;
        }
        1u64 << seq
    }

    /// Solves the formula. See [`Cdcl::solve_with_assumptions`] for the
    /// assumption-aware variant.
    pub fn solve(&mut self) -> Outcome {
        self.solve_with_assumptions(&[])
    }

    /// Solves under `assumptions`: each assumed literal is forced as a
    /// pseudo-decision before free decisions start, and restarts re-assume
    /// them. [`Outcome::Unsatisfiable`] then means *unsatisfiable under the
    /// assumptions*.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> Outcome {
        if self.root_unsat {
            return Outcome::Unsatisfiable;
        }
        self.assumptions.clear();
        self.assumptions.extend_from_slice(assumptions);
        self.cancel_until(0);
        match self.propagate() {
            Err(()) => return Outcome::Aborted,
            Ok(Some(_)) => {
                self.root_unsat = true;
                return Outcome::Unsatisfiable;
            }
            Ok(None) => {}
        }

        let mut restart_num = 0u64;
        let mut restart_limit = Self::luby(restart_num) * LUBY_UNIT;
        let mut conflicts_since_restart = 0u64;

        loop {
            if self.poll.poll_cancelled() {
                return Outcome::Aborted;
            }
            if let Some(injected) = self.poll.poll_injected() {
                return injected;
            }
            let conflict = match self.propagate() {
                Err(()) => return Outcome::Aborted,
                Ok(c) => c,
            };
            if let Some(conflict) = conflict {
                self.stats.conflicts += 1;
                self.stats.backtracks += 1;
                conflicts_since_restart += 1;
                if let Some(limit) = self.options.max_conflicts {
                    if self.stats.conflicts > limit {
                        return Outcome::BacktrackLimit;
                    }
                }
                if self.current_level() == 0 {
                    self.root_unsat = true;
                    return Outcome::Unsatisfiable;
                }
                let backjump = self.analyze(conflict);
                let learned = std::mem::take(&mut self.learnt);
                self.stats.learned_clauses += 1;
                self.stats.learned_literals += learned.len() as u64;
                self.activity_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                self.cancel_until(backjump);
                if learned.len() == 1 {
                    self.assign(learned[0], NO_REASON);
                } else {
                    let lbd = self.compute_lbd(&learned);
                    self.extra.lbd_sum += lbd as u64;
                    if lbd <= GLUE_LBD {
                        self.extra.glue_clauses += 1;
                    }
                    let cid = self.attach_clause(&learned, true, lbd);
                    self.assign(learned[0], cid);
                }
                self.learnt = learned;
                if self.learnt_live as f64 >= self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.1;
                }
                continue;
            }

            if conflicts_since_restart >= restart_limit {
                restart_num += 1;
                restart_limit = Self::luby(restart_num) * LUBY_UNIT;
                conflicts_since_restart = 0;
                self.stats.restarts += 1;
                self.cancel_until(0);
                continue;
            }

            // Re-assume the assumption prefix, then free decisions.
            let mut next_decision = None;
            while (self.current_level() as usize) < self.assumptions.len() {
                let p = self.assumptions[self.current_level() as usize];
                match self.lit_value(p) {
                    1 => {
                        // Already true: open an empty pseudo-level so the
                        // prefix indices keep lining up.
                        self.level_starts.push(self.trail.len());
                    }
                    0 => return Outcome::Unsatisfiable,
                    _ => {
                        next_decision = Some(p);
                        break;
                    }
                }
            }
            let decision = match next_decision {
                Some(p) => p,
                None => {
                    let mut picked = None;
                    while let Some(v) = self.order.pop_max(&self.activity) {
                        if self.values[v as usize] == UNASSIGNED {
                            picked = Some(v);
                            break;
                        }
                    }
                    match picked {
                        Some(v) => {
                            let var = Var::new(v as usize);
                            Lit::with_polarity(var, self.saved_phase[v as usize])
                        }
                        None => return Outcome::Satisfiable(self.build_model()),
                    }
                }
            };
            self.stats.decisions += 1;
            self.level_starts.push(self.trail.len());
            self.assign(decision, NO_REASON);
        }
    }

    fn build_model(&self) -> Model {
        let values = self.values.iter().map(|&v| v == 1).collect();
        let model = Model::from_values(values);
        debug_assert!(model.check(self.formula));
        model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sat::{solve_exhaustive, CnfFormula, Lit, Var};

    fn lit(i: i32) -> Lit {
        let var = Var::new((i.unsigned_abs() - 1) as usize);
        Lit::with_polarity(var, i > 0)
    }

    #[test]
    fn simple_sat() {
        let mut f = CnfFormula::new(2);
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(-1)]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        match s.solve() {
            Outcome::Satisfiable(m) => {
                assert!(!m.value(Var::new(0)));
                assert!(m.value(Var::new(1)));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn simple_unsat() {
        let mut f = CnfFormula::new(2);
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(1), lit(-2)]);
        f.add_clause([lit(-1), lit(2)]);
        f.add_clause([lit(-1), lit(-2)]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        assert_eq!(s.solve(), Outcome::Unsatisfiable);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause([]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        assert_eq!(s.solve(), Outcome::Unsatisfiable);
    }

    #[test]
    fn conflicting_units_are_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause([lit(1)]);
        f.add_clause([lit(-1)]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        assert_eq!(s.solve(), Outcome::Unsatisfiable);
    }

    #[test]
    fn assumptions_refute_a_branch_without_refuting_the_formula() {
        // (a | b) & (-a | b): satisfiable, but not with b = false, a = true.
        let mut f = CnfFormula::new(2);
        f.add_clause([lit(1), lit(2)]);
        f.add_clause([lit(-1), lit(2)]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        assert_eq!(s.solve_with_assumptions(&[lit(-2)]), Outcome::Unsatisfiable);
        // The same solver instance still proves the formula satisfiable.
        assert!(s.solve().is_sat());
    }

    #[test]
    fn assumption_model_respects_the_cube() {
        let mut f = CnfFormula::new(3);
        f.add_clause([lit(1), lit(2), lit(3)]);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        match s.solve_with_assumptions(&[lit(-1), lit(3)]) {
            Outcome::Satisfiable(m) => {
                assert!(!m.value(Var::new(0)));
                assert!(m.value(Var::new(2)));
                assert!(m.check(&f));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn conflict_limit_surfaces_as_backtrack_limit() {
        // A compact pigeonhole-style UNSAT instance that needs conflicts.
        let f = pigeonhole(5);
        let mut s = Cdcl::new(
            &f,
            CdclOptions {
                max_conflicts: Some(3),
            },
        );
        assert_eq!(s.solve(), Outcome::BacktrackLimit);
    }

    #[test]
    fn counters_and_the_conflict_budget_run_since_construction() {
        // Two pigeonhole copies on disjoint variables; assuming `select[k]`
        // switches copy k on, so each assumption solve is UNSAT on its own.
        let php = pigeonhole(5);
        let width = php.num_vars() + 1;
        let mut f = CnfFormula::new(2 * width);
        let select = [1, 2].map(|k| Lit::positive(Var::new(k * width - 1)));
        for (k, on) in select.into_iter().enumerate() {
            let shift = |l: &Lit| {
                Lit::with_polarity(Var::new(k * width + l.var().index()), l.is_positive())
            };
            for clause in php.clauses() {
                f.add_clause(clause.iter().map(shift).chain([!on]));
            }
        }
        // Each query in turn on one instance: (outcome, conflicts so far).
        let run = |max_conflicts, queries: &[Lit]| {
            let mut s = Cdcl::new(&f, CdclOptions { max_conflicts });
            let steps: Vec<(Outcome, u64)> = queries
                .iter()
                .map(|&q| (s.solve_with_assumptions(&[q]), s.stats().conflicts))
                .collect();
            steps
        };
        let first = run(None, &select[..1])[0].1;
        let second = run(None, &select[1..])[0].1;
        assert!(first > 0 && second > 2, "{first} {second}");

        // Room for the first solve and one conflict more: the second solve
        // starts from the first's count, stops at its own second conflict,
        // and the counter then holds the sum of both solves.
        let budget = Some(first + 1);
        assert_eq!(
            run(budget, &select),
            [
                (Outcome::Unsatisfiable, first),
                (Outcome::BacktrackLimit, first + 2)
            ]
        );
        // On a fresh instance the second query gets further.
        assert!(run(budget, &select[1..])[0].1 > 2);
    }

    #[test]
    fn cancelled_token_aborts() {
        let f = pigeonhole(7);
        let token = CancelToken::new();
        token.cancel();
        let mut s = Cdcl::new(&f, CdclOptions::default()).with_cancel(token);
        assert_eq!(s.solve(), Outcome::Aborted);
    }

    #[test]
    fn luby_sequence_prefix() {
        let seq: Vec<u64> = (0..15).map(Cdcl::luby).collect();
        assert_eq!(seq, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    /// `n` pigeons into `n-1` holes: var p*(n-1)+h = pigeon p in hole h.
    fn pigeonhole(n: usize) -> CnfFormula {
        let holes = n - 1;
        let mut f = CnfFormula::new(n * holes);
        let v = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..n {
            f.add_clause((0..holes).map(|h| Lit::positive(v(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..n {
                for p2 in p1 + 1..n {
                    f.add_clause([Lit::negative(v(p1, h)), Lit::negative(v(p2, h))]);
                }
            }
        }
        f
    }

    #[test]
    fn pigeonhole_unsat_with_learning_and_reduction() {
        let f = pigeonhole(7);
        let mut s = Cdcl::new(&f, CdclOptions::default());
        assert_eq!(s.solve(), Outcome::Unsatisfiable);
        assert!(s.stats().learned_clauses > 0);
        assert!(s.extra().lbd_sum > 0);
    }

    #[test]
    fn agrees_with_exhaustive_on_small_random_cnfs() {
        let mut rng = modsyn_fault::SplitMix64::new(0x5eed_cafe);
        let mut next = move || rng.next_u64();
        for _ in 0..300 {
            let num_vars = 1 + (next() % 8) as usize;
            let num_clauses = (next() % 24) as usize;
            let mut f = CnfFormula::new(num_vars);
            for _ in 0..num_clauses {
                let len = 1 + (next() % 4) as usize;
                let lits: Vec<Lit> = (0..len)
                    .map(|_| {
                        let v = Var::new((next() % num_vars as u64) as usize);
                        Lit::with_polarity(v, next() & 1 == 0)
                    })
                    .collect();
                f.add_clause(lits);
            }
            let expected = solve_exhaustive(&f).is_sat();
            let mut s = Cdcl::new(&f, CdclOptions::default());
            match s.solve() {
                Outcome::Satisfiable(m) => {
                    assert!(expected, "cdcl sat, exhaustive unsat");
                    assert!(m.check(&f));
                }
                Outcome::Unsatisfiable => assert!(!expected, "cdcl unsat, exhaustive sat"),
                other => panic!("undecided on a tiny formula: {other:?}"),
            }
        }
    }
}
