//! The classic engine: one search loop that learns clauses and backjumps
//! (the default) or backtracks chronologically (the branch-and-bound mode
//! of the original SIS solver, kept for baselines and ablations).

use modsyn_fault::Faults;
use modsyn_par::CancelToken;

use crate::heap::{KeyThenIndex, VarHeap};
use crate::heuristic::static_scores;
use crate::poll::SearchPoll;
use crate::trail::{Trail, NO_REASON};
use crate::{CnfFormula, Heuristic, Lit, Model, SolverStats, Var};

/// Search limits and heuristic selection for a [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Branching heuristic. With learning enabled, every heuristic but
    /// [`Heuristic::FirstUnassigned`] branches on conflict-driven activity
    /// seeded from Jeroslow–Wang scores: [`Heuristic::JeroslowWang`] and
    /// [`Heuristic::Moms`] are one search there, and MOMS takes effect
    /// only with learning off.
    pub heuristic: Heuristic,
    /// Abort with [`Outcome::BacktrackLimit`] after this many conflicts,
    /// mirroring the backtrack limit of the SIS branch-and-bound SAT
    /// program the paper used.
    pub max_backtracks: Option<u64>,
    /// Enable conflict-driven clause learning with non-chronological
    /// backjumping and restarts. Disabled, a conflict flips the latest
    /// decision not yet flipped, backtracking chronologically like the
    /// original branch-and-bound program, and the search never restarts.
    pub learning: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            heuristic: Heuristic::default(),
            max_backtracks: None,
            learning: true,
        }
    }
}

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A satisfying assignment was found.
    Satisfiable(Model),
    /// The formula has no satisfying assignment.
    Unsatisfiable,
    /// The backtrack/conflict limit was hit before a verdict (the paper's
    /// "SAT Backtrack Limit" abort).
    BacktrackLimit,
    /// The solver's [`CancelToken`] fired (explicit cancellation or an
    /// expired deadline) before a verdict.
    Aborted,
}

impl Outcome {
    /// Whether the outcome is [`Outcome::Satisfiable`].
    pub fn is_sat(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_))
    }

    /// The model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Satisfiable(m) => Some(m),
            _ => None,
        }
    }

    /// Whether the solver gave a definite verdict (sat or unsat).
    pub fn is_decided(&self) -> bool {
        matches!(self, Outcome::Satisfiable(_) | Outcome::Unsatisfiable)
    }
}

/// What ranks the free variables at a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rank {
    /// [`Heuristic::FirstUnassigned`]: the lowest index.
    Index,
    /// The activity array: conflict-driven with learning, and the static
    /// JW/MOMS scores otherwise (nothing bumps them then).
    Activity,
}

/// SAT search engine over a borrowed [`CnfFormula`].
///
/// See the crate-level example; construct one per formula and call
/// [`Solver::solve`].
///
/// A decision takes the free variable of highest score, ties to the lowest
/// index: the activity with learning, the static JW/MOMS score otherwise,
/// and the index alone for [`Heuristic::FirstUnassigned`]. An indexed heap
/// keeps that order, so a decision costs O(log n).
#[derive(Debug)]
pub struct Solver<'f> {
    formula: &'f CnfFormula,
    options: SolverOptions,
    /// Each clause's two watched literals, its positions 0 and 1. Most
    /// watch visits find the other watch true and read nothing else.
    watched: Vec<[Lit; 2]>,
    /// Every clause's other literals back to back, problem clauses first
    /// and learned clauses appended: clause `c` is `watched[c]` followed
    /// by `rest[starts[c]..starts[c + 1]]`.
    rest: Vec<Lit>,
    starts: Vec<u32>,
    watches: Vec<Vec<u32>>,
    trail: Trail,
    /// Without learning: whether each decision level's decision has been
    /// flipped, for the levels up to the latest flip.
    flipped: Vec<bool>,
    scores: Vec<(f64, f64)>,
    rank: Rank,
    activity: Vec<f64>,
    activity_inc: f64,
    /// Every unassigned variable (and, lazily, some assigned ones).
    order: VarHeap<KeyThenIndex>,
    /// Scratch for conflict analysis: marks the variables of the clause
    /// being learned.
    seen: Vec<bool>,
    /// The clause the last conflict analysis learned, asserting literal
    /// first; reused across conflicts.
    learned: Vec<Lit>,
    stats: SolverStats,
    /// Cancel token and fault plan, polled once per search-loop iteration.
    poll: SearchPoll,
}

impl<'f> Solver<'f> {
    /// Prepares a solver for `formula`.
    pub fn new(formula: &'f CnfFormula, options: SolverOptions) -> Self {
        let n = formula.num_vars();
        let scores = static_scores(
            formula,
            if options.learning {
                Heuristic::JeroslowWang
            } else {
                options.heuristic
            },
        );
        let rank = if options.heuristic == Heuristic::FirstUnassigned {
            Rank::Index
        } else {
            Rank::Activity
        };
        Solver {
            formula,
            options,
            watched: Vec::with_capacity(formula.clause_count()),
            rest: Vec::with_capacity(formula.literal_count()),
            starts: Vec::with_capacity(formula.clause_count() + 1),
            watches: vec![Vec::new(); 2 * n],
            trail: Trail::new(vec![false; n]),
            flipped: Vec::new(),
            scores,
            rank,
            activity: vec![0.0; n],
            activity_inc: 1.0,
            order: VarHeap::new(n),
            seen: vec![false; n],
            learned: Vec::new(),
            stats: SolverStats::default(),
            poll: SearchPoll::default(),
        }
    }

    /// Attaches a cancellation token: the search loop polls it
    /// periodically and returns [`Outcome::Aborted`] once it fires. Keeping
    /// this off [`SolverOptions`] preserves that type's `Copy` contract
    /// (DESIGN.md §7).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.poll.cancel = cancel;
        self
    }

    /// Attaches a fault-injection handle: the search loop probes the
    /// `sat.abort` and `sat.conflict-storm` sites at the cancellation
    /// cadence and returns the corresponding outcome when a rule fires.
    /// Like [`Solver::with_cancel`], this lives off [`SolverOptions`] to
    /// preserve that type's `Copy` contract; a disarmed handle costs one
    /// branch per poll window.
    #[must_use]
    pub fn with_faults(mut self, faults: Faults) -> Self {
        self.poll.faults = faults;
        self
    }

    /// Statistics of the last [`Solver::solve`] run.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// The range of `rest` holding clause `cid`'s unwatched literals.
    fn rest_range(&self, cid: u32) -> std::ops::Range<usize> {
        self.starts[cid as usize] as usize..self.starts[cid as usize + 1] as usize
    }

    /// Number of literals of clause `cid`.
    fn clause_len(&self, cid: u32) -> usize {
        2 + self.rest_range(cid).len()
    }

    /// Literal `k` of clause `cid`: the watched pair, then the rest.
    fn clause_lit(&self, cid: u32, k: usize) -> Lit {
        match k {
            0 | 1 => self.watched[cid as usize][k],
            _ => self.rest[self.starts[cid as usize] as usize + k - 2],
        }
    }

    /// The keys the decision heap is ordered by: none for
    /// [`Rank::Index`], the activities otherwise.
    fn order_keys(rank: Rank, activity: &[f64]) -> &[f64] {
        match rank {
            Rank::Index => &[],
            Rank::Activity => activity,
        }
    }

    /// Unassigns every decision level above `level`.
    fn backtrack(&mut self, level: u32) {
        let keys = Self::order_keys(self.rank, &self.activity);
        self.trail.backtrack(level, &mut self.order, keys);
    }

    /// Propagates all pending assignments; returns the conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while let Some(lit) = self.trail.next_unpropagated() {
            let false_lit = !lit;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0usize;
            'watches: while i < ws.len() {
                let cid = ws[i];
                let pair = &mut self.watched[cid as usize];
                if pair[0] == false_lit {
                    pair.swap(0, 1);
                }
                debug_assert_eq!(pair[1], false_lit);
                let first = pair[0];
                let first_val = self.trail.value(first);
                if first_val == Some(true) {
                    i += 1;
                    continue;
                }
                for k in self.rest_range(cid) {
                    let other = self.rest[k];
                    if self.trail.value(other) != Some(false) {
                        self.rest[k] = false_lit;
                        self.watched[cid as usize][1] = other;
                        self.watches[other.index()].push(cid);
                        ws.swap_remove(i);
                        continue 'watches;
                    }
                }
                if first_val == Some(false) {
                    self.watches[false_lit.index()] = ws;
                    return Some(cid);
                }
                self.trail.assign(first, cid);
                self.stats.propagations += 1;
                i += 1;
            }
            self.watches[false_lit.index()] = ws;
        }
        None
    }

    fn bump(&mut self, var: Var) {
        let a = &mut self.activity[var.index()];
        *a += self.activity_inc;
        if *a > 1e100 {
            for x in &mut self.activity {
                *x *= 1e-100;
            }
            self.activity_inc *= 1e-100;
            self.order
                .rebuild(Self::order_keys(self.rank, &self.activity));
        } else {
            self.order
                .raised(var.index(), Self::order_keys(self.rank, &self.activity));
        }
    }

    /// The free variable the decision order ranks first, with its phase:
    /// the saved phase with learning, the better-scored phase under a
    /// static score, and `true` under [`Heuristic::FirstUnassigned`].
    fn pick_branch_lit(&mut self) -> Option<Lit> {
        let pick = self.trail.pop_free(&mut self.order).map(|i| {
            let var = Var::new(i);
            if self.rank == Rank::Index {
                Lit::positive(var)
            } else if self.options.learning {
                Lit::with_polarity(var, self.trail.phase(i))
            } else {
                let (p, q) = self.scores[i];
                Lit::with_polarity(var, p >= q)
            }
        });
        #[cfg(test)]
        assert_eq!(
            pick,
            tests::scan_pick(self),
            "the decision heap left the linear scan's order"
        );
        pick
    }

    /// 1-UIP conflict analysis. Leaves the learned clause in
    /// `self.learned` (asserting literal first) and returns the backjump
    /// level.
    fn analyze(&mut self, conflict: u32) -> u32 {
        let current = self.trail.level();
        let mut learned = std::mem::take(&mut self.learned);
        learned.clear();
        learned.push(Lit::positive(Var::new(0))); // placeholder slot 0
        let mut counter = 0usize;
        let mut index = self.trail.lits().len();
        let mut reason = conflict;
        let mut resolve_lit: Option<Lit> = None;

        loop {
            // Skip the literal we resolved on (position irrelevant).
            let skip = resolve_lit.map(|l| l.var());
            for k in 0..self.clause_len(reason) {
                let l = self.clause_lit(reason, k);
                if Some(l.var()) == skip {
                    continue;
                }
                let vi = l.var().index();
                if self.seen[vi] || self.trail.level_of(vi) == 0 {
                    continue;
                }
                self.seen[vi] = true;
                self.bump(l.var());
                if self.trail.level_of(vi) >= current {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find the next trail literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail.lits()[index];
                if self.seen[l.var().index()] {
                    resolve_lit = Some(l);
                    break;
                }
            }
            let l = resolve_lit.expect("found a seen literal");
            self.seen[l.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                learned[0] = !l;
                break;
            }
            reason = self.trail.reason(l.var().index());
            debug_assert_ne!(reason, NO_REASON, "resolved literal must be implied");
        }

        // Clause minimisation: a non-asserting literal whose reason clause
        // lies entirely inside the learned clause (or level 0) is implied
        // by the others and can be dropped. `seen` marks exactly the
        // learned clause's variables while every literal is judged, and
        // the kept literals keep their order (dropped ones are swapped to
        // the tail so their marks can be cleared).
        self.seen[learned[0].var().index()] = true;
        let mut kept = 1;
        for i in 1..learned.len() {
            let l = learned[i];
            let reason = self.trail.reason(l.var().index());
            let redundant = reason != NO_REASON
                && self.watched[reason as usize]
                    .iter()
                    .chain(&self.rest[self.rest_range(reason)])
                    .all(|&rl| {
                        rl.var() == l.var()
                            || self.trail.level_of(rl.var().index()) == 0
                            || self.seen[rl.var().index()]
                    });
            if !redundant {
                learned.swap(kept, i);
                kept += 1;
            }
        }
        for l in &learned {
            self.seen[l.var().index()] = false;
        }
        learned.truncate(kept);
        // Backjump level: highest level among the non-asserting literals.
        // Move a literal of that level to position 1 so the two-watched
        // invariant holds after the jump (position 0 becomes unassigned,
        // position 1 is the most recently falsified literal).
        let mut backjump = 0u32;
        let mut second = 1usize;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let level = self.trail.level_of(l.var().index());
            if level > backjump {
                backjump = level;
                second = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, second);
        }
        self.learned = learned;
        backjump
    }

    /// The conflict step with learning: learns the conflict's clause,
    /// backjumps and asserts the clause's first literal.
    fn learn(&mut self, conflict: u32) {
        let backjump = self.analyze(conflict);
        self.stats.learned_clauses += 1;
        self.stats.learned_literals += self.learned.len() as u64;
        self.activity_inc *= 1.0 / 0.95;
        self.backtrack(backjump);
        let learned = std::mem::take(&mut self.learned);
        let reason = if learned.len() == 1 {
            NO_REASON
        } else {
            self.attach_clause(&learned)
        };
        self.trail.assign(learned[0], reason);
        self.learned = learned;
    }

    /// The conflict step without learning: undoes the search to the latest
    /// decision not yet flipped and asserts its negation at the same level.
    /// False when every decision has been flipped.
    fn flip(&mut self) -> bool {
        // Levels past the recorded ones were opened by plain decisions.
        self.flipped.resize(self.trail.level() as usize, false);
        let Some(index) = self.flipped.iter().rposition(|&f| !f) else {
            return false;
        };
        let level = index as u32 + 1;
        let decision = self.trail.decision(level);
        self.backtrack(level - 1);
        self.flipped.truncate(index);
        self.flipped.push(true);
        self.trail.decide(!decision);
        true
    }

    fn attach_clause(&mut self, lits: &[Lit]) -> u32 {
        debug_assert!(lits.len() >= 2);
        let cid = (self.starts.len() - 1) as u32;
        self.watches[lits[0].index()].push(cid);
        self.watches[lits[1].index()].push(cid);
        self.watched.push([lits[0], lits[1]]);
        self.rest.extend_from_slice(&lits[2..]);
        self.starts.push(self.rest.len() as u32);
        self.stats.peak_clauses = self.stats.peak_clauses.max(cid as usize + 1);
        cid
    }

    fn install_problem_clauses(&mut self) -> Option<Outcome> {
        if self.formula.contains_empty_clause() {
            return Some(Outcome::Unsatisfiable);
        }
        let formula = self.formula;
        for clause in formula.clauses() {
            match clause.len() {
                0 => return Some(Outcome::Unsatisfiable),
                1 => {
                    if !self.trail.enqueue(clause[0]) {
                        return Some(Outcome::Unsatisfiable);
                    }
                }
                _ => {
                    self.attach_clause(clause);
                }
            }
        }
        None
    }

    /// Returns the solver to its state before the first solve: empty
    /// clause database and trail, the seeded activities, every saved phase
    /// false, and every variable in the decision heap.
    fn reset(&mut self) {
        self.stats = SolverStats::default();
        self.trail.reset();
        self.flipped.clear();
        for w in &mut self.watches {
            w.clear();
        }
        self.watched.clear();
        self.rest.clear();
        self.starts.clear();
        self.starts.push(0);
        // Seed dynamic activity with the static scores so early decisions
        // are informed.
        for (a, &(p, q)) in self.activity.iter_mut().zip(&self.scores) {
            *a = p + q;
        }
        self.activity_inc = 1.0;
        self.order.fill(Self::order_keys(self.rank, &self.activity));
        self.poll.reset();
    }

    /// Runs the search to completion or to a limit. Repeated calls restart
    /// the search from scratch.
    ///
    /// Both modes share one loop: a conflict either learns a clause and
    /// backjumps or flips the latest unflipped decision, per
    /// [`SolverOptions::learning`], and only learning restarts.
    pub fn solve(&mut self) -> Outcome {
        self.reset();
        if let Some(early) = self.install_problem_clauses() {
            return early;
        }
        let mut restart_limit = 100u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if self.poll.poll_cancelled() {
                return Outcome::Aborted;
            }
            if let Some(injected) = self.poll.poll_injected() {
                return injected;
            }
            if let Some(conflict) = self.propagate() {
                self.stats.backtracks += 1;
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if let Some(limit) = self.options.max_backtracks {
                    if self.stats.backtracks > limit {
                        return Outcome::BacktrackLimit;
                    }
                }
                if self.trail.level() == 0 {
                    return Outcome::Unsatisfiable;
                }
                if self.options.learning {
                    self.learn(conflict);
                } else if !self.flip() {
                    return Outcome::Unsatisfiable;
                }
                continue;
            }

            if self.options.learning && conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                self.stats.restarts += 1;
                restart_limit = restart_limit + restart_limit / 2;
                self.backtrack(0);
                continue;
            }

            let Some(lit) = self.pick_branch_lit() else {
                return Outcome::Satisfiable(self.trail.model(self.formula));
            };
            self.stats.decisions += 1;
            self.trail.decide(lit);
            self.stats.max_level = self.stats.max_level.max(self.trail.level() as usize);
        }
    }
}

/// Convenience: solve `formula` with the given options.
///
/// ```
/// use modsyn_sat::{solve, CnfFormula, Lit, SolverOptions, Var};
/// let mut f = CnfFormula::new(1);
/// f.add_clause([Lit::positive(Var::new(0))]);
/// assert!(solve(&f, SolverOptions::default()).is_sat());
/// ```
pub fn solve(formula: &CnfFormula, options: SolverOptions) -> Outcome {
    Solver::new(formula, options).solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pigeonhole;
    use modsyn_fault::site;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_polarity(Var::new(i), pos)
    }

    /// The linear decision scan the heap replaced, kept as the reference
    /// order: in test builds every pick of every solve is checked against
    /// it.
    pub(super) fn scan_pick(s: &Solver) -> Option<Lit> {
        let n = s.formula.num_vars();
        if s.options.heuristic == Heuristic::FirstUnassigned {
            return (0..n)
                .position(|i| s.trail.is_free(i))
                .map(|i| Lit::positive(Var::new(i)));
        }
        if s.options.learning {
            let mut best: Option<(f64, usize)> = None;
            for i in 0..n {
                if !s.trail.is_free(i) {
                    continue;
                }
                let a = s.activity[i];
                if best.is_none_or(|(bs, _)| a > bs) {
                    best = Some((a, i));
                }
            }
            return best.map(|(_, i)| Lit::with_polarity(Var::new(i), s.trail.phase(i)));
        }
        let mut best: Option<(f64, usize)> = None;
        for i in 0..n {
            if !s.trail.is_free(i) {
                continue;
            }
            let (p, q) = s.scores[i];
            let score = p + q;
            if best.is_none_or(|(bs, _)| score > bs) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| {
            let (p, q) = s.scores[i];
            Lit::with_polarity(Var::new(i), p >= q)
        })
    }

    fn chrono() -> SolverOptions {
        SolverOptions {
            learning: false,
            ..Default::default()
        }
    }

    #[test]
    fn trivially_sat_both_engines() {
        let mut f = CnfFormula::new(1);
        f.add_clause([lit(0, true)]);
        for opts in [SolverOptions::default(), chrono()] {
            let out = solve(&f, opts);
            assert!(out.is_sat());
            assert!(out.model().unwrap().value(Var::new(0)));
        }
    }

    #[test]
    fn empty_formula_is_sat() {
        let f = CnfFormula::new(3);
        assert!(solve(&f, SolverOptions::default()).is_sat());
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let mut f = CnfFormula::new(1);
        f.add_clause([lit(0, true)]);
        f.add_clause([lit(0, false)]);
        for opts in [SolverOptions::default(), chrono()] {
            assert_eq!(solve(&f, opts), Outcome::Unsatisfiable);
        }
    }

    #[test]
    fn xor_chain_is_sat_and_model_checks() {
        let mut f = CnfFormula::new(3);
        f.add_clause([lit(0, true), lit(1, true)]);
        f.add_clause([lit(0, false), lit(1, false)]);
        f.add_clause([lit(1, true), lit(2, true)]);
        f.add_clause([lit(1, false), lit(2, false)]);
        for opts in all_orders() {
            let out = solve(&f, opts);
            let model = out.model().unwrap_or_else(|| panic!("{opts:?} failed"));
            assert!(model.check(&f));
        }
    }

    #[test]
    fn pigeonhole_is_unsat_under_both_engines() {
        let f = pigeonhole(3);
        for opts in [SolverOptions::default(), chrono()] {
            assert_eq!(solve(&f, opts), Outcome::Unsatisfiable);
        }
    }

    #[test]
    fn cdcl_handles_larger_pigeonhole() {
        // PHP(8,7) is hopeless for plain DPLL in a test but fine for CDCL.
        let f = pigeonhole(6);
        assert_eq!(solve(&f, SolverOptions::default()), Outcome::Unsatisfiable);
    }

    #[test]
    fn backtrack_limit_aborts_hard_instances() {
        let f = pigeonhole(8);
        let out = solve(
            &f,
            SolverOptions {
                max_backtracks: Some(50),
                ..Default::default()
            },
        );
        assert_eq!(out, Outcome::BacktrackLimit);
        assert!(!out.is_decided());
    }

    #[test]
    fn stats_are_populated() {
        let f = pigeonhole(3);
        let mut solver = Solver::new(&f, SolverOptions::default());
        let _ = solver.solve();
        let stats = solver.stats();
        assert!(stats.backtracks > 0);
        assert!(stats.decisions > 0);
        assert_eq!(stats.conflicts, stats.backtracks);
        assert!(stats.learned_clauses > 0, "CDCL must learn on conflicts");
        assert!(stats.learned_literals >= stats.learned_clauses);
        assert!(stats.peak_clauses >= f.clause_count());
    }

    #[test]
    fn chronological_mode_learns_nothing() {
        let f = pigeonhole(3);
        let mut solver = Solver::new(&f, chrono());
        let _ = solver.solve();
        let stats = solver.stats();
        assert!(stats.conflicts > 0);
        assert_eq!(stats.learned_clauses, 0);
        assert_eq!(stats.restarts, 0);
        assert_eq!(stats.peak_clauses, f.clause_count());
    }

    #[test]
    fn restarts_fire_on_long_cdcl_runs() {
        let f = pigeonhole(6); // needs well over 100 conflicts
        let mut solver = Solver::new(&f, SolverOptions::default());
        let _ = solver.solve();
        assert!(solver.stats().restarts > 0);
    }

    #[test]
    fn repeated_solve_is_idempotent() {
        // A second solve must not inherit the first one's bumped
        // activities or saved phases: the same search, counter for counter.
        let f = pigeonhole(5);
        for opts in [SolverOptions::default(), chrono()] {
            let mut solver = Solver::new(&f, opts);
            let first = solver.solve();
            let first_stats = solver.stats();
            let second = solver.solve();
            assert_eq!(first, second);
            assert_eq!(first, Outcome::Unsatisfiable);
            assert_eq!(first_stats, solver.stats(), "learning: {}", opts.learning);
        }
    }

    /// Every option combination a decision order depends on.
    fn all_orders() -> Vec<SolverOptions> {
        use Heuristic::{FirstUnassigned, JeroslowWang, Moms};
        let with = |heuristic, learning| SolverOptions {
            heuristic,
            learning,
            ..Default::default()
        };
        [FirstUnassigned, JeroslowWang, Moms]
            .into_iter()
            .flat_map(|h| [with(h, true), with(h, false)])
            .collect()
    }

    #[test]
    fn the_decision_heap_matches_the_linear_scan_pick_for_pick() {
        // `pick_branch_lit` checks each pick against `scan_pick` in test
        // builds; these seeded CNFs drive that check through every order.
        let mut rng = modsyn_fault::SplitMix64::new(0xdec1_5105);
        let mut decisions = 0u64;
        for round in 0..60 {
            // Random 3-SAT around the satisfiability threshold.
            let n = 20 + rng.below(31);
            let clauses = n * (35 + rng.below(15)) / 10;
            let mut f = CnfFormula::new(n);
            for _ in 0..clauses {
                f.add_clause((0..3).map(|_| lit(rng.below(n), rng.below(2) == 0)));
            }
            let verdicts: Vec<bool> = all_orders()
                .into_iter()
                .map(|opts| {
                    let mut solver = Solver::new(&f, opts);
                    let out = solver.solve();
                    if let Outcome::Satisfiable(m) = &out {
                        assert!(m.check(&f), "round {round}, {opts:?}");
                    }
                    decisions += solver.stats().decisions;
                    out.is_sat()
                })
                .collect();
            assert!(
                verdicts.iter().all(|&v| v == verdicts[0]),
                "round {round}: {verdicts:?}"
            );
        }
        assert!(decisions > 5_000, "only {decisions} picks checked");
    }

    #[test]
    fn the_activity_rescale_rebuilds_the_decision_order() {
        // Activities of 1e-230 and up underflow to zero under the 1e-100
        // rescale: the strict order the heap was built on becomes a tie,
        // which the scan breaks by index.
        let f = CnfFormula::new(16);
        let mut solver = Solver::new(&f, SolverOptions::default());
        solver.reset();
        for (i, a) in solver.activity.iter_mut().enumerate() {
            *a = (i + 1) as f64 * 1e-230;
        }
        solver.order.fill(&solver.activity);
        solver.activity_inc = 2e100;
        solver.bump(Var::new(3));
        let mut picks = Vec::new();
        while let Some(lit) = solver.pick_branch_lit() {
            picks.push(lit.var().index());
            solver.trail.assign(lit, NO_REASON);
        }
        let mut expected = vec![3];
        expected.extend((0..16).filter(|&v| v != 3));
        assert_eq!(picks, expected);
    }

    #[test]
    fn the_decision_heap_survives_the_activity_rescale() {
        // Activities pass 1e100 after about 4,500 conflicts; the rescale
        // can turn a strict order into ties, which the heap must rebuild
        // for. Each pick is checked against the scan, as above.
        let f = pigeonhole(7);
        let mut solver = Solver::new(&f, SolverOptions::default());
        assert_eq!(solver.solve(), Outcome::Unsatisfiable);
        let unscaled = (1.0 / 0.95f64).powf(solver.stats().conflicts as f64);
        assert!(
            solver.activity_inc < unscaled * 1e-50,
            "no rescale happened"
        );
    }

    #[test]
    fn a_cancelled_token_aborts_both_engines() {
        let f = pigeonhole(6);
        for opts in [SolverOptions::default(), chrono()] {
            let token = CancelToken::new();
            token.cancel();
            let out = Solver::new(&f, opts).with_cancel(token).solve();
            assert_eq!(out, Outcome::Aborted);
            assert!(!out.is_decided());
        }
    }

    #[test]
    fn an_expired_deadline_aborts_a_hard_instance_quickly() {
        use std::time::{Duration, Instant};
        // PHP(10,9) takes far longer than the deadline to decide.
        let f = pigeonhole(9);
        let token = CancelToken::with_deadline(Duration::from_millis(20));
        let started = Instant::now();
        let out = Solver::new(&f, SolverOptions::default())
            .with_cancel(token)
            .solve();
        assert_eq!(out, Outcome::Aborted);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "cooperative abort must land well before the instance decides"
        );
    }

    #[test]
    fn an_inert_token_changes_nothing() {
        let f = pigeonhole(3);
        let mut plain = Solver::new(&f, SolverOptions::default());
        let mut tokened =
            Solver::new(&f, SolverOptions::default()).with_cancel(CancelToken::never());
        assert_eq!(plain.solve(), tokened.solve());
        assert_eq!(plain.stats(), tokened.stats());
    }

    #[test]
    fn an_armed_abort_fault_aborts_both_engines() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(6);
        for opts in [SolverOptions::default(), chrono()] {
            let faults = FaultPlan::new("t", 1)
                .rule(FaultRule::at(site::SAT_ABORT))
                .arm();
            let out = Solver::new(&f, opts).with_faults(faults.clone()).solve();
            assert_eq!(out, Outcome::Aborted);
            assert_eq!(faults.injected_at(site::SAT_ABORT), 1);
        }
    }

    #[test]
    fn a_conflict_storm_fault_reports_the_backtrack_limit() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(6);
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
            .arm();
        let out = Solver::new(&f, SolverOptions::default())
            .with_faults(faults)
            .solve();
        assert_eq!(out, Outcome::BacktrackLimit);
    }

    #[test]
    fn an_exhausted_fault_budget_lets_the_search_finish() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let f = pigeonhole(3);
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .arm();
        let mut solver = Solver::new(&f, SolverOptions::default()).with_faults(faults.clone());
        assert_eq!(solver.solve(), Outcome::Aborted);
        // The single-shot budget is spent; the retry decides the instance.
        assert_eq!(solver.solve(), Outcome::Unsatisfiable);
        assert_eq!(faults.total_injected(), 1);
    }

    #[test]
    fn a_disarmed_handle_changes_nothing() {
        let f = pigeonhole(3);
        let mut plain = Solver::new(&f, SolverOptions::default());
        let mut handled = Solver::new(&f, SolverOptions::default()).with_faults(Faults::none());
        assert_eq!(plain.solve(), handled.solve());
        assert_eq!(plain.stats(), handled.stats());
    }

    #[test]
    fn random_3sat_agreement_between_engines() {
        // Both engines must agree on satisfiability of small random
        // instances.
        let mut seed = 0x853c49e6748fea9bu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for round in 0..30 {
            let n = 8;
            let clauses = 3 + (next() % 40) as usize;
            let mut f = CnfFormula::new(n);
            for _ in 0..clauses {
                let a = lit((next() % n as u64) as usize, next() % 2 == 0);
                let b = lit((next() % n as u64) as usize, next() % 2 == 0);
                let c = lit((next() % n as u64) as usize, next() % 2 == 0);
                f.add_clause([a, b, c]);
            }
            let cdcl = solve(&f, SolverOptions::default());
            let dpll = solve(&f, chrono());
            assert_eq!(cdcl.is_sat(), dpll.is_sat(), "round {round}");
            if let Outcome::Satisfiable(m) = &cdcl {
                assert!(m.check(&f));
            }
        }
    }
}
