//! The search engines: conflict-driven clause learning (default) and
//! classic chronological DPLL (the branch-and-bound mode of the original
//! SIS solver, kept for baselines and ablations).

use modsyn_fault::Faults;
use modsyn_par::CancelToken;

use crate::heuristic::static_scores;
use crate::poll::SearchPoll;
use crate::{CnfFormula, Heuristic, Lit, Model, SolverStats, Var};

/// Search limits and heuristic selection for a [`Solver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverOptions {
    /// Branching heuristic. With learning enabled, every heuristic but
    /// [`Heuristic::FirstUnassigned`] branches on conflict-driven activity
    /// seeded from Jeroslow–Wang scores, so [`Heuristic::Moms`] takes
    /// effect only with learning off.
    pub heuristic: Heuristic,
    /// Abort with [`Outcome::BacktrackLimit`] after this many conflicts,
    /// mirroring the backtrack limit of the SIS branch-and-bound SAT
    /// program the paper used.
    pub max_backtracks: Option<u64>,
    /// Enable conflict-driven clause learning with non-chronological
    /// backjumping and restarts. Disabled, the solver backtracks
    /// chronologically like the original branch-and-bound program.
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

const UNASSIGNED: u8 = 2;
const NO_REASON: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct ChronoFrame {
    trail_len: usize,
    lit: Lit,
    flipped: bool,
}

/// SAT search engine over a borrowed [`CnfFormula`].
///
/// See the crate-level example; construct one per formula and call
/// [`Solver::solve`].
#[derive(Debug)]
pub struct Solver<'f> {
    formula: &'f CnfFormula,
    options: SolverOptions,
    /// Clause literal arrays, positions 0 and 1 watched. Learned clauses
    /// are appended after the problem clauses.
    clauses: Vec<Vec<Lit>>,
    watches: Vec<Vec<u32>>,
    /// Per-variable values: 0 = false, 1 = true, 2 = unassigned.
    values: Vec<u8>,
    /// Per-variable decision level.
    levels: Vec<u32>,
    /// Per-variable reason clause (NO_REASON for decisions/unset).
    reasons: Vec<u32>,
    trail: Vec<Lit>,
    /// Trail indices where each decision level starts (learning mode).
    level_starts: Vec<usize>,
    qhead: usize,
    /// Chronological-mode decision stack.
    frames: Vec<ChronoFrame>,
    scores: Vec<(f64, f64)>,
    activity: Vec<f64>,
    activity_inc: f64,
    saved_phase: Vec<bool>,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
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
        // Seed dynamic activity with the static scores so early decisions
        // are informed.
        let activity: Vec<f64> = scores.iter().map(|&(p, q)| p + q).collect();
        Solver {
            formula,
            options,
            clauses: Vec::new(),
            watches: vec![Vec::new(); 2 * n],
            values: vec![UNASSIGNED; n],
            levels: vec![0; n],
            reasons: vec![NO_REASON; n],
            trail: Vec::new(),
            level_starts: Vec::new(),
            qhead: 0,
            frames: Vec::new(),
            scores,
            activity,
            activity_inc: 1.0,
            saved_phase: vec![false; n],
            seen: vec![false; n],
            stats: SolverStats::default(),
            poll: SearchPoll::default(),
        }
    }

    /// Attaches a cancellation token: the search loops poll it
    /// periodically and return [`Outcome::Aborted`] once it fires. Keeping
    /// this off [`SolverOptions`] preserves that type's `Copy` contract
    /// (DESIGN.md §7).
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.poll.cancel = cancel;
        self
    }

    /// Attaches a fault-injection handle: the search loops probe the
    /// `sat.abort` and `sat.conflict-storm` sites at the cancellation
    /// cadence and return the corresponding outcome when a rule fires.
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
    }

    /// Enqueue for chronological mode (no reason tracking needed).
    fn enqueue(&mut self, lit: Lit) -> bool {
        match self.lit_value(lit) {
            0 => false,
            1 => true,
            _ => {
                self.assign(lit, NO_REASON);
                true
            }
        }
    }

    /// Propagates all pending assignments; returns the conflicting clause.
    fn propagate(&mut self) -> Option<u32> {
        while self.qhead < self.trail.len() {
            let lit = self.trail[self.qhead];
            self.qhead += 1;
            let false_lit = !lit;
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0usize;
            while i < ws.len() {
                let cid = ws[i];
                let clause = &mut self.clauses[cid as usize];
                if clause[0] == false_lit {
                    clause.swap(0, 1);
                }
                debug_assert_eq!(clause[1], false_lit);
                let first = clause[0];
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
                    i += 1;
                    continue;
                }
                let mut moved = false;
                for k in 2..clause.len() {
                    let cand = clause[k];
                    let v = self.values[cand.var().index()];
                    let cand_false = v != UNASSIGNED && (v == 0) != cand.is_negative();
                    if !cand_false {
                        clause.swap(1, k);
                        let new_watch = clause[1];
                        self.watches[new_watch.index()].push(cid);
                        ws.swap_remove(i);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if first_val == 0 {
                    self.watches[false_lit.index()] = ws;
                    return Some(cid);
                }
                self.assign(first, cid);
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
        }
    }

    fn pick_branch_lit(&mut self) -> Option<Lit> {
        if self.options.heuristic == Heuristic::FirstUnassigned {
            return self
                .values
                .iter()
                .position(|&v| v == UNASSIGNED)
                .map(|i| Lit::positive(Var::new(i)));
        }
        if self.options.learning || self.options.heuristic == Heuristic::Activity {
            let mut best: Option<(f64, usize)> = None;
            for (i, &v) in self.values.iter().enumerate() {
                if v != UNASSIGNED {
                    continue;
                }
                let s = self.activity[i];
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
            return best.map(|(_, i)| Lit::with_polarity(Var::new(i), self.saved_phase[i]));
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, &v) in self.values.iter().enumerate() {
            if v != UNASSIGNED {
                continue;
            }
            let (p, q) = self.scores[i];
            let s = p + q;
            if best.is_none_or(|(bs, _)| s > bs) {
                best = Some((s, i));
            }
        }
        best.map(|(_, i)| {
            let (p, q) = self.scores[i];
            Lit::with_polarity(Var::new(i), p >= q)
        })
    }

    fn unassign_to(&mut self, trail_len: usize) {
        while self.trail.len() > trail_len {
            let l = self.trail.pop().expect("trail shrinks to trail_len");
            let idx = l.var().index();
            self.saved_phase[idx] = l.is_positive();
            self.values[idx] = UNASSIGNED;
            self.reasons[idx] = NO_REASON;
        }
        self.qhead = self.trail.len();
    }

    /// 1-UIP conflict analysis. Returns the learned clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, conflict: u32) -> (Vec<Lit>, u32) {
        let current = self.current_level();
        let mut learned: Vec<Lit> = vec![Lit::positive(Var::new(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut index = self.trail.len();
        let mut reason = conflict;
        let mut resolve_lit: Option<Lit> = None;

        loop {
            // Skip the literal we resolved on (position irrelevant).
            let skip = resolve_lit.map(|l| l.var());
            let lits: Vec<Lit> = self.clauses[reason as usize].clone();
            for l in lits {
                if Some(l.var()) == skip {
                    continue;
                }
                let vi = l.var().index();
                if self.seen[vi] || self.levels[vi] == 0 {
                    continue;
                }
                self.seen[vi] = true;
                self.bump(l.var());
                if self.levels[vi] >= current {
                    counter += 1;
                } else {
                    learned.push(l);
                }
            }
            // Find the next trail literal to resolve on.
            loop {
                index -= 1;
                let l = self.trail[index];
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
            reason = self.reasons[l.var().index()];
            debug_assert_ne!(reason, NO_REASON, "resolved literal must be implied");
        }

        // Clause minimisation: a non-asserting literal whose reason clause
        // lies entirely inside the learned clause (or level 0) is implied
        // by the others and can be dropped.
        let in_learned: Vec<Var> = learned.iter().map(|l| l.var()).collect();
        let mut keep: Vec<Lit> = vec![learned[0]];
        for &l in &learned[1..] {
            let reason = self.reasons[l.var().index()];
            let redundant = reason != NO_REASON
                && self.clauses[reason as usize].iter().all(|&rl| {
                    rl.var() == l.var()
                        || self.levels[rl.var().index()] == 0
                        || in_learned.contains(&rl.var())
                });
            if !redundant {
                keep.push(l);
            }
        }
        let mut learned = keep;

        for l in &learned {
            self.seen[l.var().index()] = false;
        }
        // Also clear any literal dropped by minimisation.
        for v in in_learned {
            self.seen[v.index()] = false;
        }
        // Backjump level: highest level among the non-asserting literals.
        // Move a literal of that level to position 1 so the two-watched
        // invariant holds after the jump (position 0 becomes unassigned,
        // position 1 is the most recently falsified literal).
        let mut backjump = 0u32;
        let mut second = 1usize;
        for (i, l) in learned.iter().enumerate().skip(1) {
            let level = self.levels[l.var().index()];
            if level > backjump {
                backjump = level;
                second = i;
            }
        }
        if learned.len() > 1 {
            learned.swap(1, second);
        }
        (learned, backjump)
    }

    fn attach_clause(&mut self, lits: Vec<Lit>) -> u32 {
        let cid = self.clauses.len() as u32;
        debug_assert!(lits.len() >= 2);
        self.watches[lits[0].index()].push(cid);
        self.watches[lits[1].index()].push(cid);
        self.clauses.push(lits);
        self.stats.peak_clauses = self.stats.peak_clauses.max(self.clauses.len());
        cid
    }

    fn install_problem_clauses(&mut self) -> Option<Outcome> {
        if self.formula.contains_empty_clause() {
            return Some(Outcome::Unsatisfiable);
        }
        for clause in self.formula.clauses() {
            match clause.len() {
                0 => return Some(Outcome::Unsatisfiable),
                1 => {
                    if !self.enqueue(clause[0]) {
                        return Some(Outcome::Unsatisfiable);
                    }
                }
                _ => {
                    self.attach_clause(clause.clone());
                }
            }
        }
        None
    }

    fn reset(&mut self) {
        self.stats = SolverStats::default();
        self.trail.clear();
        self.frames.clear();
        self.level_starts.clear();
        self.qhead = 0;
        self.values.fill(UNASSIGNED);
        self.reasons.fill(NO_REASON);
        self.levels.fill(0);
        for w in &mut self.watches {
            w.clear();
        }
        self.clauses.clear();
        self.activity_inc = 1.0;
        self.poll.reset();
    }

    /// Runs the search to completion or to a limit. Repeated calls restart
    /// the search from scratch.
    pub fn solve(&mut self) -> Outcome {
        self.reset();
        if let Some(early) = self.install_problem_clauses() {
            return early;
        }
        if self.options.learning {
            self.solve_cdcl()
        } else {
            self.solve_chronological()
        }
    }

    fn build_model(&self) -> Model {
        let values = self.values.iter().map(|&v| v == 1).collect();
        let model = Model::from_values(values);
        debug_assert!(model.check(self.formula));
        model
    }

    fn solve_cdcl(&mut self) -> Outcome {
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
                if self.current_level() == 0 {
                    return Outcome::Unsatisfiable;
                }
                let (learned, backjump) = self.analyze(conflict);
                self.stats.learned_clauses += 1;
                self.stats.learned_literals += learned.len() as u64;
                self.activity_inc *= 1.0 / 0.95;
                // Backjump.
                let target = self.level_starts[backjump as usize];
                self.unassign_to(target);
                self.level_starts.truncate(backjump as usize);
                let assert_lit = learned[0];
                if learned.len() == 1 {
                    debug_assert_eq!(self.current_level(), backjump);
                    if !self.enqueue(assert_lit) {
                        return Outcome::Unsatisfiable;
                    }
                } else {
                    let cid = self.attach_clause(learned);
                    self.assign(assert_lit, cid);
                }
                continue;
            }

            if conflicts_since_restart >= restart_limit {
                conflicts_since_restart = 0;
                self.stats.restarts += 1;
                restart_limit = restart_limit + restart_limit / 2;
                self.unassign_to(
                    self.level_starts
                        .first()
                        .copied()
                        .unwrap_or(self.trail.len()),
                );
                self.level_starts.clear();
                continue;
            }

            let Some(lit) = self.pick_branch_lit() else {
                return Outcome::Satisfiable(self.build_model());
            };
            self.stats.decisions += 1;
            self.level_starts.push(self.trail.len());
            self.stats.max_level = self.stats.max_level.max(self.level_starts.len());
            self.assign(lit, NO_REASON);
        }
    }

    fn solve_chronological(&mut self) -> Outcome {
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
                if self.options.heuristic == Heuristic::Activity {
                    for l in self.clauses[conflict as usize].clone() {
                        self.bump(l.var());
                    }
                }
                if let Some(limit) = self.options.max_backtracks {
                    if self.stats.backtracks > limit {
                        return Outcome::BacktrackLimit;
                    }
                }
                loop {
                    let Some(frame) = self.frames.pop() else {
                        return Outcome::Unsatisfiable;
                    };
                    self.unassign_to(frame.trail_len);
                    self.level_starts.truncate(self.frames.len());
                    if !frame.flipped {
                        let flipped_lit = !frame.lit;
                        self.frames.push(ChronoFrame {
                            trail_len: frame.trail_len,
                            lit: flipped_lit,
                            flipped: true,
                        });
                        self.level_starts.push(self.trail.len());
                        let ok = self.enqueue(flipped_lit);
                        debug_assert!(ok, "flipped decision literal was already false");
                        break;
                    }
                }
                continue;
            }

            let Some(lit) = self.pick_branch_lit() else {
                return Outcome::Satisfiable(self.build_model());
            };
            self.stats.decisions += 1;
            self.frames.push(ChronoFrame {
                trail_len: self.trail.len(),
                lit,
                flipped: false,
            });
            self.level_starts.push(self.trail.len());
            self.stats.max_level = self.stats.max_level.max(self.frames.len());
            let ok = self.enqueue(lit);
            debug_assert!(ok, "decision literal was already assigned");
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
    use modsyn_fault::site;

    fn lit(i: usize, pos: bool) -> Lit {
        Lit::with_polarity(Var::new(i), pos)
    }

    fn chrono() -> SolverOptions {
        SolverOptions {
            learning: false,
            ..Default::default()
        }
    }

    /// Pigeonhole principle PHP(n+1, n): unsatisfiable, exponential for DPLL.
    fn pigeonhole(holes: usize) -> CnfFormula {
        let pigeons = holes + 1;
        let mut f = CnfFormula::new(pigeons * holes);
        let var = |p: usize, h: usize| Var::new(p * holes + h);
        for p in 0..pigeons {
            f.add_clause((0..holes).map(|h| Lit::positive(var(p, h))));
        }
        for h in 0..holes {
            for p1 in 0..pigeons {
                for p2 in p1 + 1..pigeons {
                    f.add_clause([Lit::negative(var(p1, h)), Lit::negative(var(p2, h))]);
                }
            }
        }
        f
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
        for h in [
            Heuristic::FirstUnassigned,
            Heuristic::JeroslowWang,
            Heuristic::Moms,
            Heuristic::Activity,
        ] {
            for learning in [true, false] {
                let out = solve(
                    &f,
                    SolverOptions {
                        heuristic: h,
                        learning,
                        ..Default::default()
                    },
                );
                let model = out
                    .model()
                    .unwrap_or_else(|| panic!("{h:?}/{learning} failed"));
                assert!(model.check(&f));
            }
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
        let mut f = CnfFormula::new(2);
        f.add_clause([lit(0, true), lit(1, false)]);
        f.add_clause([lit(0, false), lit(1, true)]);
        for opts in [SolverOptions::default(), chrono()] {
            let mut solver = Solver::new(&f, opts);
            let first = solver.solve();
            let second = solver.solve();
            assert_eq!(first, second);
            assert!(first.is_sat());
        }
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
