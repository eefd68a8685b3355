//! CNF formulas (product-of-sums).

use std::fmt;

use crate::{Lit, Var};

/// One disjunction of literals, as [`CnfFormula::extend`] takes it.
pub type Clause = Vec<Lit>;

/// A formula in conjunctive normal form.
///
/// Clauses are normalised on insertion: duplicate literals are removed and
/// tautological clauses (containing `x` and `!x`) are dropped. All clauses
/// share one literal arena, so a formula of any size is two allocations.
///
/// ```
/// use modsyn_sat::{CnfFormula, Lit, Var};
/// let mut f = CnfFormula::new(1);
/// let x = Var::new(0);
/// f.add_clause([Lit::positive(x), Lit::positive(x)]);   // dedupes to unit
/// f.add_clause([Lit::positive(x), Lit::negative(x)]);   // tautology, dropped
/// assert_eq!(f.clause_count(), 1);
/// assert_eq!(f.clauses().next().unwrap().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CnfFormula {
    num_vars: usize,
    /// Every clause's literals, clause after clause.
    lits: Vec<Lit>,
    /// Clause `c` is `lits[ends[c - 1]..ends[c]]` (from 0 for the first).
    ends: Vec<usize>,
    contains_empty_clause: bool,
}

impl CnfFormula {
    /// Creates a formula over `num_vars` variables with no clauses.
    pub fn new(num_vars: usize) -> Self {
        CnfFormula {
            num_vars,
            lits: Vec::new(),
            ends: Vec::new(),
            contains_empty_clause: false,
        }
    }

    /// Allocates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Adds a clause.
    ///
    /// The clause is sorted and deduplicated; tautologies are dropped. An
    /// empty clause makes the formula trivially unsatisfiable (see
    /// [`CnfFormula::contains_empty_clause`]).
    ///
    /// # Panics
    ///
    /// Panics if a literal mentions a variable outside the formula.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) {
        let start = self.lits.len();
        self.lits.extend(lits);
        let clause = &mut self.lits[start..];
        for l in clause.iter() {
            assert!(
                l.var().index() < self.num_vars,
                "literal {l} out of range for {} variables",
                self.num_vars
            );
        }
        clause.sort_unstable();
        // Dedup in place: keep each literal that differs from the last kept.
        let mut kept = 0;
        for i in 0..clause.len() {
            if kept == 0 || clause[i] != clause[kept - 1] {
                clause[kept] = clause[i];
                kept += 1;
            }
        }
        // Tautology: adjacent sorted literals of the same var with opposite
        // polarity.
        let tautology = clause[..kept].windows(2).any(|w| w[0].var() == w[1].var());
        if tautology {
            self.lits.truncate(start);
            return;
        }
        self.lits.truncate(start + kept);
        if kept == 0 {
            self.contains_empty_clause = true;
        }
        self.ends.push(self.lits.len());
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses (empty clauses included).
    pub fn clause_count(&self) -> usize {
        self.ends.len()
    }

    /// Total number of literal occurrences across all clauses.
    pub fn literal_count(&self) -> usize {
        self.lits.len()
    }

    /// The clauses, in insertion order, each sorted and deduplicated.
    pub fn clauses(&self) -> impl ExactSizeIterator<Item = &[Lit]> + '_ {
        (0..self.ends.len()).map(|c| {
            let start = c.checked_sub(1).map_or(0, |prev| self.ends[prev]);
            &self.lits[start..self.ends[c]]
        })
    }

    /// Whether an empty clause was added (formula trivially unsatisfiable).
    pub fn contains_empty_clause(&self) -> bool {
        self.contains_empty_clause
    }

    /// Evaluates the formula under a complete assignment.
    ///
    /// `assignment[v]` is the value of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than [`CnfFormula::num_vars`].
    pub fn evaluate(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.clauses().all(|c| {
            c.iter()
                .any(|l| assignment[l.var().index()] != l.is_negative())
        })
    }
}

impl Extend<Clause> for CnfFormula {
    fn extend<T: IntoIterator<Item = Clause>>(&mut self, iter: T) {
        for c in iter {
            self.add_clause(c);
        }
    }
}

impl fmt::Display for CnfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cnf: {} vars, {} clauses",
            self.num_vars,
            self.clause_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_extend_the_universe() {
        let mut f = CnfFormula::new(0);
        let a = f.new_var();
        let b = f.new_var();
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(f.num_vars(), 2);
    }

    #[test]
    fn empty_clause_marks_unsat() {
        let mut f = CnfFormula::new(0);
        f.add_clause([]);
        assert!(f.contains_empty_clause());
        assert_eq!(f.clause_count(), 1);
    }

    #[test]
    fn evaluate_checks_all_clauses() {
        let mut f = CnfFormula::new(2);
        let a = Var::new(0);
        let b = Var::new(1);
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        f.add_clause([Lit::negative(a), Lit::positive(b)]);
        assert!(f.evaluate(&[false, true]));
        assert!(f.evaluate(&[true, true]));
        assert!(!f.evaluate(&[true, false]));
    }

    #[test]
    fn literal_count_sums_clause_sizes() {
        let mut f = CnfFormula::new(2);
        let a = Var::new(0);
        let b = Var::new(1);
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        f.add_clause([Lit::negative(b)]);
        assert_eq!(f.literal_count(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_literal_panics() {
        let mut f = CnfFormula::new(1);
        f.add_clause([Lit::positive(Var::new(5))]);
    }

    #[test]
    fn clauses_come_back_sorted_deduplicated_in_insertion_order() {
        let mut f = CnfFormula::new(4);
        let l = |v: usize, positive: bool| Lit::with_polarity(Var::new(v), positive);
        f.add_clause([l(3, true), l(0, false), l(3, true), l(1, true)]);
        f.add_clause([l(2, true), l(2, false)]); // tautology, dropped
        f.add_clause([l(2, false), l(2, false)]);
        f.add_clause([]);
        f.add_clause([l(1, true), l(0, true)]);
        let clauses: Vec<Vec<Lit>> = f.clauses().map(<[Lit]>::to_vec).collect();
        let mut first = vec![l(0, false), l(1, true), l(3, true)];
        first.sort_unstable();
        let mut last = vec![l(0, true), l(1, true)];
        last.sort_unstable();
        assert_eq!(clauses, [first, vec![l(2, false)], vec![], last]);
        assert_eq!(f.literal_count(), 6);
        assert!(f.contains_empty_clause());
    }

    #[test]
    fn extend_adds_clauses() {
        let mut f = CnfFormula::new(1);
        let x = Var::new(0);
        f.extend(vec![vec![Lit::positive(x)], vec![Lit::negative(x)]]);
        assert_eq!(f.clause_count(), 2);
    }
}
