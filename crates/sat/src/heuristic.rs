//! Branching heuristics.

use crate::CnfFormula;

/// Decision heuristic of the classic engine ([`crate::Solver`]).
///
/// Without learning each heuristic fixes the decision order. With
/// learning, [`Heuristic::JeroslowWang`] and [`Heuristic::Moms`] both
/// branch on conflict-driven activity seeded from Jeroslow–Wang scores
/// (see [`crate::SolverOptions::heuristic`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Heuristic {
    /// Pick the lowest-indexed unassigned variable, phase `true`.
    /// Deterministic and cheap; useful as a worst-case baseline.
    FirstUnassigned,
    /// Static Jeroslow–Wang: score every literal `l` by `Σ 2^-|c|` over the
    /// clauses containing `l`; branch on the variable with the highest
    /// combined score, using the better-scored phase. Good default for the
    /// structured CSC formulas.
    #[default]
    JeroslowWang,
    /// Static MOMS (maximum occurrences in minimum-size clauses).
    Moms,
}

/// Per-variable static scores: `(positive, negative)` literal scores.
pub(crate) fn static_scores(formula: &CnfFormula, heuristic: Heuristic) -> Vec<(f64, f64)> {
    let mut scores = vec![(0.0f64, 0.0f64); formula.num_vars()];
    match heuristic {
        Heuristic::FirstUnassigned => {}
        Heuristic::JeroslowWang => {
            for clause in formula.clauses() {
                // Cap the exponent so tiny weights do not underflow to zero.
                let w = 2f64.powi(-(clause.len().min(60) as i32));
                for l in clause {
                    let entry = &mut scores[l.var().index()];
                    if l.is_positive() {
                        entry.0 += w;
                    } else {
                        entry.1 += w;
                    }
                }
            }
        }
        Heuristic::Moms => {
            let min_len = formula
                .clauses()
                .map(|c| c.len())
                .filter(|&n| n > 0)
                .min()
                .unwrap_or(0);
            for clause in formula.clauses() {
                if clause.len() != min_len {
                    continue;
                }
                for l in clause {
                    let entry = &mut scores[l.var().index()];
                    if l.is_positive() {
                        entry.0 += 1.0;
                    } else {
                        entry.1 += 1.0;
                    }
                }
            }
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lit, Var};

    fn formula() -> CnfFormula {
        let mut f = CnfFormula::new(3);
        let a = Var::new(0);
        let b = Var::new(1);
        let c = Var::new(2);
        f.add_clause([Lit::positive(a), Lit::positive(b)]);
        f.add_clause([Lit::positive(a), Lit::negative(c)]);
        f.add_clause([Lit::negative(a), Lit::positive(b), Lit::positive(c)]);
        f
    }

    #[test]
    fn jeroslow_wang_prefers_frequent_short_literals() {
        let s = static_scores(&formula(), Heuristic::JeroslowWang);
        // a appears positively in two 2-clauses: 0.25 + 0.25.
        assert!((s[0].0 - 0.5).abs() < 1e-12);
        // a negatively in one 3-clause: 0.125.
        assert!((s[0].1 - 0.125).abs() < 1e-12);
    }

    #[test]
    fn moms_counts_only_minimum_size_clauses() {
        let s = static_scores(&formula(), Heuristic::Moms);
        assert_eq!(s[0].0 as u32, 2); // a+ in both 2-clauses
        assert_eq!(s[1].0 as u32, 1); // b+ in one 2-clause
        assert_eq!(s[2].0 as u32, 0); // c+ only in the 3-clause
    }

    #[test]
    fn first_unassigned_has_no_static_scores() {
        let s = static_scores(&formula(), Heuristic::FirstUnassigned);
        assert!(s.iter().all(|&(p, n)| p == 0.0 && n == 0.0));
    }
}
