//! The BDD node arena and core boolean operations.

use std::collections::HashMap;

use crate::BddError;

/// Handle to a BDD root within a [`BddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

const FALSE: Bdd = Bdd(0);
const TRUE: Bdd = Bdd(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    /// Decision variable (level); terminals use `u32::MAX`.
    var: u32,
    /// Child when the variable is 0.
    lo: Bdd,
    /// Child when the variable is 1.
    hi: Bdd,
}

/// An ROBDD manager over a fixed variable universe `0..num_vars` in natural
/// order.
///
/// All operations are memoised; structurally equal functions share nodes,
/// so equality of [`Bdd`] handles is semantic equality.
#[derive(Debug)]
pub struct BddManager {
    num_vars: usize,
    nodes: Vec<Node>,
    unique: HashMap<Node, Bdd>,
    and_cache: HashMap<(Bdd, Bdd), Bdd>,
    or_cache: HashMap<(Bdd, Bdd), Bdd>,
    not_cache: HashMap<Bdd, Bdd>,
    node_budget: usize,
}

impl BddManager {
    /// Creates a manager over `num_vars` variables with the default node
    /// budget (4 million nodes).
    pub fn new(num_vars: usize) -> Self {
        Self::with_budget(num_vars, 4_000_000)
    }

    /// Creates a manager with an explicit node budget; operations that
    /// would exceed it fail with [`BddError::NodeBudgetExceeded`].
    pub fn with_budget(num_vars: usize, node_budget: usize) -> Self {
        let terminal = |var| Node {
            var,
            lo: FALSE,
            hi: FALSE,
        };
        BddManager {
            num_vars,
            // Index 0 = FALSE terminal, 1 = TRUE terminal (children unused).
            nodes: vec![terminal(u32::MAX), terminal(u32::MAX)],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            or_cache: HashMap::new(),
            not_cache: HashMap::new(),
            node_budget,
        }
    }

    /// The constant-false function.
    pub fn zero(&self) -> Bdd {
        FALSE
    }

    /// The constant-true function.
    pub fn one(&self) -> Bdd {
        TRUE
    }

    /// Number of live nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of variables in the universe.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Result<Bdd, BddError> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return Ok(id);
        }
        if self.nodes.len() >= self.node_budget {
            return Err(BddError::NodeBudgetExceeded {
                budget: self.node_budget,
            });
        }
        let id = Bdd(self.nodes.len() as u32);
        self.nodes.push(node);
        self.unique.insert(node, id);
        Ok(id)
    }

    /// The single-variable function `x_i`.
    ///
    /// # Errors
    ///
    /// [`BddError::VariableOutOfRange`] if `i >= num_vars`.
    pub fn var(&mut self, i: usize) -> Result<Bdd, BddError> {
        if i >= self.num_vars {
            return Err(BddError::VariableOutOfRange {
                variable: i,
                declared: self.num_vars,
            });
        }
        self.mk(i as u32, FALSE, TRUE)
    }

    /// The negated single-variable function `!x_i`.
    ///
    /// # Errors
    ///
    /// [`BddError::VariableOutOfRange`] if `i >= num_vars`.
    pub fn nvar(&mut self, i: usize) -> Result<Bdd, BddError> {
        if i >= self.num_vars {
            return Err(BddError::VariableOutOfRange {
                variable: i,
                declared: self.num_vars,
            });
        }
        self.mk(i as u32, TRUE, FALSE)
    }

    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        (n.lo, n.hi)
    }

    /// Conjunction `f ∧ g`.
    ///
    /// # Errors
    ///
    /// Propagates the node budget.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        if f == FALSE || g == FALSE {
            return Ok(FALSE);
        }
        if f == TRUE {
            return Ok(g);
        }
        if g == TRUE || f == g {
            return Ok(f);
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.and_cache.get(&key) {
            return Ok(r);
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let top = vf.min(vg);
        let (f0, f1) = if vf == top { self.children(f) } else { (f, f) };
        let (g0, g1) = if vg == top { self.children(g) } else { (g, g) };
        let lo = self.and(f0, g0)?;
        let hi = self.and(f1, g1)?;
        let r = self.mk(top, lo, hi)?;
        self.and_cache.insert(key, r);
        Ok(r)
    }

    /// Disjunction `f ∨ g`.
    ///
    /// # Errors
    ///
    /// Propagates the node budget.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Result<Bdd, BddError> {
        if f == TRUE || g == TRUE {
            return Ok(TRUE);
        }
        if f == FALSE {
            return Ok(g);
        }
        if g == FALSE || f == g {
            return Ok(f);
        }
        let key = if f <= g { (f, g) } else { (g, f) };
        if let Some(&r) = self.or_cache.get(&key) {
            return Ok(r);
        }
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let top = vf.min(vg);
        let (f0, f1) = if vf == top { self.children(f) } else { (f, f) };
        let (g0, g1) = if vg == top { self.children(g) } else { (g, g) };
        let lo = self.or(f0, g0)?;
        let hi = self.or(f1, g1)?;
        let r = self.mk(top, lo, hi)?;
        self.or_cache.insert(key, r);
        Ok(r)
    }

    /// Negation `¬f`.
    ///
    /// # Errors
    ///
    /// Propagates the node budget.
    pub fn not(&mut self, f: Bdd) -> Result<Bdd, BddError> {
        match f {
            FALSE => return Ok(TRUE),
            TRUE => return Ok(FALSE),
            _ => {}
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return Ok(r);
        }
        let var = self.var_of(f);
        let (lo, hi) = self.children(f);
        let nlo = self.not(lo)?;
        let nhi = self.not(hi)?;
        let r = self.mk(var, nlo, nhi)?;
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        Ok(r)
    }

    /// Evaluates `f` under a complete assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment` is shorter than the universe requires.
    pub fn eval(&self, f: Bdd, assignment: &[bool]) -> bool {
        let mut cur = f;
        loop {
            match cur {
                FALSE => return false,
                TRUE => return true,
                _ => {
                    let var = self.var_of(cur) as usize;
                    let (lo, hi) = self.children(cur);
                    cur = if assignment[var] { hi } else { lo };
                }
            }
        }
    }

    /// Restricts variable `i` to `value` (the cofactor).
    ///
    /// # Errors
    ///
    /// Propagates the node budget and variable range.
    pub fn restrict(&mut self, f: Bdd, i: usize, value: bool) -> Result<Bdd, BddError> {
        if i >= self.num_vars {
            return Err(BddError::VariableOutOfRange {
                variable: i,
                declared: self.num_vars,
            });
        }
        self.restrict_inner(f, i as u32, value, &mut HashMap::new())
    }

    fn restrict_inner(
        &mut self,
        f: Bdd,
        i: u32,
        value: bool,
        cache: &mut HashMap<Bdd, Bdd>,
    ) -> Result<Bdd, BddError> {
        if f == FALSE || f == TRUE || self.var_of(f) > i {
            return Ok(f);
        }
        if let Some(&r) = cache.get(&f) {
            return Ok(r);
        }
        let var = self.var_of(f);
        let (lo, hi) = self.children(f);
        let r = if var == i {
            if value {
                hi
            } else {
                lo
            }
        } else {
            let nlo = self.restrict_inner(lo, i, value, cache)?;
            let nhi = self.restrict_inner(hi, i, value, cache)?;
            self.mk(var, nlo, nhi)?
        };
        cache.insert(f, r);
        Ok(r)
    }

    /// Existential quantification `∃ x_i . f`.
    ///
    /// # Errors
    ///
    /// Propagates the node budget and variable range.
    pub fn exists(&mut self, f: Bdd, i: usize) -> Result<Bdd, BddError> {
        let f0 = self.restrict(f, i, false)?;
        let f1 = self.restrict(f, i, true)?;
        self.or(f0, f1)
    }

    pub(crate) fn node(&self, f: Bdd) -> (u32, Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        (n.var, n.lo, n.hi)
    }

    pub(crate) fn is_terminal(&self, f: Bdd) -> bool {
        f == FALSE || f == TRUE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_and_vars() {
        let mut m = BddManager::new(2);
        assert_ne!(m.zero(), m.one());
        let a = m.var(0).unwrap();
        assert!(m.eval(a, &[true, false]));
        assert!(!m.eval(a, &[false, true]));
        let na = m.nvar(0).unwrap();
        assert!(m.eval(na, &[false, false]));
    }

    #[test]
    fn structural_equality_is_semantic() {
        let mut m = BddManager::new(3);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        // (a ∧ b) ∨ a  ==  a
        let ab = m.and(a, b).unwrap();
        let f = m.or(ab, a).unwrap();
        assert_eq!(f, a);
        // De Morgan.
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let lhs = m.not(ab).unwrap();
        let rhs = m.or(na, nb).unwrap();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn ite_matches_truth_table() {
        // `i ? t : e` composed as `(i ∧ t) ∨ (¬i ∧ e)`.
        let mut m = BddManager::new(3);
        let i = m.var(0).unwrap();
        let t = m.var(1).unwrap();
        let e = m.var(2).unwrap();
        let it = m.and(i, t).unwrap();
        let ni = m.not(i).unwrap();
        let nie = m.and(ni, e).unwrap();
        let f = m.or(it, nie).unwrap();
        for bits in 0..8u8 {
            let a = [bits & 1 == 1, bits & 2 == 2, bits & 4 == 4];
            let expect = if a[0] { a[1] } else { a[2] };
            assert_eq!(m.eval(f, &a), expect, "{a:?}");
        }
    }

    #[test]
    fn restrict_and_exists() {
        let mut m = BddManager::new(2);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let f = m.and(a, b).unwrap();
        let f_a1 = m.restrict(f, 0, true).unwrap();
        assert_eq!(f_a1, b);
        let f_a0 = m.restrict(f, 0, false).unwrap();
        assert_eq!(f_a0, m.zero());
        let ex = m.exists(f, 0).unwrap();
        assert_eq!(ex, b);
    }

    #[test]
    fn node_budget_is_enforced() {
        let mut m = BddManager::with_budget(8, 6);
        let mut acc = m.var(0).unwrap();
        let mut failed = false;
        for i in 1..8 {
            let v = m.var(i);
            match v.and_then(|v| m.and(acc, v)) {
                Ok(next) => acc = next,
                Err(BddError::NodeBudgetExceeded { .. }) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(failed, "tiny budget must overflow");
    }

    #[test]
    fn out_of_range_variable_errors() {
        let mut m = BddManager::new(1);
        assert!(matches!(m.var(3), Err(BddError::VariableOutOfRange { .. })));
    }
}
