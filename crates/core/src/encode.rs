//! The SAT-CSC encoding (paper Section 2.1).
//!
//! Every state `M` of the state graph gets, per new state signal `n_k`, a
//! four-valued variable `v_k(M) ∈ {0, 1, Up, Down}` encoded by two boolean
//! variables (footnote 2 of the paper): `a` = "excited" and `b` = the
//! current binary value, so `(a,b)` maps `(0,0)=0`, `(0,1)=1`, `(1,0)=Up`,
//! `(1,1)=Down`.
//!
//! Four clause families are emitted:
//!
//! 1. **Consistency**, one clause per (edge, signal, forbidden value pair).
//!    The allowed pairs follow the cyclic progression
//!    `0 → Up → 1 → Down → 0`; `(Up,1)`/`(Down,0)` — the state signal fires
//!    across the edge — are additionally forbidden on **input** edges, since
//!    an insertion may not delay the environment.
//!
//! 1.5. **Persistence**: on every concurrency diamond, the expansion must
//!    not produce a state copy that an edge enters while the concurrent
//!    pending non-input transition's edge is absent from it — the inserted
//!    signal would *withdraw* an excitation, breaking semi-modularity of
//!    the expanded graph (and so speed independence of any conforming
//!    circuit).
//!
//! 2. **CSC resolution**: each conflicting pair must be distinguished by at
//!    least one state signal that is *stable with opposite values* on the
//!    two states (an excited region overlapping a conflict state cannot
//!    resolve it — the state signal's own logic function would inherit the
//!    conflict).
//! 3. **No new conflicts**: USC pairs (equal code, equal excitation) may
//!    not end up with copies that share an extended code but disagree on
//!    the new signal's excitation.

use modsyn_sat::{CnfFormula, Lit, SolverStats, Var};
use modsyn_sg::{CscAnalysis, EdgeLabel, Quat, StateGraph, StateSignalAssignment};
use modsyn_store::{ClauseFamilies, FormulaStat};

/// A CNF encoding of the CSC-satisfaction problem for `m` new state
/// signals, with the variable layout needed to decode models.
#[derive(Debug, Clone)]
pub struct Encoding {
    /// The formula to hand to the solver.
    pub formula: CnfFormula,
    /// Number of state signals (`m`).
    pub state_signals: usize,
    /// Number of graph states.
    pub states: usize,
    /// Clause counts per family. Feeds the provenance records of the
    /// synthesis store.
    pub families: ClauseFamilies,
}

impl Encoding {
    /// Variable "excited" for (state, signal).
    pub fn a(&self, state: usize, k: usize) -> Var {
        Var::new(2 * (state * self.state_signals + k))
    }

    /// Variable "value bit" for (state, signal).
    pub fn b(&self, state: usize, k: usize) -> Var {
        Var::new(2 * (state * self.state_signals + k) + 1)
    }

    /// The statistics record of one attempt on this formula: its size as
    /// solved, the verdict, and the solver's counters.
    pub(crate) fn stat(&self, satisfiable: bool, solver: SolverStats) -> FormulaStat {
        FormulaStat {
            state_signals: self.state_signals,
            clauses: self.formula.clause_count(),
            variables: self.formula.num_vars(),
            satisfiable,
            solver,
        }
    }

    /// Decodes a satisfying model into per-signal assignments. Names are
    /// `prefix0`, `prefix1`, … offset by `name_offset`.
    pub fn decode(
        &self,
        model: &modsyn_sat::Model,
        prefix: &str,
        name_offset: usize,
    ) -> Vec<StateSignalAssignment> {
        (0..self.state_signals)
            .map(|k| {
                let values = (0..self.states)
                    .map(
                        |s| match (model.value(self.a(s, k)), model.value(self.b(s, k))) {
                            (false, false) => Quat::Zero,
                            (false, true) => Quat::One,
                            (true, false) => Quat::Up,
                            (true, true) => Quat::Down,
                        },
                    )
                    .collect();
                StateSignalAssignment {
                    name: format!("{prefix}{}", name_offset + k),
                    values,
                }
            })
            .collect()
    }
}

/// The 16 ordered value pairs, as (a_from, b_from, a_to, b_to) tuples,
/// keyed by `(Quat, Quat)`.
fn quat_bits(q: Quat) -> (bool, bool) {
    match q {
        Quat::Zero => (false, false),
        Quat::One => (false, true),
        Quat::Up => (true, false),
        Quat::Down => (true, true),
    }
}

const ALL_QUATS: [Quat; 4] = [Quat::Zero, Quat::One, Quat::Up, Quat::Down];

/// Whether `(from, to)` is a consistent progression along a non-firing edge
/// (the state signal does not fire on this edge unless `allow_fire`).
fn edge_pair_allowed(from: Quat, to: Quat, allow_fire: bool) -> bool {
    use Quat::{Down, One, Up, Zero};
    matches!(
        (from, to),
        (Zero, Zero) | (One, One) | (Up, Up) | (Down, Down) | (Zero, Up) | (One, Down)
    ) || (allow_fire && matches!((from, to), (Up, One) | (Down, Zero)))
}

/// Whether the expansion places a copy of an edge with values `(from, to)`
/// in the low (signal = 0) copy of its endpoints. Mirrors
/// `modsyn_sg::insert_state_signals` exactly.
fn edge_in_lo(from: Quat, to: Quat) -> bool {
    use Quat::{Down, Up, Zero};
    matches!(
        (from, to),
        (Zero, Zero) | (Zero, Up) | (Up, Up) | (Down, Down) | (Down, Zero)
    )
}

/// Whether the expansion places a copy of an edge with values `(from, to)`
/// in the high (signal = 1) copy of its endpoints.
fn edge_in_hi(from: Quat, to: Quat) -> bool {
    use Quat::{Down, One, Up};
    matches!(
        (from, to),
        (One, One) | (One, Down) | (Up, Up) | (Down, Down) | (Up, One)
    )
}

/// Whether a USC (equal code, equal excitation) pair may take values
/// `(vi, vj)` without creating a new conflict between split copies.
fn usc_pair_allowed(vi: Quat, vj: Quat) -> bool {
    use Quat::{Down, One, Up, Zero};
    vi == vj
        || matches!(
            (vi, vj),
            (Zero, One) | (One, Zero) | (Zero, Down) | (Down, Zero) | (One, Up) | (Up, One)
        )
}

/// Builds the SAT-CSC formula for inserting `m` state signals into `graph`,
/// resolving every conflict in `analysis`.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn encode_csc(graph: &StateGraph, analysis: &CscAnalysis, m: usize) -> Encoding {
    encode_csc_partial(graph, analysis, &analysis.csc_pairs, m)
}

/// The formula of clause families 1 and 1.5 alone for `m` state signals,
/// with their family counts. Both families are emitted per signal with the
/// same shape, so at `m = 1` this is what every single signal of any
/// solution satisfies on its own.
///
/// # Panics
///
/// Panics if `m` is zero.
pub(crate) fn encode_signal_families(graph: &StateGraph, m: usize) -> Encoding {
    assert!(m > 0, "at least one state signal is required");
    let states = graph.state_count();
    let mut formula = CnfFormula::new(2 * states * m);
    let enc = Encoding {
        formula: CnfFormula::new(0),
        state_signals: m,
        states,
        families: ClauseFamilies::default(),
    };
    // Each family's count is the clauses emitted since the previous one.
    let mut families = ClauseFamilies::default();

    // Family 1: edge consistency / semi-modularity.
    for e in graph.edges() {
        let allow_fire = match e.label {
            EdgeLabel::Epsilon => false,
            EdgeLabel::Signal { signal, .. } => graph.signals()[signal].kind.is_non_input(),
        };
        // ε edges additionally forbid excitation changes: the two states
        // are behaviourally identical, so values must be equal.
        let equality_only = e.label == EdgeLabel::Epsilon;
        for k in 0..m {
            for &vf in &ALL_QUATS {
                for &vt in &ALL_QUATS {
                    let allowed = if equality_only {
                        vf == vt
                    } else {
                        edge_pair_allowed(vf, vt, allow_fire)
                    };
                    if allowed {
                        continue;
                    }
                    let (af, bf) = quat_bits(vf);
                    let (at, bt) = quat_bits(vt);
                    formula.add_clause([
                        Lit::with_polarity(enc.a(e.from, k), !af),
                        Lit::with_polarity(enc.b(e.from, k), !bf),
                        Lit::with_polarity(enc.a(e.to, k), !at),
                        Lit::with_polarity(enc.b(e.to, k), !bt),
                    ]);
                }
            }
        }
    }

    families.consistency = formula.clause_count();

    // Family 1.5: persistence across concurrency diamonds. Expansion keeps
    // an edge only in the copies its value pair selects (`edge_in_lo` /
    // `edge_in_hi`); entering a state copy through one leg of a diamond
    // where the other leg's edge is absent would *withdraw* a pending
    // non-input excitation — the expanded graph would not be semi-modular
    // and the victim's gate could emit a runt pulse. For every diamond
    // (t: p -> s fired while u: p -> b stays pending, with u re-enabled as
    // s -> c), forbid each otherwise-consistent value combination in which
    // some entered copy of `s` has lost `u`.
    let mut diamonds = std::collections::BTreeSet::new();
    for p in 0..states {
        for t in graph.out_edges(p) {
            let (t_equality, t_fire, t_signal) = match t.label {
                EdgeLabel::Epsilon => (true, false, None),
                EdgeLabel::Signal { signal, .. } => (
                    false,
                    graph.signals()[signal].kind.is_non_input(),
                    Some(signal),
                ),
            };
            for u in graph.out_edges(p) {
                let EdgeLabel::Signal { signal, .. } = u.label else {
                    continue;
                };
                if !graph.signals()[signal].kind.is_non_input() || Some(signal) == t_signal {
                    continue;
                }
                for c in graph.out_edges(t.to).filter(|e| e.label == u.label) {
                    diamonds.insert((p, t.to, u.to, c.to, t_equality, t_fire));
                }
            }
        }
    }
    for &(p, s, b, c, t_equality, t_fire) in &diamonds {
        for k in 0..m {
            for &vp in &ALL_QUATS {
                for &vs in &ALL_QUATS {
                    let t_ok = if t_equality {
                        vp == vs
                    } else {
                        edge_pair_allowed(vp, vs, t_fire)
                    };
                    if !t_ok {
                        continue; // family 1 already forbids this pair
                    }
                    for &vb in &ALL_QUATS {
                        if !edge_pair_allowed(vp, vb, true) {
                            continue;
                        }
                        for &vc in &ALL_QUATS {
                            if !edge_pair_allowed(vs, vc, true) {
                                continue;
                            }
                            let withdrawn =
                                (edge_in_lo(vp, vs) && edge_in_lo(vp, vb) && !edge_in_lo(vs, vc))
                                    || (edge_in_hi(vp, vs)
                                        && edge_in_hi(vp, vb)
                                        && !edge_in_hi(vs, vc));
                            if !withdrawn {
                                continue;
                            }
                            let lits = [(p, vp), (s, vs), (b, vb), (c, vc)].map(|(st, v)| {
                                let (av, bv) = quat_bits(v);
                                [
                                    Lit::with_polarity(enc.a(st, k), !av),
                                    Lit::with_polarity(enc.b(st, k), !bv),
                                ]
                            });
                            formula.add_clause(lits.into_iter().flatten());
                        }
                    }
                }
            }
        }
    }

    families.persistence = formula.clause_count() - families.total();
    Encoding {
        formula,
        families,
        ..enc
    }
}

/// Like [`encode_csc`], but only the pairs in `resolve` get resolution
/// clauses. Pairs left out stay in conflict (a later module resolves them);
/// they need no constraints of their own because additional state signals
/// can neither fix nor worsen an unresolved pair.
///
/// # Panics
///
/// Panics if `m` is zero.
pub fn encode_csc_partial(
    graph: &StateGraph,
    analysis: &CscAnalysis,
    resolve: &[(usize, usize)],
    m: usize,
) -> Encoding {
    let mut enc = encode_signal_families(graph, m);
    let mut formula = std::mem::replace(&mut enc.formula, CnfFormula::new(0));
    let mut families = enc.families;

    // Family 3: no new conflicts on USC pairs. A pair is safe when either
    // (a) some signal holds stable opposite values on it — the split copies
    // then never share an extended code, so every per-signal combination is
    // harmless — or (b) every signal individually avoids the combinations
    // whose copies would share a code with differing excitation. One
    // "escape" variable per pair selects branch (a).
    for &(i, j) in &analysis.usc_pairs {
        let escape = formula.new_var();
        let ds: Vec<Var> = (0..m).map(|_| formula.new_var()).collect();
        for (k, &d) in ds.iter().enumerate() {
            let d_neg = Lit::negative(d);
            formula.add_clause([d_neg, Lit::negative(enc.a(i, k))]);
            formula.add_clause([d_neg, Lit::negative(enc.a(j, k))]);
            formula.add_clause([
                d_neg,
                Lit::positive(enc.b(i, k)),
                Lit::positive(enc.b(j, k)),
            ]);
            formula.add_clause([
                d_neg,
                Lit::negative(enc.b(i, k)),
                Lit::negative(enc.b(j, k)),
            ]);
        }
        // escape -> some signal is stable-disjoint on the pair.
        let mut clause: Vec<Lit> = vec![Lit::negative(escape)];
        clause.extend(ds.iter().map(|&d| Lit::positive(d)));
        formula.add_clause(clause);
        // !escape -> per-signal safety.
        for k in 0..m {
            for &vi in &ALL_QUATS {
                for &vj in &ALL_QUATS {
                    if usc_pair_allowed(vi, vj) {
                        continue;
                    }
                    let (ai, bi) = quat_bits(vi);
                    let (aj, bj) = quat_bits(vj);
                    formula.add_clause([
                        Lit::positive(escape),
                        Lit::with_polarity(enc.a(i, k), !ai),
                        Lit::with_polarity(enc.b(i, k), !bi),
                        Lit::with_polarity(enc.a(j, k), !aj),
                        Lit::with_polarity(enc.b(j, k), !bj),
                    ]);
                }
            }
        }
    }

    families.usc = formula.clause_count() - families.total();

    // Family 2: every selected CSC conflict is resolved by some signal that
    // is stable-opposite on the pair. One auxiliary variable per (pair, k).
    //
    // Note on existing outputs: an insertion may *delay* an already-excited
    // output behind the new signal (the `(Up, 1)` pattern on its edge),
    // making the new signal one of its triggers. The state-graph excitation
    // of that output then starts later than in the original specification —
    // behaviourally safe for non-inputs, though the interim cover can carry
    // hazards; the paper defers those to its hazard-removal post-process
    // (see `modsyn_logic::static_hazards`).
    for &(i, j) in resolve {
        let ds: Vec<Var> = (0..m).map(|_| formula.new_var()).collect();
        for (k, &d) in ds.iter().enumerate() {
            let d_neg = Lit::negative(d);
            formula.add_clause([d_neg, Lit::negative(enc.a(i, k))]);
            formula.add_clause([d_neg, Lit::negative(enc.a(j, k))]);
            formula.add_clause([
                d_neg,
                Lit::positive(enc.b(i, k)),
                Lit::positive(enc.b(j, k)),
            ]);
            formula.add_clause([
                d_neg,
                Lit::negative(enc.b(i, k)),
                Lit::negative(enc.b(j, k)),
            ]);
        }
        formula.add_clause(ds.iter().map(|&d| Lit::positive(d)));
    }

    families.resolution = formula.clause_count() - families.total();

    Encoding {
        formula,
        families,
        ..enc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sat::{solve, Outcome, SolverOptions};
    use modsyn_sg::{derive, insert_state_signals, DeriveOptions};
    use modsyn_stg::parse_g;

    fn double_pulse_graph() -> StateGraph {
        let stg = parse_g(
            ".model dp\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ b-\nb- a-\na- b+/2\nb+/2 b-/2\nb-/2 a+\n.marking { <b-/2,a+> }\n.end\n",
        )
        .unwrap();
        derive(&stg, &DeriveOptions::default()).unwrap()
    }

    #[test]
    fn edge_pair_table_matches_figure_3() {
        use Quat::{Down, One, Up, Zero};
        // Allowed without firing.
        for (f, t) in [
            (Zero, Zero),
            (One, One),
            (Up, Up),
            (Down, Down),
            (Zero, Up),
            (One, Down),
        ] {
            assert!(edge_pair_allowed(f, t, false), "{f}->{t}");
        }
        // Firing allowed only on non-input edges.
        assert!(edge_pair_allowed(Up, One, true));
        assert!(!edge_pair_allowed(Up, One, false));
        assert!(edge_pair_allowed(Down, Zero, true));
        assert!(!edge_pair_allowed(Down, Zero, false));
        // Figure 3(j) inconsistencies are always forbidden.
        for (f, t) in [
            (Zero, One),
            (One, Zero),
            (Zero, Down),
            (One, Up),
            (Up, Down),
            (Down, Up),
            (Up, Zero),
            (Down, One),
        ] {
            assert!(!edge_pair_allowed(f, t, true), "{f}->{t}");
        }
    }

    #[test]
    fn double_pulse_is_satisfiable_with_one_signal() {
        let sg = double_pulse_graph();
        let analysis = sg.csc_analysis();
        assert_eq!(analysis.lower_bound, 1);
        let enc = encode_csc(&sg, &analysis, 1);
        let out = solve(&enc.formula, SolverOptions::default());
        assert!(out.is_sat(), "expected satisfiable");
    }

    #[test]
    fn decoded_assignment_expands_and_resolves() {
        let sg = double_pulse_graph();
        let analysis = sg.csc_analysis();
        let enc = encode_csc(&sg, &analysis, 1);
        let Outcome::Satisfiable(model) = solve(&enc.formula, SolverOptions::default()) else {
            panic!("satisfiable");
        };
        let assignments = enc.decode(&model, "csc", 0);
        assert_eq!(assignments.len(), 1);
        assert_eq!(assignments[0].name, "csc0");
        let expanded = insert_state_signals(&sg, &assignments).unwrap();
        let after = expanded.csc_analysis();
        assert!(after.satisfies_csc(), "remaining: {:?}", after.csc_pairs);
    }

    #[test]
    fn formula_size_scales_with_m() {
        let sg = double_pulse_graph();
        let analysis = sg.csc_analysis();
        let e1 = encode_csc(&sg, &analysis, 1);
        let e2 = encode_csc(&sg, &analysis, 2);
        assert!(e2.formula.clause_count() > e1.formula.clause_count());
        // Base layout plus one aux per (csc pair, signal) and per-USC-pair
        // escape machinery.
        assert!(e2.formula.num_vars() >= 2 * sg.state_count() * 2 + 2 * analysis.csc_pairs.len());
    }

    #[test]
    fn clause_families_partition_the_formula() {
        let sg = double_pulse_graph();
        let analysis = sg.csc_analysis();
        let enc = encode_csc(&sg, &analysis, 1);
        assert_eq!(
            enc.families.total(),
            enc.formula.clause_count(),
            "families must partition the clause count"
        );
        assert!(
            enc.families.consistency > 0,
            "consistency clauses always exist"
        );
        assert!(
            enc.families.resolution > 0,
            "a conflicted graph gets resolution clauses"
        );
    }

    #[test]
    fn persistence_family_forbids_withdrawing_diamonds() {
        // Regression for the encoding bug the oracle caught on `fifo` and
        // five other Table-1 benchmarks: without clause family 1.5 the
        // solver could assign the diamond values (1, ↓, ↓, 0) — the fired
        // leg (1, ↓) and the pending leg (1, ↓) both land in the *hi* copy
        // of the expansion, but the re-enabled pending edge (↓, 0) lands
        // only in the *lo* copy, so entering the hi copy withdraws the
        // pending excitation (a glitch under unbounded gate delay). Pin a
        // concurrency diamond to exactly those values and the formula must
        // be unsatisfiable; unpinned it must stay satisfiable.
        let stg = parse_g(
            ".model dia\n.outputs x y z\n.graph\nz+ x+\nz+ y+\nx+ z-\ny+ z-\nz- x-\nz- y-\nx- z+\ny- z+\n.marking { <x-,z+> <y-,z+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let analysis = sg.csc_analysis();
        let enc = encode_csc(&sg, &analysis, 1);
        assert!(
            solve(&enc.formula, SolverOptions::default()).is_sat(),
            "unpinned diamond formula must be satisfiable"
        );

        // Locate a diamond p -(x+)-> s with pending y+: p -(y+)-> b and
        // s -(y+)-> c.
        let x = sg.signal_index("x").unwrap();
        let y = sg.signal_index("y").unwrap();
        let fires = |e: &modsyn_sg::Edge, sig: usize| {
            matches!(e.label, EdgeLabel::Signal { signal, polarity }
                if signal == sig && polarity == modsyn_stg::Polarity::Rise)
        };
        let (p, s, b, c) = (0..sg.state_count())
            .find_map(|p| {
                let s = sg.out_edges(p).find(|e| fires(e, x))?.to;
                let b = sg.out_edges(p).find(|e| fires(e, y))?.to;
                let c = sg.out_edges(s).find(|e| fires(e, y))?.to;
                Some((p, s, b, c))
            })
            .expect("the net contains an x/y concurrency diamond");

        let mut pinned = enc.formula.clone();
        for (state, value) in [
            (p, Quat::One),
            (s, Quat::Down),
            (b, Quat::Down),
            (c, Quat::Zero),
        ] {
            let (av, bv) = quat_bits(value);
            pinned.add_clause([Lit::with_polarity(enc.a(state, 0), av)]);
            pinned.add_clause([Lit::with_polarity(enc.b(state, 0), bv)]);
        }
        assert_eq!(
            solve(&pinned, SolverOptions::default()),
            Outcome::Unsatisfiable,
            "the withdrawing diamond assignment must be forbidden"
        );
    }

    #[test]
    fn unsolvable_input_race_is_unsat() {
        // a+ ; par(b+, a-) ; b-: the 00 conflict cannot be resolved without
        // delaying the input a-, so one signal must not suffice.
        let stg = parse_g(
            ".model race\n.inputs a\n.outputs b\n.graph\na+ b+ a-\nb+ p\na- p2\np b-\np2 b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let analysis = sg.csc_analysis();
        if analysis.csc_pairs.is_empty() {
            return; // structure differs; nothing to prove
        }
        let enc = encode_csc(&sg, &analysis, 1);
        let out = solve(&enc.formula, SolverOptions::default());
        assert_eq!(out, Outcome::Unsatisfiable);
    }
}
