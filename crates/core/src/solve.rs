//! The CSC satisfaction loop (paper Figure 4's `while` loop).

use std::time::Instant;

use modsyn_cnc::{solve_with_engine_traced, Engine};
use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_sat::{Outcome, SolverOptions, SolverStats};
use modsyn_sg::{StateGraph, StateSignalAssignment};
use modsyn_store::{ClauseFamilies, FormulaStat, Provenance, StoreLink};

use crate::encode::encode_csc_partial;
use crate::modular::ModuleReport;
use crate::SynthesisError;

/// Prefix of the state signals the CSC solves insert (`csc0`, `csc1`, …).
pub(crate) const NAME_PREFIX: &str = "csc";

/// Which conflicts a [`solve_csc_scoped_traced`] call must resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveScope {
    /// Every conflict; structurally unresolvable pairs make the call fail
    /// fast with [`SynthesisError::NoSolution`]. Used by the direct method
    /// and the final residual pass.
    All,
    /// Only the structurally resolvable conflicts; the rest are deferred to
    /// other modules. Used for the modular state graphs.
    ResolvableOnly,
}

/// Options for one CSC-satisfaction solve.
///
/// No longer `Copy` since cancellation support: the [`CancelToken`] holds
/// an `Arc`. Call sites pass `&CscSolveOptions` or clone explicitly.
#[derive(Debug, Clone, PartialEq)]
pub struct CscSolveOptions {
    /// SAT solver configuration (heuristic, backtrack limit).
    pub solver: SolverOptions,
    /// Which SAT core decides the CSC formulas. Defaults to the
    /// `modsyn-cnc` CDCL core; [`Engine::Dpll`] restores the classic
    /// paper-faithful engine.
    pub engine: Engine,
    /// How many state signals beyond the lower bound to try before giving
    /// up with [`SynthesisError::NoSolution`].
    pub extra_signals: usize,
    /// Extract the assignment from a BDD of the constraint formula,
    /// minimising the number of excited states (the smallest expansion,
    /// hence the least area) — the BDD-based refinement the paper's
    /// conclusion points to. Falls back to the SAT path when the BDD
    /// exceeds its node budget.
    pub min_area: bool,
    /// Cooperative cancellation: checked between signal counts and polled
    /// inside the SAT search. Inert by default; compares by identity, so
    /// two default options values are still equal.
    pub cancel: CancelToken,
    /// Fault-injection handle threaded into the SAT engine (the `sat.*`
    /// sites). Inert by default; compares by identity, like `cancel`.
    pub faults: Faults,
    /// Optional synthesis-store session: the modular flow consults it
    /// before solving a module and records solutions (plus provenance)
    /// after. Inert by default; compares by identity, like `cancel`.
    /// Deliberately *excluded* from store key fingerprints — attaching a
    /// store must never change what is computed, only where it comes from.
    pub store: StoreLink,
}

impl Default for CscSolveOptions {
    fn default() -> Self {
        CscSolveOptions {
            solver: SolverOptions::default(),
            engine: Engine::default(),
            extra_signals: 6,
            min_area: false,
            cancel: CancelToken::never(),
            faults: Faults::none(),
            store: StoreLink::none(),
        }
    }
}

/// Tries to extract a minimum-excitation satisfying assignment via a BDD.
///
/// Returns `Ok(Some(model))` on success, `Ok(None)` when the formula is
/// unsatisfiable, and `Err(())` when the BDD blew its node budget (the
/// caller falls back to SAT).
fn bdd_min_area_model(
    encoding: &crate::encode::Encoding,
    tracer: &Tracer,
) -> Result<Option<modsyn_sat::Model>, ()> {
    let num_vars = encoding.formula.num_vars();
    let mut manager = modsyn_bdd::BddManager::with_budget(num_vars, 2_000_000);
    let bdd = match modsyn_bdd::build_from_cnf_traced(&mut manager, &encoding.formula, tracer) {
        Ok(b) => b,
        Err(_) => return Err(()),
    };
    // Cost 1 for every "excited" variable set to true; value bits and
    // auxiliaries are free.
    let mut costs = vec![(0.0f64, 0.0f64); num_vars];
    for s in 0..encoding.states {
        for k in 0..encoding.state_signals {
            costs[encoding.a(s, k).index()] = (0.0, 1.0);
        }
    }
    Ok(manager
        .min_cost_sat(bdd, &costs)
        .map(modsyn_sat::Model::from_values))
}

/// Greedy model improvement: flip "excited" variables back to stable while
/// the formula stays satisfied. Fewer excited states mean fewer splits in
/// the expansion, hence less area — a cheap approximation of the BDD
/// minimum-cost extraction that works at any formula size.
fn shrink_excitation(
    encoding: &crate::encode::Encoding,
    model: modsyn_sat::Model,
) -> modsyn_sat::Model {
    let mut values: Vec<bool> = model.as_slice().to_vec();
    for s in 0..encoding.states {
        for k in 0..encoding.state_signals {
            let a = encoding.a(s, k).index();
            if !values[a] {
                continue;
            }
            values[a] = false;
            if !encoding.formula.evaluate(&values) {
                values[a] = true;
            }
        }
    }
    modsyn_sat::Model::from_values(values)
}

/// Result of [`solve_csc_scoped_traced`]; the default is the empty
/// solution of a graph with nothing to resolve.
#[derive(Debug, Clone, Default)]
pub struct CscSolution {
    /// One assignment per inserted state signal (empty when the graph
    /// already satisfied CSC).
    pub assignments: Vec<StateSignalAssignment>,
    /// Per-attempt formula statistics.
    pub formulas: Vec<FormulaStat>,
    /// The conflict pairs the winning formula was asked to resolve (state
    /// indices of `graph`); empty when no solve was needed.
    pub resolved_pairs: Vec<(usize, usize)>,
    /// Clause-family breakdown of the winning formula.
    pub families: ClauseFamilies,
}

/// What every CSC resolver returns — modular, direct and Lavagno-style:
/// the conflict-free expanded graph plus its trace. The two undecomposed
/// resolvers leave `modules` and `provenance` empty.
#[derive(Debug, Clone)]
pub struct CscOutcome {
    /// The expanded, CSC-satisfying state graph.
    pub graph: StateGraph,
    /// Names of all inserted state signals.
    pub inserted: Vec<String>,
    /// Statistics of every SAT formula solved (in the modular flow, one
    /// small formula per module attempt — the paper's headline complexity
    /// win).
    pub formulas: Vec<FormulaStat>,
    /// Per-output module traces.
    pub modules: Vec<ModuleReport>,
    /// Why each inserted state signal exists: the module that forced it,
    /// the conflict pairs it resolves, the winning formula's shape.
    pub provenance: Vec<Provenance>,
}

impl CscOutcome {
    /// The outcome of one undecomposed solve on the whole graph: no
    /// modules, no provenance.
    pub(crate) fn undecomposed(
        graph: StateGraph,
        assignments: &[StateSignalAssignment],
        formulas: Vec<FormulaStat>,
    ) -> CscOutcome {
        CscOutcome {
            graph,
            inserted: assignments.iter().map(|a| a.name.clone()).collect(),
            formulas,
            modules: Vec::new(),
            provenance: Vec::new(),
        }
    }
}

/// Finds state-signal assignments satisfying the CSC constraints of
/// `graph` that `scope` selects, starting from the lower bound and adding
/// one signal per UNSAT round (paper Figure 4).
///
/// `name_offset` numbers the generated signals so that successive calls
/// produce globally unique names. With [`ResolveScope::ResolvableOnly`] the
/// returned assignment resolves the structurally resolvable conflicts and
/// leaves the rest in place; an empty assignment list means no conflict
/// was locally resolvable.
///
/// Each signal count `m` attempted becomes a `csc.attempt` span carrying
/// the formula size (`m`, `vars`, `clauses`), the nested `sat.solve` /
/// `bdd.build` span, and the outcome.
///
/// # Errors
///
/// * [`SynthesisError::BacktrackLimit`] if the SAT solver aborted,
/// * [`SynthesisError::Aborted`] when `options.cancel` fires,
/// * [`SynthesisError::NoSolution`] if every signal count up to
///   `lower_bound + extra_signals` is unsatisfiable.
pub fn solve_csc_scoped_traced(
    graph: &StateGraph,
    options: &CscSolveOptions,
    name_offset: usize,
    scope: ResolveScope,
    tracer: &Tracer,
) -> Result<CscSolution, SynthesisError> {
    let analysis = graph.csc_analysis();
    if analysis.satisfies_csc() {
        return Ok(CscSolution::default());
    }
    let unresolvable = graph.unresolvable_csc_pairs(&analysis);
    let resolve: Vec<(usize, usize)> = match scope {
        ResolveScope::All => {
            // Fast fail: a conflict whose states reach each other through
            // input edges alone is unsatisfiable for every m — skip the
            // exponential UNSAT proofs.
            if !unresolvable.is_empty() {
                return Err(SynthesisError::NoSolution {
                    max_signals: analysis.lower_bound.max(1) + options.extra_signals,
                });
            }
            analysis.csc_pairs.clone()
        }
        ResolveScope::ResolvableOnly => {
            let pairs: Vec<(usize, usize)> = analysis
                .csc_pairs
                .iter()
                .copied()
                .filter(|p| !unresolvable.contains(p))
                .collect();
            if pairs.is_empty() {
                return Ok(CscSolution::default());
            }
            pairs
        }
    };
    let start = Instant::now();
    let mut formulas = Vec::new();
    let lower_bound = match scope {
        ResolveScope::All => analysis.lower_bound,
        // The analysis bound covers all conflicts; a partial solve may need
        // fewer signals, so start from one.
        ResolveScope::ResolvableOnly => 1,
    };
    let mut m = lower_bound.max(1);
    let cap = m + options.extra_signals;

    while m <= cap {
        if options.cancel.is_cancelled() {
            return Err(SynthesisError::Aborted {
                elapsed: start.elapsed().as_secs_f64(),
            });
        }
        let encoding = encode_csc_partial(graph, &analysis, &resolve, m);
        let attempt = tracer.span("csc.attempt");
        tracer.gauge("m", m as f64);
        tracer.gauge("vars", encoding.formula.num_vars() as f64);
        tracer.gauge("clauses", encoding.formula.clause_count() as f64);
        let bdd = if options.min_area {
            bdd_min_area_model(&encoding, tracer)
        } else {
            Err(())
        };
        let model = match bdd {
            Ok(found) => {
                let outcome = if found.is_some() {
                    "sat (bdd)"
                } else {
                    "unsat (bdd)"
                };
                tracer.note("outcome", outcome);
                drop(attempt);
                formulas.push(encoding.stat(found.is_some(), SolverStats::default()));
                found
            }
            Err(()) => {
                if options.min_area {
                    // Node budget blown: fall through to the SAT path for
                    // this m.
                    tracer.note("bdd", "node budget exceeded; SAT fallback");
                }
                let (outcome, stats) = solve_with_engine_traced(
                    options.engine,
                    &encoding.formula,
                    options.solver,
                    &options.cancel,
                    &options.faults,
                    tracer,
                );
                formulas.push(encoding.stat(outcome.is_sat(), stats));
                drop(attempt);
                match outcome {
                    Outcome::Satisfiable(model) => Some(shrink_excitation(&encoding, model)),
                    Outcome::Unsatisfiable => None,
                    Outcome::BacktrackLimit => {
                        return Err(SynthesisError::BacktrackLimit {
                            state_signals: m,
                            elapsed: start.elapsed().as_secs_f64(),
                        });
                    }
                    Outcome::Aborted => {
                        return Err(SynthesisError::Aborted {
                            elapsed: start.elapsed().as_secs_f64(),
                        });
                    }
                }
            }
        };
        if let Some(model) = model {
            return Ok(CscSolution {
                assignments: encoding.decode(&model, NAME_PREFIX, name_offset),
                formulas,
                resolved_pairs: resolve,
                families: encoding.families,
            });
        }
        m += 1;
    }
    Err(SynthesisError::NoSolution { max_signals: cap })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, insert_state_signals, DeriveOptions};
    use modsyn_stg::benchmarks;

    #[test]
    fn vbe_ex1_needs_exactly_one_signal() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, &tracer).unwrap();
        assert_eq!(solution.assignments.len(), 1);
        assert!(solution.formulas.iter().all(|f| f.clauses > 0));
        let expanded = insert_state_signals(&sg, &solution.assignments).unwrap();
        assert!(expanded.csc_analysis().satisfies_csc());
    }

    #[test]
    fn clean_graph_returns_empty_solution() {
        let stg = modsyn_stg::parse_g(
            ".model hs\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
        )
        .unwrap();
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, &tracer).unwrap();
        assert!(solution.assignments.is_empty());
    }

    #[test]
    fn name_offset_numbers_signals_globally() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 3, ResolveScope::All, &tracer).unwrap();
        assert_eq!(solution.assignments[0].name, "csc3");
    }

    #[test]
    fn formula_stats_carry_solver_counters() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, &tracer).unwrap();
        let sat_attempt = solution.formulas.iter().find(|f| f.satisfiable).unwrap();
        assert!(sat_attempt.solver.propagations > 0);
        assert!(sat_attempt.solver.peak_clauses >= sat_attempt.clauses);
    }

    #[test]
    fn traced_solve_emits_one_attempt_span_per_m() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let tracer = Tracer::enabled();
        let solution = solve_csc_scoped_traced(
            &sg,
            &CscSolveOptions::default(),
            0,
            ResolveScope::All,
            &tracer,
        )
        .unwrap();
        let report = tracer.report();
        let attempts = report.spans_with_prefix("csc.attempt");
        assert_eq!(attempts.len(), solution.formulas.len());
        for span in &attempts {
            assert!(span.gauge("clauses").unwrap() > 0.0);
            // Each attempt nests exactly one solver span.
            assert_eq!(
                span.children
                    .iter()
                    .filter(|c| c.name == "sat.solve")
                    .count(),
                1
            );
        }
    }

    #[test]
    fn backtrack_limit_is_surfaced() {
        let sg = derive(&benchmarks::mmu0(), &DeriveOptions::default()).unwrap();
        let options = CscSolveOptions {
            solver: SolverOptions {
                max_backtracks: Some(1),
                ..Default::default()
            },
            ..Default::default()
        };
        match solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, &Tracer::disabled()) {
            Err(SynthesisError::BacktrackLimit { .. }) | Ok(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
