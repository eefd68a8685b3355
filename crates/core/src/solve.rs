//! The CSC satisfaction loop (paper Figure 4's `while` loop).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::{unwrap_or_resume, CancelToken, JobPanic};
use modsyn_sat::{
    solve_with_engine_traced, Cdcl, Engine, Lit, Model, Outcome, SolverOptions, SolverStats,
};
use modsyn_sg::{CscAnalysis, StateGraph, StateSignalAssignment};
use modsyn_store::{ClauseFamilies, FormulaStat, Provenance, StoreLink};

use crate::encode::{encode_csc_partial, encode_signal_families, Encoding};
use crate::modular::ModuleReport;
use crate::SynthesisError;

/// Prefix of the state signals the CSC solves insert (`csc0`, `csc1`, …).
pub(crate) const NAME_PREFIX: &str = "csc";

/// The fewest clauses a solve's first formula has for the solve, once
/// that formula is unsatisfiable, to try its later signal counts several
/// at a time. Decided on the formula, not on the clock, so one problem
/// takes one path on every host. On the Table-1 rows and their `.g`
/// edits (cdcl, 300 k) and corpus seeds 0-63 (both engines), solves past
/// this floor spent 0.5 ms or more beyond their first count, 99 % of all
/// such time; the 104 below it spent a median 0.27 ms, less than the
/// thread starts and the cancelled encodings speculation would add.
const SPECULATE_FROM_CLAUSES: usize = 400;

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
    /// CDCL core ([`modsyn_sat::Cdcl`]); [`Engine::Dpll`] restores the classic
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
fn bdd_min_area_model(encoding: &Encoding, tracer: &Tracer) -> Result<Option<Model>, ()> {
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
    Ok(manager.min_cost_sat(bdd, &costs).map(Model::from_values))
}

/// Greedy model improvement: flip "excited" variables back to stable while
/// the formula stays satisfied. Fewer excited states mean fewer splits in
/// the expansion, hence less area — a cheap approximation of the BDD
/// minimum-cost extraction that works at any formula size.
fn shrink_excitation(encoding: &Encoding, model: Model) -> Model {
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
    Model::from_values(values)
}

/// What the one-signal separability proof found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Separability {
    /// No pair was refuted: each has a one-signal separation, or the
    /// budget ran out first.
    Open,
    /// Some pair has no one-signal separation (the span's note names it).
    Inseparable,
    /// The cancel token fired.
    Aborted,
}

/// Whether one state signal can separate each pair of `resolve`: hold both
/// states stable (`a = 0`) with opposite values (`b_i ≠ b_j`) while
/// satisfying clause families 1 and 1.5.
///
/// A pair no single signal separates is unresolvable at every signal
/// count. Families 1 and 1.5 are emitted per signal with the same shape,
/// family 2 needs for each pair one signal that is stable and opposite on
/// both states, and family 3 only adds constraints. So any m-signal model,
/// restricted to the signal that separates the pair, satisfies the
/// one-signal formula under that pair's assumptions.
///
/// The CDCL core decides the pairs in order on one one-signal formula
/// under assumptions, in both orientations, within `budget` conflicts in
/// all; a model found for one pair settles every later pair it also
/// separates. These solves are not CSC attempts: they add no
/// [`FormulaStat`] and no `sat.solve` span, only a `csc.separability`
/// span with a `pairs` gauge, and an `inseparable` note on failure.
fn separability(
    graph: &StateGraph,
    resolve: &[(usize, usize)],
    budget: Option<u64>,
    cancel: &CancelToken,
    tracer: &Tracer,
) -> Separability {
    let _span = tracer.span("csc.separability");
    tracer.gauge("pairs", resolve.len() as f64);
    let encoding = encode_signal_families(graph, 1);
    let (a, b) = (|s| encoding.a(s, 0), |s| encoding.b(s, 0));
    let mut solver = Cdcl::new(&encoding.formula, budget).with_cancel(cancel.clone());
    let mut separated = vec![false; resolve.len()];
    for (at, &(i, j)) in resolve.iter().enumerate() {
        if separated[at] {
            continue;
        }
        let mut verdict = Outcome::Unsatisfiable;
        for (low, high) in [(i, j), (j, i)] {
            verdict = solver.solve_with_assumptions(&[
                Lit::negative(a(i)),
                Lit::negative(a(j)),
                Lit::negative(b(low)),
                Lit::positive(b(high)),
            ]);
            if verdict != Outcome::Unsatisfiable {
                break;
            }
        }
        match verdict {
            Outcome::Satisfiable(model) => {
                let value = |v| model.value(v);
                for (k, &(p, q)) in resolve.iter().enumerate().skip(at) {
                    separated[k] |= !value(a(p)) && !value(a(q)) && value(b(p)) != value(b(q));
                }
            }
            Outcome::Unsatisfiable => {
                tracer.note("inseparable", &format!("({i}, {j})"));
                return Separability::Inseparable;
            }
            Outcome::BacktrackLimit => {
                tracer.note("budget", "exhausted");
                return Separability::Open;
            }
            Outcome::Aborted => return Separability::Aborted,
        }
    }
    Separability::Open
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

/// What one signal count's attempt found.
enum Verdict {
    /// Satisfiable: the formula's encoding and the model to decode.
    Sat(Encoding, Model),
    /// Unsatisfiable; the encoding is already dropped.
    Unsat,
    /// The SAT solver hit its backtrack limit.
    BacktrackLimit,
    /// The cancel token fired.
    Aborted,
}

/// One call's signal-count search: what every attempt reads.
struct Search<'a> {
    graph: &'a StateGraph,
    analysis: &'a CscAnalysis,
    resolve: &'a [(usize, usize)],
    options: &'a CscSolveOptions,
    name_offset: usize,
    cap: usize,
    start: Instant,
}

impl Search<'_> {
    /// Encodes and decides `m` signals under `cancel`: one `csc.attempt`
    /// span and, unless `cancel` fired before the formula was built, the
    /// attempt's statistics record.
    fn attempt(
        &self,
        m: usize,
        cancel: &CancelToken,
        tracer: &Tracer,
    ) -> (Option<FormulaStat>, Verdict) {
        if cancel.is_cancelled() {
            return (None, Verdict::Aborted);
        }
        let options = self.options;
        let encoding = encode_csc_partial(self.graph, self.analysis, self.resolve, m);
        let attempt = tracer.span("csc.attempt");
        tracer.gauge("m", m as f64);
        tracer.gauge("vars", encoding.formula.num_vars() as f64);
        tracer.gauge("clauses", encoding.formula.clause_count() as f64);
        let bdd = if options.min_area {
            bdd_min_area_model(&encoding, tracer)
        } else {
            Err(())
        };
        if let Ok(found) = bdd {
            let outcome = if found.is_some() {
                "sat (bdd)"
            } else {
                "unsat (bdd)"
            };
            tracer.note("outcome", outcome);
            drop(attempt);
            let stat = encoding.stat(found.is_some(), SolverStats::default());
            return match found {
                Some(model) => (Some(stat), Verdict::Sat(encoding, model)),
                None => (Some(stat), Verdict::Unsat),
            };
        }
        if options.min_area {
            // Node budget blown: fall through to the SAT path for this m.
            tracer.note("bdd", "node budget exceeded; SAT fallback");
        }
        let (outcome, stats) = solve_with_engine_traced(
            options.engine,
            &encoding.formula,
            options.solver,
            cancel,
            &options.faults,
            tracer,
        );
        let stat = encoding.stat(outcome.is_sat(), stats);
        drop(attempt);
        let verdict = match outcome {
            Outcome::Satisfiable(model) => {
                let model = shrink_excitation(&encoding, model);
                Verdict::Sat(encoding, model)
            }
            Outcome::Unsatisfiable => Verdict::Unsat,
            Outcome::BacktrackLimit => Verdict::BacktrackLimit,
            Outcome::Aborted => Verdict::Aborted,
        };
        (Some(stat), verdict)
    }

    /// What the call returns once `m` signals gave `verdict`, with
    /// `formulas` the statistics of every attempt up to `m`; `None` after
    /// an unsatisfiable count, when the search goes on.
    fn conclude(
        &self,
        m: usize,
        verdict: Verdict,
        formulas: &mut Vec<FormulaStat>,
    ) -> Option<Result<CscSolution, SynthesisError>> {
        match verdict {
            Verdict::Unsat => None,
            Verdict::Sat(encoding, model) => {
                #[cfg(test)]
                tests::record_solved(self.graph, self.resolve);
                Some(Ok(CscSolution {
                    assignments: encoding.decode(&model, NAME_PREFIX, self.name_offset),
                    formulas: std::mem::take(formulas),
                    resolved_pairs: self.resolve.to_vec(),
                    families: encoding.families,
                }))
            }
            Verdict::BacktrackLimit => Some(Err(SynthesisError::BacktrackLimit {
                state_signals: m,
                elapsed: self.start.elapsed().as_secs_f64(),
            })),
            Verdict::Aborted => Some(Err(self.aborted())),
        }
    }

    /// The error of a call whose cancel token fired.
    fn aborted(&self) -> SynthesisError {
        SynthesisError::Aborted {
            elapsed: self.start.elapsed().as_secs_f64(),
        }
    }

    /// The separability proof after the first count was unsatisfiable:
    /// `Some` error when it ends the call.
    fn separable(&self, tracer: &Tracer) -> Option<SynthesisError> {
        let budget = self.options.solver.max_backtracks;
        let cancel = &self.options.cancel;
        match separability(self.graph, self.resolve, budget, cancel, tracer) {
            Separability::Open => None,
            Separability::Inseparable => Some(SynthesisError::NoSolution {
                max_signals: self.cap,
            }),
            Separability::Aborted => Some(self.aborted()),
        }
    }

    /// Decides counts `first + 1..=cap` after `first` was unsatisfiable,
    /// on scoped threads, and returns exactly what the sequential loop
    /// returns (DESIGN.md §8).
    ///
    /// The separability proof runs on this thread beside `jobs - 1`
    /// counts; after it, up to `jobs` counts run, none `jobs` or more
    /// above the lowest undecided one. Verdicts are taken in count order,
    /// so the first count that is not unsatisfiable decides the call,
    /// whatever finished first; the counts above it are cancelled through
    /// a child of the caller's token. Each count traces into a detached
    /// sink, adopted here in count order only once the count is needed,
    /// so the trace is the sequential loop's too.
    fn speculate(
        &self,
        first: usize,
        jobs: usize,
        formulas: &mut Vec<FormulaStat>,
        tracer: &Tracer,
    ) -> Result<CscSolution, SynthesisError> {
        let cancel = self.options.cancel.child();
        let (done_tx, done) = mpsc::channel();
        thread::scope(|scope| {
            // Every exit, a resumed panic included, stops the counts still
            // running before the scope joins them.
            let _stop = CancelOnDrop(&cancel);
            let spawn = |m: usize| {
                let (done_tx, cancel, trace) = (done_tx.clone(), &cancel, tracer.detached());
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| self.attempt(m, cancel, &trace)));
                    // The receiver outlives every count: the scope joins
                    // them before `done` drops.
                    let _ = done_tx.send((m, result.map_err(JobPanic::from_payload), trace));
                });
            };
            let mut next = first + 1;
            while next <= self.cap && next - first < jobs {
                spawn(next);
                next += 1;
            }
            if let Some(error) = self.separable(tracer) {
                return Err(error);
            }
            let mut finished = BTreeMap::new();
            let mut lowest = first + 1;
            loop {
                while next <= self.cap && next < lowest + jobs {
                    spawn(next);
                    next += 1;
                }
                let (m, result, trace) = done.recv().expect("the lowest undecided count runs");
                finished.insert(m, (result, trace));
                while let Some((result, trace)) = finished.remove(&lowest) {
                    let (stat, verdict) = unwrap_or_resume(result);
                    tracer.adopt(&trace);
                    formulas.extend(stat);
                    if let Some(result) = self.conclude(lowest, verdict, formulas) {
                        return result;
                    }
                    lowest += 1;
                    if lowest > self.cap {
                        return Err(SynthesisError::NoSolution {
                            max_signals: self.cap,
                        });
                    }
                }
            }
        })
    }
}

/// Cancels its token when dropped.
struct CancelOnDrop<'a>(&'a CancelToken);

impl Drop for CancelOnDrop<'_> {
    fn drop(&mut self) {
        self.0.cancel();
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
/// When the first attempt is unsatisfiable, a one-signal separability
/// proof runs before any larger `m` is tried (DESIGN.md §2.2): a pair no
/// single signal can separate fails the call at once with the error the
/// last signal count would give.
///
/// With `jobs > 1`, no armed fault plan and the SAT path (not
/// `min_area`), the counts after an unsatisfiable first formula of 400
/// clauses or more are tried several at a time on up to `jobs` threads.
/// The result, the formula statistics, the spans, the histograms and the
/// flight events are the same as with `jobs = 1`; only the spans' times
/// overlap.
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
    jobs: usize,
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
    let lower_bound = match scope {
        ResolveScope::All => analysis.lower_bound,
        // The analysis bound covers all conflicts; a partial solve may need
        // fewer signals, so start from one.
        ResolveScope::ResolvableOnly => 1,
    };
    let first = lower_bound.max(1);
    let search = Search {
        graph,
        analysis: &analysis,
        resolve: &resolve,
        options,
        name_offset,
        cap: first + options.extra_signals,
        start: Instant::now(),
    };
    let speculate = jobs > 1 && !options.faults.is_armed() && !options.min_area;
    let mut formulas = Vec::new();
    for m in first..=search.cap {
        let (stat, verdict) = search.attempt(m, &options.cancel, tracer);
        formulas.extend(stat);
        if let Some(result) = search.conclude(m, verdict, &mut formulas) {
            return result;
        }
        // Only the first attempt can be the first UNSAT one; at the cap the
        // loop ends with the same error anyway.
        if m == first && m < search.cap {
            if speculate && formulas[0].clauses >= SPECULATE_FROM_CLAUSES {
                #[cfg(test)]
                tests::SPECULATED.with(|n| n.set(n.get() + 1));
                return search.speculate(first, jobs, &mut formulas, tracer);
            }
            if let Some(error) = search.separable(tracer) {
                return Err(error);
            }
        }
    }
    Err(SynthesisError::NoSolution {
        max_signals: search.cap,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, insert_state_signals, DeriveOptions};
    use modsyn_stg::benchmarks;
    use std::cell::{Cell, RefCell};

    /// A CSC problem: the graph and the pairs its solve had to resolve.
    type Problem = (StateGraph, Vec<(usize, usize)>);

    thread_local! {
        /// The problems solved on this thread while [`solved_by`] records.
        static SOLVED: RefCell<Option<Vec<Problem>>> = const { RefCell::new(None) };
        /// Solves on this thread that went on to speculate.
        pub(super) static SPECULATED: Cell<usize> = const { Cell::new(0) };
    }

    /// Called by every successful solve in test builds.
    pub(super) fn record_solved(graph: &StateGraph, resolve: &[(usize, usize)]) {
        SOLVED.with(|solved| {
            if let Some(list) = solved.borrow_mut().as_mut() {
                list.push((graph.clone(), resolve.to_vec()));
            }
        });
    }

    /// The CSC problems `run` solves on this thread.
    fn solved_by(run: impl FnOnce()) -> Vec<Problem> {
        SOLVED.with(|solved| *solved.borrow_mut() = Some(Vec::new()));
        run();
        SOLVED.with(|solved| solved.borrow_mut().take().expect("recording"))
    }

    #[test]
    fn the_separability_proof_accepts_every_solved_problem() {
        // The 19 small Table-1 rows, modular and direct under both
        // engines, and corpus seeds 0-63 under the corpus contract
        // (modular, dpll, 40 k backtracks).
        const SMALL_ROWS: [&str; 19] = [
            "sbuf-ram-write",
            "vbe4a",
            "nak-pa",
            "pe-rcv-ifc-fc",
            "ram-read-sbuf",
            "alex-nonfc",
            "sbuf-send-pkt2",
            "sbuf-send-ctl",
            "atod",
            "pa",
            "alloc-outbound",
            "wrdata",
            "fifo",
            "sbuf-read-ctl",
            "nouse",
            "vbe-ex2",
            "nousc-ser",
            "sendr-done",
            "vbe-ex1",
        ];
        let tracer = Tracer::disabled();
        let problems = solved_by(|| {
            for name in SMALL_ROWS {
                let stg = benchmarks::by_name(name).expect("known benchmark");
                let sg = derive(&stg, &DeriveOptions::default()).unwrap();
                for engine in [Engine::Cdcl, Engine::Dpll] {
                    let options = CscSolveOptions {
                        engine,
                        ..Default::default()
                    };
                    let _ = crate::modular_resolve(&sg, &options);
                    let _ = crate::direct_resolve_traced(&sg, &options, &tracer);
                }
            }
            let corpus = CscSolveOptions {
                engine: Engine::Dpll,
                solver: SolverOptions {
                    max_backtracks: Some(40_000),
                    ..Default::default()
                },
                ..Default::default()
            };
            for seed in 0..64 {
                let stg = modsyn_corpus::corpus_case(seed).0;
                if let Ok(sg) = derive(&stg, &DeriveOptions::default()) {
                    let _ = crate::modular_resolve(&sg, &corpus);
                }
            }
        });
        assert!(problems.len() > 200, "only {} problems", problems.len());
        for (graph, pairs) in &problems {
            let verdict = separability(graph, pairs, None, &CancelToken::never(), &tracer);
            assert_eq!(verdict, Separability::Open, "pairs {pairs:?}");
        }
    }

    #[test]
    fn a_cancelled_separability_proof_is_aborted() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let pairs = sg.csc_analysis().csc_pairs;
        let token = CancelToken::new();
        token.cancel();
        let verdict = separability(&sg, &pairs, None, &token, &Tracer::disabled());
        assert_eq!(verdict, Separability::Aborted);
    }

    #[test]
    fn vbe_ex1_needs_exactly_one_signal() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, 1, &tracer).unwrap();
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
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, 1, &tracer).unwrap();
        assert!(solution.assignments.is_empty());
    }

    #[test]
    fn name_offset_numbers_signals_globally() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 3, ResolveScope::All, 1, &tracer).unwrap();
        assert_eq!(solution.assignments[0].name, "csc3");
    }

    #[test]
    fn formula_stats_carry_solver_counters() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
        let solution =
            solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, 1, &tracer).unwrap();
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
            1,
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
    fn only_a_first_formula_past_the_clause_floor_speculates() {
        // Both complete graphs need a second count after an unsatisfiable
        // first one. fifo's first formula has 279 clauses, corpus seed 1's
        // more than 400; only the latter fans out, and both return what
        // `jobs = 1` returns.
        let corpus = modsyn_corpus::corpus_case(1).0;
        for (stg, speculates) in [(benchmarks::fifo(), false), (corpus, true)] {
            let sg = derive(&stg, &DeriveOptions::default()).unwrap();
            let solve = |jobs| {
                let before = SPECULATED.with(Cell::get);
                let solution = solve_csc_scoped_traced(
                    &sg,
                    &CscSolveOptions::default(),
                    0,
                    ResolveScope::All,
                    jobs,
                    &Tracer::disabled(),
                )
                .unwrap();
                (solution, SPECULATED.with(Cell::get) > before)
            };
            let (sequential, fanned) = solve(1);
            assert!(!fanned);
            assert!(sequential.formulas.len() > 1);
            assert_eq!(
                sequential.formulas[0].clauses >= SPECULATE_FROM_CLAUSES,
                speculates
            );
            let (parallel, fanned) = solve(2);
            assert_eq!(fanned, speculates);
            assert_eq!(parallel.formulas, sequential.formulas);
            assert_eq!(parallel.assignments, sequential.assignments);
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
        match solve_csc_scoped_traced(&sg, &options, 0, ResolveScope::All, 1, &Tracer::disabled()) {
            Err(SynthesisError::BacktrackLimit { .. }) | Ok(_) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
