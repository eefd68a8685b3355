//! The modular partitioning flow (paper Section 3, Figures 4–6).

use std::time::{Duration, Instant};

use modsyn_obs::Tracer;
use modsyn_par::{par_map, unwrap_or_resume};
use modsyn_sg::{insert_state_signals, Quat, StateGraph, StateSignalAssignment};
use modsyn_store::{module_key, FormulaStat, ModuleEntry, Provenance};

use crate::input_set::{determine_input_set_traced, InputSet};
use crate::solve::{
    solve_csc_scoped_traced, CscOutcome, CscSolution, CscSolveOptions, ResolveScope, NAME_PREFIX,
};
use crate::SynthesisError;

/// Per-output trace of the modular flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleReport {
    /// The output signal this module was built for.
    pub output: String,
    /// Number of signals kept in the input set.
    pub kept_signals: usize,
    /// States of the modular (quotient) state graph.
    pub module_states: usize,
    /// CSC conflicts inside the module before solving.
    pub module_conflicts: usize,
    /// State signals inserted by this module.
    pub inserted: usize,
}

/// How long a synthesis runs on its calling thread alone before a
/// `select` or logic stage fans out over its `jobs`. Starting and joining
/// a thread costs about 50 µs, which a shorter synthesis cannot repay: at
/// two jobs, with every stage fanning out from the start, the Table-1
/// rows and corpus seeds 0-29 that take under 2 ms ran a median 1.6×
/// slower. Module solves decide on their first formula instead
/// ([`solve_csc_scoped_traced`]).
const FAN_OUT_AFTER: Duration = Duration::from_millis(2);

/// The threads a `select` or logic stage of a synthesis that started at
/// `started` may use: one until the synthesis has run for
/// [`FAN_OUT_AFTER`], `jobs` after.
pub(crate) fn stage_jobs(jobs: usize, started: Instant) -> usize {
    if started.elapsed() < FAN_OUT_AFTER {
        1
    } else {
        jobs
    }
}

/// [`modular_resolve_jobs_traced`] inline (`jobs` = 1) and untraced.
///
/// # Errors
///
/// As [`modular_resolve_jobs_traced`].
pub fn modular_resolve(
    initial: &StateGraph,
    options: &CscSolveOptions,
) -> Result<CscOutcome, SynthesisError> {
    modular_resolve_jobs_traced(initial, options, 1, &Tracer::disabled())
}

/// Provenance of every signal a fresh solve inserted: which of the
/// targeted conflict pairs each one actually resolves (stable with
/// opposite values on both states), plus the winning formula's shape.
fn provenance_of(solution: &CscSolution, module_output: &str, key: u64) -> Vec<Provenance> {
    let Some(winning) = solution.formulas.last() else {
        return Vec::new();
    };
    solution
        .assignments
        .iter()
        .map(|a| Provenance {
            signal: a.name.clone(),
            module_output: module_output.to_string(),
            module_key: key,
            resolved_pairs: solution
                .resolved_pairs
                .iter()
                .copied()
                .filter(|&(i, j)| {
                    matches!(
                        (a.values[i], a.values[j]),
                        (Quat::Zero, Quat::One) | (Quat::One, Quat::Zero)
                    )
                })
                .collect(),
            state_signals: winning.state_signals,
            variables: winning.variables,
            clauses: winning.clauses,
            families: solution.families,
        })
        .collect()
}

/// Consults `options.store` before running the SAT layer on `graph`.
///
/// The content key covers the **exact** graph rendering plus every
/// solver-relevant parameter (scope, name offset, solver options), so a hit
/// replays assignments the solver would have reproduced bit-for-bit — the
/// store can only change *where* the answer comes from, never what it is.
/// Misses solve for real, derive provenance, and record the entry. The
/// session counts hits and misses.
fn solve_module_via_store(
    graph: &StateGraph,
    options: &CscSolveOptions,
    name_offset: usize,
    scope: ResolveScope,
    module_output: &str,
    jobs: usize,
    tracer: &Tracer,
) -> Result<ModuleEntry, SynthesisError> {
    let session = options.store.session();
    let key = session.map(|_| {
        let scope_tag = match scope {
            ResolveScope::All => "all",
            ResolveScope::ResolvableOnly => "resolvable",
        };
        // `cancel` and `faults` are deliberately absent: they alter solver
        // *liveness*, not the solution a completed solve produces.
        module_key(
            graph,
            &format!(
                "scope={scope_tag} offset={name_offset} solver={:?} engine={} extra={} \
                 prefix={NAME_PREFIX} min_area={}",
                options.solver, options.engine, options.extra_signals, options.min_area
            ),
        )
    });
    if let (Some(session), Some(key)) = (session, key) {
        if let Some(entry) = session.get_module(key) {
            tracer.note("store", "hit");
            return Ok(ModuleEntry::clone(&entry));
        }
        tracer.note("store", "miss");
    }
    let solution = solve_csc_scoped_traced(graph, options, name_offset, scope, jobs, tracer)?;
    let provenance = provenance_of(&solution, module_output, key.unwrap_or(0));
    let entry = ModuleEntry {
        assignments: solution.assignments,
        formulas: solution.formulas,
        provenance,
    };
    if let (Some(session), Some(key)) = (session, key) {
        session.put_module(key, entry.clone());
    }
    Ok(entry)
}

/// Runs the paper's `modular_synthesis` loop over every output signal:
/// derive the input set (Figure 2), build and solve the modular state graph
/// (Figure 4), propagate the assignment back to the complete graph
/// (Figure 5) and expand it. Any conflicts left after all outputs are
/// processed (covers of both conflict states can coincide in every module)
/// are cleaned up by one final solve on the complete graph.
///
/// Each iteration derives the per-output candidate modules on up to `jobs`
/// worker threads. The input-set searches are independent per output, so
/// they run as an ordered [`par_map`]; the ranking, the chosen module's
/// quotient and the propagation stay sequential. Each module solve gets
/// the same `jobs` for its signal counts ([`solve_csc_scoped_traced`]).
/// The outcome is therefore **byte-for-byte the same** for every `jobs`
/// value — parallelism changes wall-clock only. `jobs <= 1` runs inline,
/// and so does every `select` fan-out that starts in the call's first
/// 2 ms, where threads cost more than they save.
///
/// The whole flow runs under a `modular` span; every iteration gets a
/// `select` span (module derivation and ranking), every solved module a
/// `module:<output>` span carrying the paper's headline metrics (kept
/// signals, module states, conflicts, peak formula vars/clauses, inserted
/// signals), and the final cleanup a `residual` span. With `jobs > 1` the
/// per-output derivations the calling thread runs nest under `select`,
/// and those a scoped thread runs root on that thread.
///
/// # Errors
///
/// * [`SynthesisError::BacktrackLimit`] / [`SynthesisError::NoSolution`]
///   from the SAT layer,
/// * [`SynthesisError::Aborted`] when `options.cancel` fires between
///   iterations or inside a solve,
/// * [`SynthesisError::Sg`] from quotient construction or expansion.
pub fn modular_resolve_jobs_traced(
    initial: &StateGraph,
    options: &CscSolveOptions,
    jobs: usize,
    tracer: &Tracer,
) -> Result<CscOutcome, SynthesisError> {
    let _span = tracer.span("modular");
    let start = Instant::now();
    let mut graph = initial.clone();
    let mut inserted: Vec<String> = Vec::new();
    let mut formulas = Vec::new();
    let mut modules = Vec::new();
    let mut provenance = Vec::new();

    // The paper iterates over the output signals of the original STG;
    // state signals inserted along the way join later modules as ordinary
    // internal signals.
    let outputs: Vec<usize> = (0..initial.signals().len())
        .filter(|&s| initial.signals()[s].kind.is_non_input())
        .collect();

    // Each iteration derives every output's module and solves the one with
    // the fewest conflicts first: cheap modules' state signals usually
    // resolve the harder modules' conflicts as a side effect, so the
    // near-complete-graph modules (outputs triggered by everything, where
    // nothing can be hidden) are rarely solved at full size.
    for _iteration in 0..4 * outputs.len().max(1) {
        if options.cancel.is_cancelled() {
            return Err(SynthesisError::Aborted {
                elapsed: start.elapsed().as_secs_f64(),
            });
        }
        if graph.csc_analysis().satisfies_csc() {
            break;
        }
        // Pick the unsolved module with the fewest locally-resolvable
        // conflicts; a module with none need not be solved. The per-output
        // input-set searches are independent, so they fan out over `jobs`
        // threads; the ordered reduction below makes the chosen module
        // identical for every `jobs` value.
        let select = tracer.span("select");
        let graph_ref = &graph;
        let derived = par_map(stage_jobs(jobs, start), &outputs, |_, &output| {
            determine_input_set_traced(graph_ref, output, tracer)
        });
        let mut best: Option<(usize, InputSet)> = None;
        let mut candidates = 0u64;
        for (&output, result) in outputs.iter().zip(derived) {
            let set = unwrap_or_resume(result);
            if set.conflicts == 0 {
                continue;
            }
            candidates += 1;
            if best
                .as_ref()
                .is_none_or(|(_, b)| set.conflicts < b.conflicts)
            {
                best = Some((output, set));
            }
        }
        tracer.counter("candidates", candidates);
        let Some((output, set)) = best else {
            break; // residual conflicts are invisible to every module
        };
        // Only the chosen module's quotient is built.
        let quotient = graph.hide_signals(&set.hidden)?;
        drop(select);

        let output_name = graph.signals()[output].name.clone();
        let module_span = tracer.span(&format!("module:{output_name}"));
        tracer.note("output", &output_name);
        tracer.gauge("kept_signals", set.kept.len() as f64);
        tracer.gauge("module_states", quotient.graph.state_count() as f64);
        tracer.gauge("conflicts", set.conflicts as f64);
        let solution = solve_module_via_store(
            &quotient.graph,
            options,
            inserted.len(),
            ResolveScope::ResolvableOnly,
            &output_name,
            jobs,
            tracer,
        )?;
        let peak = |size: fn(&FormulaStat) -> usize| {
            solution.formulas.iter().map(size).max().unwrap_or(0) as f64
        };
        tracer.gauge("vars", peak(|f| f.variables));
        tracer.gauge("clauses", peak(|f| f.clauses));
        tracer.counter("inserted", solution.assignments.len() as u64);
        drop(module_span);
        provenance.extend(solution.provenance);
        formulas.extend(solution.formulas);
        modules.push(ModuleReport {
            output: output_name,
            kept_signals: set.kept.len(),
            module_states: quotient.graph.state_count(),
            module_conflicts: set.conflicts,
            inserted: solution.assignments.len(),
        });
        if solution.assignments.is_empty() {
            break; // cannot progress; leave the rest to the residual solve
        }

        // Figure 5: every complete-graph state inherits the assignment of
        // the modular state that covers it.
        let propagated: Vec<StateSignalAssignment> = solution
            .assignments
            .iter()
            .map(|a| StateSignalAssignment {
                name: a.name.clone(),
                values: (0..graph.state_count())
                    .map(|s| a.values[quotient.state_map[s]])
                    .collect(),
            })
            .collect();
        inserted.extend(propagated.iter().map(|a| a.name.clone()));
        graph = insert_state_signals(&graph, &propagated)?;
    }

    // Residual cleanup: conflicts whose states were covered by the same
    // modular state in every module survive the loop; one final (small)
    // solve on the complete graph removes them.
    if !graph.csc_analysis().satisfies_csc() {
        let residual = tracer.span("residual");
        let solution = solve_module_via_store(
            &graph,
            options,
            inserted.len(),
            ResolveScope::All,
            "<residual>",
            jobs,
            tracer,
        )?;
        tracer.counter("inserted", solution.assignments.len() as u64);
        drop(residual);
        provenance.extend(solution.provenance);
        formulas.extend(solution.formulas);
        inserted.extend(solution.assignments.iter().map(|a| a.name.clone()));
        graph = insert_state_signals(&graph, &solution.assignments)?;
    }

    debug_assert!(graph.csc_analysis().satisfies_csc());
    Ok(CscOutcome {
        graph,
        inserted,
        formulas,
        modules,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_sg::{derive, DeriveOptions};
    use modsyn_stg::benchmarks;

    fn resolve(name: &str) -> CscOutcome {
        let stg = benchmarks::by_name(name).expect("known benchmark");
        let sg = derive(&stg, &DeriveOptions::default()).unwrap();
        modular_resolve(&sg, &CscSolveOptions::default()).unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn vbe_ex1_resolves_with_one_signal() {
        let out = resolve("vbe-ex1");
        assert_eq!(out.inserted.len(), 1);
        assert!(out.graph.csc_analysis().satisfies_csc());
    }

    #[test]
    fn vbe_ex2_needs_two_signals() {
        let out = resolve("vbe-ex2");
        assert!(out.graph.csc_analysis().satisfies_csc());
        assert_eq!(out.inserted.len(), 2);
    }

    #[test]
    fn module_formulas_are_small() {
        // The headline claim: modular formulas are tiny compared to the
        // state space.
        let out = resolve("mmu1");
        assert!(out.graph.csc_analysis().satisfies_csc());
        assert!(!out.formulas.is_empty());
        for f in &out.formulas {
            assert!(
                f.variables <= 2 * 80 * f.state_signals + 200,
                "module formula unexpectedly large: {f:?}"
            );
        }
    }

    #[test]
    fn final_graph_is_consistent() {
        let out = resolve("nouse");
        for e in out.graph.edges() {
            let modsyn_sg::EdgeLabel::Signal { signal, polarity } = e.label else {
                panic!("unexpected epsilon edge");
            };
            assert_eq!(out.graph.value(e.from, signal), polarity.value_before());
            assert_eq!(out.graph.value(e.to, signal), polarity.value_after());
        }
    }

    #[test]
    fn parallel_driver_matches_sequential_exactly() {
        for name in ["vbe-ex2", "nouse", "sbuf-read-ctl"] {
            let stg = benchmarks::by_name(name).expect("known benchmark");
            let sg = derive(&stg, &DeriveOptions::default()).unwrap();
            let (options, tracer) = (CscSolveOptions::default(), Tracer::disabled());
            let seq = modular_resolve_jobs_traced(&sg, &options, 1, &tracer).unwrap();
            let par = modular_resolve_jobs_traced(&sg, &options, 4, &tracer).unwrap();
            assert_eq!(seq.inserted, par.inserted, "{name}: inserted diverged");
            assert_eq!(seq.modules, par.modules, "{name}: module reports diverged");
            assert_eq!(seq.formulas, par.formulas, "{name}: formula stats diverged");
            assert_eq!(seq.graph.state_count(), par.graph.state_count());
        }
    }

    /// The keys of the module solves `store` holds, in ascending order.
    fn module_keys(store: &modsyn_store::SynthStore) -> Vec<u64> {
        let mut keys: Vec<u64> = store
            .entries()
            .into_iter()
            .filter_map(|e| match e {
                modsyn_store::StoreMutation::Module { key, .. } => Some(key),
                modsyn_store::StoreMutation::Record { .. } => None,
            })
            .collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn store_replays_modules_byte_identically() {
        use modsyn_sat::{Engine, Heuristic, SolverOptions};
        use modsyn_store::{StoreLink, StoreSession, SynthStore};
        use std::sync::Arc;

        let sg = derive(&benchmarks::vbe_ex2(), &DeriveOptions::default()).unwrap();
        let plain = modular_resolve(&sg, &CscSolveOptions::default()).unwrap();

        let store = Arc::new(SynthStore::new());
        let cold_session = StoreSession::new(store.clone());
        let cold = modular_resolve(
            &sg,
            &CscSolveOptions {
                store: StoreLink::to(cold_session.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(cold_session.hits(), 0, "first run must miss everywhere");
        assert!(cold_session.misses() > 0);
        assert!(!cold.provenance.is_empty());
        for p in &cold.provenance {
            assert_ne!(p.module_key, 0);
            assert!(p.clauses > 0);
            assert_eq!(p.families.total(), p.clauses);
        }
        // A module key hashes the graph and the `Debug` text of the solver
        // options, so renaming an option field or variant would move every
        // key, and every module a durable store journalled would miss.
        assert_eq!(
            module_keys(&store),
            [0x270e_393f_9608_e705],
            "module keys moved"
        );
        for (solver, keys) in [
            (
                SolverOptions {
                    heuristic: Heuristic::Moms,
                    max_backtracks: Some(40_000),
                    learning: false,
                },
                [0x4c6e_a391_f127_8885],
            ),
            (
                SolverOptions {
                    heuristic: Heuristic::FirstUnassigned,
                    max_backtracks: None,
                    learning: true,
                },
                [0x4bf4_acbe_6be0_0988],
            ),
        ] {
            let classic = Arc::new(SynthStore::new());
            modular_resolve(
                &sg,
                &CscSolveOptions {
                    solver,
                    engine: Engine::Dpll,
                    store: StoreLink::to(StoreSession::new(classic.clone())),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(module_keys(&classic), keys, "{solver:?}: module keys moved");
        }

        let warm_session = StoreSession::new(store);
        let warm = modular_resolve(
            &sg,
            &CscSolveOptions {
                store: StoreLink::to(warm_session.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(warm_session.misses(), 0, "identical input must be all hits");
        assert_eq!(warm_session.hits(), cold_session.misses());

        // The store may only change where answers come from, never what
        // they are: with and without a store, cold and warm, everything an
        // outcome exposes is identical.
        for other in [&cold, &warm] {
            assert_eq!(plain.inserted, other.inserted);
            assert_eq!(plain.graph, other.graph);
            assert_eq!(plain.formulas, other.formulas);
            assert_eq!(plain.modules, other.modules);
        }
        assert_eq!(cold.provenance, warm.provenance);
    }

    #[test]
    fn cancelled_token_aborts_the_flow() {
        let sg = derive(&benchmarks::vbe_ex1(), &DeriveOptions::default()).unwrap();
        let options = CscSolveOptions {
            cancel: modsyn_par::CancelToken::new(),
            ..Default::default()
        };
        options.cancel.cancel();
        match modular_resolve(&sg, &options) {
            Err(SynthesisError::Aborted { .. }) => {}
            other => panic!("expected Aborted, got {other:?}"),
        }
    }

    #[test]
    fn small_benchmarks_all_resolve() {
        for name in [
            "vbe-ex1",
            "vbe-ex2",
            "sendr-done",
            "nousc-ser",
            "nouse",
            "fifo",
            "wrdata",
            "pa",
            "sbuf-read-ctl",
        ] {
            let out = resolve(name);
            assert!(
                out.graph.csc_analysis().satisfies_csc(),
                "{name} left conflicts"
            );
            assert!(!out.inserted.is_empty(), "{name} inserted nothing");
        }
    }
}
