//! End-to-end synthesis: STG in, logic functions and report out.

use std::time::Instant;

use modsyn_cnc::Engine;
use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_sat::SolverOptions;
use modsyn_sg::{derive_traced, DeriveOptions, StateGraph};
use modsyn_stg::Stg;
use modsyn_store::{Provenance, StoreLink};

use crate::direct::direct_resolve_traced;
use crate::lavagno::{lavagno_resolve, LavagnoOptions};
use crate::logic_fn::{
    derive_logic_jobs_traced, total_literals, verify_logic, MinimizeMode, SignalFunction,
};
use crate::modular::{modular_resolve_jobs_traced, ModuleReport};
use crate::solve::{CscSolveOptions, FormulaStat};
use crate::SynthesisError;

/// Which CSC-resolution method to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// The paper's modular partitioning flow.
    Modular,
    /// The modular flow with BDD-based minimum-excitation assignment
    /// extraction (the area refinement of the paper's conclusion).
    ModularMinArea,
    /// Vanbekbergen et al.'s direct (no decomposition) SAT flow.
    Direct,
    /// The Lavagno/Moon-style state-table flow.
    Lavagno,
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Modular => "modular",
            Method::ModularMinArea => "modular-min-area",
            Method::Direct => "direct",
            Method::Lavagno => "lavagno",
        })
    }
}

/// Configuration of a synthesis run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisOptions {
    /// The method to run.
    pub method: Method,
    /// SAT solver options (heuristic, backtrack limit). The backtrack
    /// limit is what makes the direct method abort on Table 1's large rows.
    pub solver: SolverOptions,
    /// Which SAT core decides the CSC formulas ([`Engine::Cdcl`] by
    /// default; `dpll` is the paper-faithful classic engine, `cnc` the
    /// cube-and-conquer decomposition for the hardest direct formulas).
    pub engine: Engine,
    /// State-graph derivation limits.
    pub derive: DeriveOptions,
    /// Extra state signals to try beyond the lower bound.
    pub extra_signals: usize,
    /// Two-level minimisation mode for the area numbers.
    pub minimize: MinimizeMode,
    /// Worker threads for the parallel stages (modular candidate
    /// derivation, per-signal logic minimisation). `1` (the default) runs
    /// everything inline; any value produces an identical
    /// [`SynthesisReport`] apart from `cpu_seconds`.
    pub jobs: usize,
    /// Cooperative cancellation for the whole run (the CLI's
    /// `--timeout-ms`). Surfaces as [`SynthesisError::Aborted`]. Inert by
    /// default.
    pub cancel: CancelToken,
    /// Fault-injection handle threaded into the SAT stage (the `sat.*`
    /// sites). Inert by default.
    pub faults: Faults,
    /// Optional synthesis-store session for the modular methods: cached
    /// module solves are replayed instead of re-run, and fresh solves are
    /// recorded with provenance. Inert by default and ignored by the
    /// non-modular comparators. See [`crate::CscSolveOptions::store`].
    pub store: StoreLink,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            method: Method::Modular,
            solver: SolverOptions::default(),
            engine: Engine::default(),
            derive: DeriveOptions::default(),
            extra_signals: 6,
            minimize: MinimizeMode::Heuristic,
            jobs: 1,
            cancel: CancelToken::never(),
            faults: Faults::none(),
            store: StoreLink::none(),
        }
    }
}

impl SynthesisOptions {
    /// Convenience constructor for a method with default limits.
    pub fn for_method(method: Method) -> Self {
        SynthesisOptions {
            method,
            ..Default::default()
        }
    }
}

/// Everything a Table-1 row needs about one synthesis run.
#[derive(Debug, Clone)]
pub struct SynthesisReport {
    /// Benchmark (STG model) name.
    pub benchmark: String,
    /// The method that produced this report.
    pub method: Method,
    /// States of the state graph derived from the input STG.
    pub initial_states: usize,
    /// Signals of the input STG.
    pub initial_signals: usize,
    /// States of the final expanded state graph.
    pub final_states: usize,
    /// Signals of the final graph (initial + inserted state signals).
    pub final_signals: usize,
    /// Total two-level literal count (the paper's area metric).
    pub literals: usize,
    /// Wall-clock seconds for resolution + logic derivation.
    pub cpu_seconds: f64,
    /// Statistics of every SAT formula attempted.
    pub formulas: Vec<FormulaStat>,
    /// Per-output module traces (modular method only).
    pub modules: Vec<ModuleReport>,
    /// The synthesised logic functions.
    pub functions: Vec<SignalFunction>,
    /// Names of the inserted state signals, in insertion order.
    pub inserted: Vec<String>,
    /// The final expanded, CSC-satisfying state graph the functions were
    /// derived from — returned so an *independent* checker (`modsyn-check`)
    /// can certify the result without re-running any pipeline stage.
    pub graph: StateGraph,
    /// Why each inserted state signal exists (modular methods only): the
    /// module that forced it, the conflict pairs it resolves, the winning
    /// formula's clause families. Feeds `GET /explain` and `--explain`.
    pub provenance: Vec<Provenance>,
    /// Module solves answered from the synthesis store (0 without one).
    pub store_hits: u64,
    /// Module solves run for real — the dirty count of an incremental run.
    pub store_misses: u64,
}

impl SynthesisReport {
    /// Number of state signals inserted.
    pub fn inserted_signals(&self) -> usize {
        self.final_signals - self.initial_signals
    }
}

/// Runs one method end-to-end on an STG: derive the state graph, resolve
/// CSC, expand, derive and minimise the logic.
///
/// # Errors
///
/// Propagates every [`SynthesisError`] of the stages; see [`Method`] for
/// the failures characteristic of each comparator.
pub fn synthesize(
    stg: &Stg,
    options: &SynthesisOptions,
) -> Result<SynthesisReport, SynthesisError> {
    synthesize_traced(stg, options, &Tracer::disabled())
}

/// [`synthesize`] with observability: the whole run is wrapped in a
/// `synthesize` span with the benchmark and method as notes, and every stage
/// (state-graph derivation, CSC resolution, logic derivation) nests its own
/// spans under it.
///
/// # Errors
///
/// As [`synthesize`].
pub fn synthesize_traced(
    stg: &Stg,
    options: &SynthesisOptions,
    tracer: &Tracer,
) -> Result<SynthesisReport, SynthesisError> {
    let start = Instant::now();
    let _span = tracer.span("synthesize");
    let _flight = tracer.flight_span("synthesize");
    tracer.note("benchmark", stg.name());
    tracer.note("method", &options.method.to_string());
    let initial = derive_traced(stg, &options.derive, tracer)?;
    struct Resolved {
        graph: StateGraph,
        inserted: Vec<String>,
        formulas: Vec<FormulaStat>,
        modules: Vec<ModuleReport>,
        provenance: Vec<Provenance>,
        store_hits: u64,
        store_misses: u64,
    }
    let resolved = match options.method {
        Method::Modular | Method::ModularMinArea => {
            let solve = CscSolveOptions {
                solver: options.solver,
                engine: options.engine,
                extra_signals: options.extra_signals,
                name_prefix: "csc",
                min_area: options.method == Method::ModularMinArea,
                cancel: options.cancel.clone(),
                faults: options.faults.clone(),
                store: options.store.clone(),
            };
            let out = modular_resolve_jobs_traced(&initial, &solve, options.jobs, tracer)?;
            Resolved {
                graph: out.graph,
                inserted: out.inserted,
                formulas: out.formulas,
                modules: out.modules,
                provenance: out.provenance,
                store_hits: out.store_hits,
                store_misses: out.store_misses,
            }
        }
        Method::Direct => {
            let solve = CscSolveOptions {
                solver: options.solver,
                engine: options.engine,
                extra_signals: options.extra_signals,
                name_prefix: "csc",
                min_area: false,
                cancel: options.cancel.clone(),
                faults: options.faults.clone(),
                store: StoreLink::none(),
            };
            let out = direct_resolve_traced(&initial, &solve, tracer)?;
            Resolved {
                graph: out.graph,
                inserted: out.inserted,
                formulas: out.formulas,
                modules: Vec::new(),
                provenance: Vec::new(),
                store_hits: 0,
                store_misses: 0,
            }
        }
        Method::Lavagno => {
            let out = lavagno_resolve(
                stg,
                &initial,
                &LavagnoOptions {
                    max_backtracks: options.solver.max_backtracks,
                    extra_signals: options.extra_signals.min(3),
                    cancel: options.cancel.clone(),
                },
            )?;
            Resolved {
                graph: out.graph,
                inserted: out.inserted,
                formulas: out.formulas,
                modules: Vec::new(),
                provenance: Vec::new(),
                store_hits: 0,
                store_misses: 0,
            }
        }
    };
    let Resolved {
        graph,
        inserted,
        formulas,
        modules,
        provenance,
        store_hits,
        store_misses,
    } = resolved;

    let functions = derive_logic_jobs_traced(&graph, options.minimize, options.jobs, tracer)?;
    debug_assert!(verify_logic(&graph, &functions));
    Ok(SynthesisReport {
        benchmark: stg.name().to_string(),
        method: options.method,
        initial_states: initial.state_count(),
        initial_signals: initial.signals().len(),
        final_states: graph.state_count(),
        final_signals: graph.signals().len(),
        literals: total_literals(&functions),
        cpu_seconds: start.elapsed().as_secs_f64(),
        formulas,
        modules,
        functions,
        inserted,
        graph,
        provenance,
        store_hits,
        store_misses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_stg::benchmarks;

    #[test]
    fn modular_end_to_end_on_vbe_ex1() {
        let stg = benchmarks::vbe_ex1();
        let report = synthesize(&stg, &SynthesisOptions::default()).unwrap();
        assert_eq!(report.benchmark, "vbe-ex1");
        assert_eq!(report.initial_signals, 2);
        assert_eq!(report.final_signals, 3);
        assert!(report.final_states > report.initial_states);
        assert!(report.literals > 0);
        assert_eq!(report.inserted_signals(), 1);
    }

    #[test]
    fn methods_agree_on_resolvability() {
        let stg = benchmarks::vbe_ex2();
        for method in [Method::Modular, Method::Direct, Method::Lavagno] {
            let report = synthesize(&stg, &SynthesisOptions::for_method(method))
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert!(report.literals > 0, "{method}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Method::Modular.to_string(), "modular");
        assert_eq!(Method::Direct.to_string(), "direct");
        assert_eq!(Method::Lavagno.to_string(), "lavagno");
    }
}
