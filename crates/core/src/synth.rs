//! End-to-end synthesis: STG in, logic functions and report out.

use std::time::Instant;

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_par::CancelToken;
use modsyn_sat::{Engine, SolverOptions};
use modsyn_sg::{derive_traced, DeriveOptions};
use modsyn_stg::Stg;
use modsyn_store::StoreLink;

use crate::direct::direct_resolve_traced;
use crate::lavagno::{lavagno_resolve, LavagnoOptions};
use crate::logic_fn::{
    derive_logic_jobs_traced, total_literals, verify_logic, MinimizeMode, SignalFunction,
};
use crate::modular::{modular_resolve_jobs_traced, stage_jobs};
use crate::solve::{CscOutcome, CscSolveOptions};
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

impl Method {
    /// Every method, in the order the CLI usage lists them.
    const ALL: [Method; 4] = [
        Method::Modular,
        Method::ModularMinArea,
        Method::Direct,
        Method::Lavagno,
    ];

    /// The method its [`Display`](std::fmt::Display) name names, or `None`
    /// for an unknown name.
    pub fn parse(name: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.to_string() == name)
    }

    /// Every method's name in CLI usage order, `|`-separated: the
    /// choices the CLI usage and the daemon's unknown-method error list.
    pub fn choices() -> String {
        Method::ALL.map(|m| m.to_string()).join("|")
    }
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
    /// default; `dpll` is the paper-faithful classic engine).
    pub engine: Engine,
    /// State-graph derivation limits.
    pub derive: DeriveOptions,
    /// Extra state signals to try beyond the lower bound.
    pub extra_signals: usize,
    /// Two-level minimisation mode for the area numbers.
    pub minimize: MinimizeMode,
    /// Worker threads for the parallel stages (modular candidate
    /// derivation, the CSC signal counts of each module solve, per-signal
    /// logic minimisation). `1` (the default) runs everything inline; any
    /// value produces an identical [`SynthesisReport`] apart from
    /// `cpu_seconds`. Whatever the value, candidate derivation and logic
    /// run inline in a run's first 2 ms, and a module solve tries its
    /// counts one at a time unless its first formula has 400 clauses or
    /// more: there, threads would cost more than they save.
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
    /// Total two-level literal count (the paper's area metric).
    pub literals: usize,
    /// Wall-clock seconds for resolution + logic derivation.
    pub cpu_seconds: f64,
    /// The synthesised logic functions.
    pub functions: Vec<SignalFunction>,
    /// The CSC resolution the functions were derived from: the final
    /// expanded graph (returned so an *independent* checker, `modsyn-check`,
    /// can certify the result without re-running any pipeline stage), the
    /// inserted signals in insertion order, every formula attempted, and —
    /// for the modular methods — the per-output module traces and the
    /// provenance behind `GET /explain` and `--explain`.
    pub csc: CscOutcome,
}

impl SynthesisReport {
    /// States of the final expanded state graph.
    pub fn final_states(&self) -> usize {
        self.csc.graph.state_count()
    }

    /// Signals of the final graph (initial + inserted state signals).
    pub fn final_signals(&self) -> usize {
        self.csc.graph.signals().len()
    }

    /// Number of state signals inserted.
    pub fn inserted_signals(&self) -> usize {
        self.final_signals() - self.initial_signals
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
    let solve = CscSolveOptions {
        solver: options.solver,
        engine: options.engine,
        extra_signals: options.extra_signals,
        min_area: options.method == Method::ModularMinArea,
        cancel: options.cancel.clone(),
        faults: options.faults.clone(),
        store: options.store.clone(),
    };
    let csc = match options.method {
        Method::Modular | Method::ModularMinArea => {
            modular_resolve_jobs_traced(&initial, &solve, options.jobs, tracer)?
        }
        Method::Direct => direct_resolve_traced(&initial, &solve, tracer)?,
        Method::Lavagno => lavagno_resolve(
            stg,
            &initial,
            &LavagnoOptions {
                max_backtracks: options.solver.max_backtracks,
                extra_signals: options.extra_signals.min(3),
                cancel: options.cancel.clone(),
            },
            tracer,
        )?,
    };

    let jobs = stage_jobs(options.jobs, start);
    let functions = derive_logic_jobs_traced(&csc.graph, options.minimize, jobs, tracer)?;
    debug_assert!(verify_logic(&csc.graph, &functions));
    Ok(SynthesisReport {
        benchmark: stg.name().to_string(),
        method: options.method,
        initial_states: initial.state_count(),
        initial_signals: initial.signals().len(),
        literals: total_literals(&functions),
        cpu_seconds: start.elapsed().as_secs_f64(),
        functions,
        csc,
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
        assert_eq!(report.final_signals(), 3);
        assert!(report.final_states() > report.initial_states);
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

    #[test]
    fn every_method_round_trips_through_its_name() {
        for method in Method::ALL {
            assert_eq!(Method::parse(&method.to_string()), Some(method));
        }
        assert_eq!(Method::parse("bogus"), None);
        assert_eq!(Method::parse("Modular"), None);
    }

    #[test]
    fn the_choice_list_names_every_method_once() {
        let choices = Method::choices();
        assert_eq!(choices, "modular|modular-min-area|direct|lavagno");
        let names: Vec<&str> = choices.split('|').collect();
        assert_eq!(names.len(), Method::ALL.len());
        for method in Method::ALL {
            assert!(names.contains(&method.to_string().as_str()), "{method}");
        }
    }
}
