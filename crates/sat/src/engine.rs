//! Engine selection: one dispatch point the synthesis loop and the CLIs
//! share, so "which SAT core answered" is a first-class, serialisable
//! option instead of a scatter of booleans.

use modsyn_fault::{site, Faults};
use modsyn_obs::{FlightKind, Tracer};
use modsyn_par::CancelToken;

use crate::cdcl::CdclExtra;
use crate::{Cdcl, CnfFormula, Outcome, Solver, SolverOptions, SolverStats};

/// Which SAT core decides the CSC formulas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The classic [`Solver`] (CDCL-light with learning, or pure
    /// chronological branch-and-bound per `SolverOptions::learning`) — the
    /// paper-faithful baseline and ablation reference.
    Dpll,
    /// The [`Cdcl`] core: heap VSIDS, deep clause minimisation,
    /// LBD-aware deletion, Luby restarts. The default.
    #[default]
    Cdcl,
}

impl Engine {
    /// Parses a CLI engine name (`dpll`, `cdcl`).
    pub fn parse(name: &str) -> Result<Engine, String> {
        match name {
            "dpll" => Ok(Engine::Dpll),
            "cdcl" => Ok(Engine::Cdcl),
            other => Err(format!("unknown engine {other:?} (expected dpll or cdcl)")),
        }
    }

    /// Stable name for fingerprints, traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Dpll => "dpll",
            Engine::Cdcl => "cdcl",
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Solves `formula` with the selected engine under the caller's tracer,
/// cancel token and fault handle.
///
/// `solver` carries the shared limit: `max_backtracks` maps onto the CDCL
/// core's conflict budget; `heuristic`/`learning` only affect
/// [`Engine::Dpll`].
///
/// This is the one place a solve is observed. An observed tracer (event
/// sink, flight recorder or histograms) gets a `sat.solve` span and flight
/// span, the formula size as gauges, the solve's [`SolverStats`] as
/// counters and gauges, the outcome as a note, `sat_conflicts` and
/// `sat_decisions` histogram samples, and a flight `Fault` event per
/// `sat.*` site that fired during the solve. [`Engine::Cdcl`] adds an
/// `engine=cdcl` note, its average learned-clause LBD as a `sat_lbd`
/// sample, and its deletion, glue and minimisation counters. With no
/// observability attached the solve runs bare.
pub fn solve_with_engine_traced(
    engine: Engine,
    formula: &CnfFormula,
    solver: SolverOptions,
    cancel: &CancelToken,
    faults: &Faults,
    tracer: &Tracer,
) -> (Outcome, SolverStats) {
    // `is_observed`, not `is_enabled`: the always-on flight recorder and
    // histograms must see solves even when the event sink is off.
    if !tracer.is_observed() {
        let (outcome, stats, _) = run(engine, formula, solver, cancel, faults);
        return (outcome, stats);
    }
    let _span = tracer.span("sat.solve");
    let _flight = tracer.flight_span("sat.solve");
    if engine == Engine::Cdcl {
        tracer.note("engine", "cdcl");
    }
    tracer.gauge("vars", formula.num_vars() as f64);
    tracer.gauge("clauses", formula.clause_count() as f64);
    let fault_sites = [site::SAT_ABORT, site::SAT_CONFLICT_STORM];
    let injected_before = fault_sites.map(|at| faults.injected_at(at));
    let (outcome, s, cdcl) = run(engine, formula, solver, cancel, faults);
    // Injected fault-site fires land on the flight recorder with the
    // solve's trace id, so a chaos run's aborts are attributable to the
    // request that absorbed them.
    for (at, before) in fault_sites.into_iter().zip(injected_before) {
        let fired = faults.injected_at(at).saturating_sub(before);
        if fired > 0 {
            tracer.flight_event(FlightKind::Fault, at, fired);
        }
    }
    tracer.record_hist("sat_conflicts", s.conflicts);
    tracer.record_hist("sat_decisions", s.decisions);
    if let Some((avg_lbd, _)) = cdcl {
        tracer.record_hist("sat_lbd", avg_lbd);
    }
    tracer.counter("decisions", s.decisions);
    tracer.counter("propagations", s.propagations);
    tracer.counter("backtracks", s.backtracks);
    tracer.counter("conflicts", s.conflicts);
    tracer.counter("learned_clauses", s.learned_clauses);
    tracer.counter("learned_literals", s.learned_literals);
    tracer.counter("restarts", s.restarts);
    if let Some((_, extra)) = cdcl {
        tracer.counter("deleted_clauses", extra.deleted_clauses);
        tracer.counter("glue_clauses", extra.glue_clauses);
        tracer.counter("minimized_literals", extra.minimized_literals);
    }
    tracer.gauge("peak_clauses", s.peak_clauses as f64);
    tracer.gauge("max_level", s.max_level as f64);
    tracer.note(
        "outcome",
        match &outcome {
            Outcome::Satisfiable(_) => "sat",
            Outcome::Unsatisfiable => "unsat",
            Outcome::BacktrackLimit => "backtrack-limit",
            Outcome::Aborted => "aborted",
        },
    );
    (outcome, s)
}

/// Runs one solve on the selected core. The CDCL core also reports its
/// average learned-clause LBD and its extra counters.
fn run(
    engine: Engine,
    formula: &CnfFormula,
    solver: SolverOptions,
    cancel: &CancelToken,
    faults: &Faults,
) -> (Outcome, SolverStats, Option<(u64, CdclExtra)>) {
    match engine {
        Engine::Dpll => {
            let mut s = Solver::new(formula, solver)
                .with_cancel(cancel.clone())
                .with_faults(faults.clone());
            let outcome = s.solve();
            (outcome, s.stats(), None)
        }
        Engine::Cdcl => {
            let mut s = Cdcl::new(formula, solver.max_backtracks)
                .with_cancel(cancel.clone())
                .with_faults(faults.clone());
            let outcome = s.solve();
            (outcome, s.stats(), Some((s.avg_lbd(), s.extra())))
        }
    }
}

/// [`solve_with_engine_traced`] without observability.
pub fn solve_with_engine(
    engine: Engine,
    formula: &CnfFormula,
    solver: SolverOptions,
    cancel: &CancelToken,
    faults: &Faults,
) -> (Outcome, SolverStats) {
    solve_with_engine_traced(engine, formula, solver, cancel, faults, &Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pigeonhole, Lit, Var};
    use modsyn_obs::{FlightRecorder, HistogramRegistry};

    const ENGINES: [Engine; 2] = [Engine::Dpll, Engine::Cdcl];

    fn solve_observed(
        engine: Engine,
        f: &CnfFormula,
        cancel: &CancelToken,
        tracer: &Tracer,
    ) -> (Outcome, SolverStats) {
        let options = SolverOptions::default();
        solve_with_engine_traced(engine, f, options, cancel, &Faults::none(), tracer)
    }

    #[test]
    fn solve_traced_records_a_span_with_counters() {
        let f = pigeonhole(3);
        for engine in ENGINES {
            let tracer = Tracer::enabled();
            let (outcome, _) = solve_observed(engine, &f, &CancelToken::never(), &tracer);
            assert_eq!(outcome, Outcome::Unsatisfiable, "{engine}");
            let report = tracer.report();
            let spans = report.spans_with_prefix("sat.solve");
            assert_eq!(spans.len(), 1, "{engine}");
            let span = spans[0];
            assert_eq!(span.gauge("clauses"), Some(f.clause_count() as f64));
            assert!(span.counter("conflicts").unwrap() > 0, "{engine}");
            assert_eq!(span.note("outcome"), Some("unsat"));
            let cdcl = engine == Engine::Cdcl;
            assert_eq!(span.note("engine"), cdcl.then_some("cdcl"));
            assert_eq!(span.counter("glue_clauses").is_some(), cdcl);
        }
    }

    #[test]
    fn solve_traced_feeds_flight_and_histograms_with_the_sink_off() {
        let f = pigeonhole(3);
        for engine in ENGINES {
            let flight = FlightRecorder::with_capacity(32);
            let hists = HistogramRegistry::new();
            let tracer = Tracer::disabled()
                .with_flight(flight.clone())
                .with_histograms(hists.clone())
                .with_trace(0x51);
            let (outcome, _) = solve_observed(engine, &f, &CancelToken::never(), &tracer);
            assert_eq!(outcome, Outcome::Unsatisfiable, "{engine}");
            let events = flight.events_for_trace(0x51);
            let kinds: Vec<(&str, FlightKind)> = events.iter().map(|e| (e.name, e.kind)).collect();
            assert_eq!(
                kinds,
                [
                    ("sat.solve", FlightKind::SpanOpen),
                    ("sat.solve", FlightKind::SpanClose)
                ],
                "{engine}"
            );
            let names: Vec<String> = hists.snapshot().into_iter().map(|(n, _)| n).collect();
            let mut want = vec!["sat_conflicts", "sat_decisions"];
            if engine == Engine::Cdcl {
                want.push("sat_lbd");
            }
            want.sort_unstable();
            assert_eq!(names, want, "{engine}");
        }
    }

    #[test]
    fn solve_traced_with_disabled_tracer_matches_solve() {
        let f = pigeonhole(3);
        for engine in ENGINES {
            let bare = match engine {
                Engine::Dpll => {
                    let mut s = Solver::new(&f, SolverOptions::default());
                    (s.solve(), s.stats())
                }
                Engine::Cdcl => {
                    let mut s = Cdcl::new(&f, None);
                    (s.solve(), s.stats())
                }
            };
            // Observed or not, the dispatch runs exactly the bare solve.
            let never = CancelToken::never();
            for tracer in [Tracer::disabled(), Tracer::enabled()] {
                assert_eq!(bare, solve_observed(engine, &f, &never, &tracer));
            }
        }
    }

    #[test]
    fn aborted_outcome_is_noted_by_solve_traced() {
        let f = pigeonhole(6);
        for engine in ENGINES {
            let token = CancelToken::new();
            token.cancel();
            let tracer = Tracer::enabled();
            let (outcome, _) = solve_observed(engine, &f, &token, &tracer);
            assert_eq!(outcome, Outcome::Aborted, "{engine}");
            let report = tracer.report();
            assert_eq!(
                report.spans_with_prefix("sat.solve")[0].note("outcome"),
                Some("aborted")
            );
        }
    }

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Engine::parse("dpll").unwrap(), Engine::Dpll);
        assert_eq!(Engine::parse("cdcl").unwrap(), Engine::Cdcl);
        for unknown in ["cnc", "brute"] {
            let err = Engine::parse(unknown).unwrap_err();
            assert!(err.contains("dpll") && err.contains("cdcl"), "{err}");
        }
    }

    fn tiny_sat() -> CnfFormula {
        let mut f = CnfFormula::new(2);
        f.add_clause([Lit::positive(Var::new(0)), Lit::positive(Var::new(1))]);
        f.add_clause([Lit::negative(Var::new(0))]);
        f
    }

    #[test]
    fn all_engines_agree_on_a_tiny_formula() {
        let f = tiny_sat();
        for engine in [Engine::Dpll, Engine::Cdcl] {
            let (outcome, _) = solve_with_engine(
                engine,
                &f,
                SolverOptions::default(),
                &CancelToken::never(),
                &Faults::none(),
            );
            match outcome {
                Outcome::Satisfiable(m) => assert!(m.check(&f), "{engine}"),
                other => panic!("{engine}: {other:?}"),
            }
        }
    }
}
