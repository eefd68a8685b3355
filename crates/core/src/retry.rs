//! The supervised retry/escalation ladder.
//!
//! The paper's headline failure is capacity, not correctness: the direct
//! method aborts on `mr1` at the SAT backtrack limit. Kondratiev et al.
//! (PAPERS.md) re-attack hard CircuitSAT instances under escalated
//! budgets; this module does the same for the whole synthesis run. On a
//! *retryable* failure — [`SynthesisError::BacktrackLimit`], or
//! [`SynthesisError::Aborted`] when the overall token has not fired — the
//! ladder escalates deterministically:
//!
//! 1. double the backtrack limit, up to [`RetryPolicy::backtrack_cap`];
//! 2. when a fault plan is armed, re-run the top budget without it — the
//!    same engine, so the answer a fault-free run gives;
//! 3. fall back modular → lavagno (a different algorithm entirely).
//!
//! The schedule is a pure function of the base options and the policy
//! ([`escalation_ladder`]) — given the same inputs, every run climbs the
//! same rungs in the same order, so a failure trace from CI reproduces
//! locally. Non-retryable errors (`NoSolution`, `NotFreeChoice`, …) are
//! returned unchanged on first occurrence: retrying a proof of
//! unsatisfiability is wasted work.

use std::time::Instant;

use modsyn_fault::Faults;
use modsyn_obs::Tracer;
use modsyn_stg::Stg;

use crate::synth::{synthesize_traced, Method, SynthesisOptions, SynthesisReport};
use crate::SynthesisError;

/// How far the ladder escalates before giving up with
/// [`SynthesisError::Exhausted`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Backtrack-limit doubling stops once the limit reaches this cap.
    pub backtrack_cap: u64,
    /// Allow the final modular → lavagno rung (a different algorithm,
    /// different literal counts — only sound when the caller accepts any
    /// method's result).
    pub fallback: bool,
    /// Hard cap on total attempts, truncating the ladder from the top.
    pub max_attempts: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            backtrack_cap: 1_000_000,
            fallback: true,
            max_attempts: 8,
        }
    }
}

/// One failed rung of the ladder, as carried by
/// [`SynthesisError::Exhausted`] and printed by the CLI on exit code 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// The method this rung ran.
    pub method: Method,
    /// The backtrack limit in force.
    pub backtrack_limit: Option<u64>,
    /// Wall-clock seconds the rung spent before failing.
    pub elapsed: f64,
    /// How the rung failed.
    pub error: SynthesisError,
}

impl std::fmt::Display for Attempt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.method)?;
        match self.backtrack_limit {
            Some(limit) => write!(f, " backtracks<={limit}")?,
            None => write!(f, " backtracks=unlimited")?,
        }
        write!(f, " {:.2}s: {}", self.elapsed, self.error)
    }
}

/// A successful supervised run: the report plus the failed rungs that
/// preceded it (empty when the first attempt succeeded).
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The successful attempt's report.
    pub report: SynthesisReport,
    /// The failed attempts climbed through first, in order.
    pub attempts: Vec<Attempt>,
}

/// The deterministic escalation schedule: every options value the ladder
/// will try, in order, truncated to [`RetryPolicy::max_attempts`]. A pure
/// function of `(base, policy)` — this is the determinism guarantee
/// DESIGN.md §11 documents, and what makes chaos runs replayable.
pub fn escalation_ladder(base: &SynthesisOptions, policy: &RetryPolicy) -> Vec<SynthesisOptions> {
    let mut rungs = vec![base.clone()];
    // Rung family 1: double the backtrack limit up to the cap. An
    // unlimited base has nothing to bump.
    let mut limit = base.solver.max_backtracks;
    while let Some(l) = limit {
        if l >= policy.backtrack_cap {
            break;
        }
        let bumped = (l.saturating_mul(2)).min(policy.backtrack_cap);
        let mut next = base.clone();
        next.solver.max_backtracks = Some(bumped);
        rungs.push(next);
        limit = Some(bumped);
    }
    // Rung 2: the highest budget reached, without the fault plan. With no
    // plan armed it would repeat the previous rung exactly.
    if base.faults.is_armed() {
        let mut next = base.clone();
        next.solver.max_backtracks = limit;
        next.faults = Faults::none();
        rungs.push(next);
    }
    // Rung 3: a different algorithm entirely.
    if policy.fallback && base.method != Method::Lavagno {
        let mut next = base.clone();
        next.solver.max_backtracks = limit;
        next.method = Method::Lavagno;
        rungs.push(next);
    }
    rungs.truncate(policy.max_attempts.max(1));
    rungs
}

/// Whether the ladder retries after `error`. Capacity failures are
/// retryable; `overall_cancelled` vetoes retrying an abort that the
/// caller's own token caused.
fn is_retryable(error: &SynthesisError, overall_cancelled: bool) -> bool {
    match error {
        SynthesisError::BacktrackLimit { .. } => true,
        SynthesisError::Aborted { .. } => !overall_cancelled,
        _ => false,
    }
}

/// [`synthesize_with_retry`] with observability: the ladder runs under a
/// `retry.ladder` span, each rung under a `retry.attempt` span with the
/// rung's method/limit/fault plan as notes and its outcome as a note, and
/// failed rungs count into a `retry_escalations` counter.
///
/// # Errors
///
/// * a non-retryable [`SynthesisError`], unchanged, from whichever rung
///   first hit it;
/// * [`SynthesisError::Aborted`] when the *overall* token fired;
/// * [`SynthesisError::Exhausted`] with the full attempt trace when every
///   rung failed retryably.
pub fn synthesize_with_retry_traced(
    stg: &Stg,
    base: &SynthesisOptions,
    policy: &RetryPolicy,
    tracer: &Tracer,
) -> Result<RetryOutcome, SynthesisError> {
    let _span = tracer.span("retry.ladder");
    let _flight = tracer.flight_span("retry.ladder");
    let rungs = escalation_ladder(base, policy);
    tracer.gauge("rungs", rungs.len() as f64);
    let mut attempts = Vec::new();
    for options in &rungs {
        let attempt_span = tracer.span("retry.attempt");
        let attempt_flight = tracer.flight_span("retry.attempt");
        tracer.note("method", &options.method.to_string());
        tracer.note(
            "backtrack_limit",
            &options
                .solver
                .max_backtracks
                .map_or_else(|| "unlimited".to_string(), |l| l.to_string()),
        );
        tracer.note(
            "faults",
            if options.faults.is_armed() {
                "armed"
            } else {
                "none"
            },
        );
        let started = Instant::now();
        let result = synthesize_traced(stg, options, tracer);
        match result {
            Ok(report) => {
                tracer.note("outcome", "ok");
                drop(attempt_span);
                drop(attempt_flight);
                return Ok(RetryOutcome { report, attempts });
            }
            Err(error) => {
                tracer.note("outcome", &error.to_string());
                drop(attempt_span);
                drop(attempt_flight);
                let overall_cancelled = base.cancel.is_cancelled();
                let retryable = is_retryable(&error, overall_cancelled);
                attempts.push(Attempt {
                    method: options.method,
                    backtrack_limit: options.solver.max_backtracks,
                    elapsed: started.elapsed().as_secs_f64(),
                    error: error.clone(),
                });
                if !retryable {
                    return Err(error);
                }
                tracer.counter("retry_escalations", 1);
            }
        }
    }
    Err(SynthesisError::Exhausted { attempts })
}

/// Runs the supervised ladder without observability.
///
/// # Errors
///
/// As [`synthesize_with_retry_traced`].
pub fn synthesize_with_retry(
    stg: &Stg,
    base: &SynthesisOptions,
    policy: &RetryPolicy,
) -> Result<RetryOutcome, SynthesisError> {
    synthesize_with_retry_traced(stg, base, policy, &Tracer::disabled())
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_fault::{site, FaultPlan, FaultRule};
    use modsyn_sat::SolverOptions;
    use modsyn_stg::benchmarks;

    fn limited(limit: u64) -> SynthesisOptions {
        SynthesisOptions {
            solver: SolverOptions {
                max_backtracks: Some(limit),
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn armed() -> Faults {
        FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT))
            .arm()
    }

    #[test]
    fn the_ladder_is_a_pure_function_of_its_inputs() {
        let base = SynthesisOptions {
            faults: armed(),
            ..limited(100)
        };
        let policy = RetryPolicy {
            backtrack_cap: 400,
            ..Default::default()
        };
        let a = escalation_ladder(&base, &policy);
        let b = escalation_ladder(&base, &policy);
        assert_eq!(a, b);
        let limits: Vec<_> = a.iter().map(|o| o.solver.max_backtracks).collect();
        assert_eq!(
            limits,
            vec![Some(100), Some(200), Some(400), Some(400), Some(400)]
        );
        assert!(a[..3].iter().all(|o| o.faults.is_armed()));
        assert!(
            !a[3].faults.is_armed(),
            "the fault-free rung follows the doublings"
        );
        assert_eq!(a[4].method, Method::Lavagno, "fallback rung is last");
        assert!(a[..4].iter().all(|o| o.method == Method::Modular));
    }

    #[test]
    fn unlimited_base_skips_the_doubling_rungs() {
        let ladder = escalation_ladder(&SynthesisOptions::default(), &RetryPolicy::default());
        assert_eq!(ladder.len(), 2); // base, lavagno: no plan to drop
        assert_eq!(ladder[1].method, Method::Lavagno);

        let base = SynthesisOptions {
            faults: armed(),
            ..Default::default()
        };
        let ladder = escalation_ladder(&base, &RetryPolicy::default());
        assert_eq!(ladder.len(), 3); // base, fault-free, lavagno
        assert!(!ladder[1].faults.is_armed());
        assert_eq!(ladder[1].solver.max_backtracks, None);
        assert_eq!(ladder[2].method, Method::Lavagno);
    }

    #[test]
    fn max_attempts_truncates_from_the_top() {
        let policy = RetryPolicy {
            max_attempts: 2,
            backtrack_cap: 1 << 20,
            ..Default::default()
        };
        let ladder = escalation_ladder(&limited(100), &policy);
        assert_eq!(ladder.len(), 2);
        assert_eq!(ladder[1].solver.max_backtracks, Some(200));
    }

    #[test]
    fn first_attempt_success_reports_no_escalations() {
        let out = synthesize_with_retry(
            &benchmarks::vbe_ex1(),
            &SynthesisOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert!(out.attempts.is_empty());
        assert_eq!(out.report.benchmark, "vbe-ex1");
    }

    #[test]
    fn a_single_shot_abort_fault_is_retried_away() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .arm();
        let base = SynthesisOptions {
            faults: faults.clone(),
            ..Default::default()
        };
        let out =
            synthesize_with_retry(&benchmarks::vbe_ex1(), &base, &RetryPolicy::default()).unwrap();
        assert_eq!(out.attempts.len(), 1, "one failed rung before success");
        assert!(matches!(
            out.attempts[0].error,
            SynthesisError::Aborted { .. }
        ));
        assert_eq!(faults.total_injected(), 1);
    }

    #[test]
    fn the_fault_free_rung_escapes_a_persistent_solver_fault() {
        // An unlimited sat.abort plan kills every rung that carries it; the
        // fault-free rung does not, and must decide.
        let base = SynthesisOptions {
            faults: armed(),
            ..Default::default()
        };
        let out =
            synthesize_with_retry(&benchmarks::vbe_ex1(), &base, &RetryPolicy::default()).unwrap();
        let winner_index = out.attempts.len();
        let ladder = escalation_ladder(&base, &RetryPolicy::default());
        assert!(
            !ladder[winner_index].faults.is_armed(),
            "fault-free rung won"
        );
        assert_eq!(out.report.method, Method::Modular);
    }

    #[test]
    fn exhaustion_carries_the_full_attempt_trace() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
            .arm();
        let base = SynthesisOptions {
            faults,
            solver: SolverOptions {
                max_backtracks: Some(100),
                ..Default::default()
            },
            ..Default::default()
        };
        let policy = RetryPolicy {
            backtrack_cap: 200,
            max_attempts: 2, // base + one doubling; no fault-free escape
            ..Default::default()
        };
        let err = synthesize_with_retry(&benchmarks::vbe_ex1(), &base, &policy).unwrap_err();
        let SynthesisError::Exhausted { attempts } = &err else {
            panic!("expected Exhausted, got {err:?}");
        };
        assert_eq!(attempts.len(), 2);
        assert_eq!(attempts[0].backtrack_limit, Some(100));
        assert_eq!(attempts[1].backtrack_limit, Some(200));
        assert!(attempts
            .iter()
            .all(|a| matches!(a.error, SynthesisError::BacktrackLimit { .. })));
        let display = err.to_string();
        assert!(display.contains("2 attempts"), "{display}");
    }

    #[test]
    fn non_retryable_errors_return_unchanged_immediately() {
        // The lavagno baseline rejects alex-nonfc as not free-choice: a
        // deterministic error no rung can change. The limit gives the
        // ladder rungs to climb, so a retried error would come back as
        // `Exhausted`, and a wrapped one would differ too.
        let stg = benchmarks::by_name("alex-nonfc").expect("known benchmark");
        let base = SynthesisOptions {
            method: Method::Lavagno,
            ..limited(100)
        };
        assert!(escalation_ladder(&base, &RetryPolicy::default()).len() > 1);
        let expected = crate::synthesize(&stg, &base).unwrap_err();
        assert_eq!(expected, SynthesisError::NotFreeChoice);
        let err = synthesize_with_retry(&stg, &base, &RetryPolicy::default()).unwrap_err();
        assert_eq!(err, expected, "error must pass through unwrapped");
    }

    #[test]
    fn an_overall_cancellation_propagates_as_aborted() {
        let cancel = modsyn_par::CancelToken::new();
        cancel.cancel();
        let base = SynthesisOptions {
            cancel,
            ..Default::default()
        };
        let err = synthesize_with_retry(&benchmarks::vbe_ex1(), &base, &RetryPolicy::default())
            .unwrap_err();
        assert!(
            matches!(err, SynthesisError::Aborted { .. }),
            "caller cancellation is not a retry trigger: {err:?}"
        );
    }

    #[test]
    fn the_traced_ladder_records_rung_spans() {
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .arm();
        let base = SynthesisOptions {
            faults,
            ..Default::default()
        };
        let tracer = Tracer::enabled();
        let out = synthesize_with_retry_traced(
            &benchmarks::vbe_ex1(),
            &base,
            &RetryPolicy::default(),
            &tracer,
        )
        .unwrap();
        let report = tracer.report();
        let attempts = report.spans_with_prefix("retry.attempt");
        assert_eq!(attempts.len(), out.attempts.len() + 1);
        assert_eq!(report.total_counter("retry_escalations"), 1);
        assert_eq!(attempts.last().unwrap().note("outcome"), Some("ok"));
    }
}
