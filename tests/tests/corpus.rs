//! Cross-crate corpus tests: the composition engine's certificates hold
//! against the independent oracle, the corpus stream honours the
//! three-valued verdict contract end to end, every typed rejection in the
//! taxonomy is actually reachable (or at least constructible), and the
//! serving layer advertises the same vocabulary over HTTP.
//!
//! Failing composed cases shrink through their recipe to a minimal
//! derivation before panicking, mirroring what `differ --corpus` prints.

use std::time::Duration;

use modsyn::{
    synthesize, synthesize_with_retry, Method, RetryPolicy, SynthesisError, SynthesisOptions,
};
use modsyn_corpus::{
    check_certificate, corpus_case, evaluate_case, gen_asym, gen_corpus, CorpusNode, CorpusRecipe,
    EvalOptions, Expectation, Rejection, Skeleton, Unit, Verdict,
};
use modsyn_fault::{site, FaultPlan, FaultRule};
use modsyn_obs::Tracer;
use modsyn_petri::NetClass;
use modsyn_stg::{parse_g, write_g, Frag, SignalKind, StgBuilder};
use modsyn_svc::{client, Server, ServerConfig};

// ---------------------------------------------------------------------------
// Composition preserves the certified properties (with recipe shrinking).
// ---------------------------------------------------------------------------

/// Checks one recipe's certificate; on failure, shrinks to a minimal
/// failing derivation first so the panic names the smallest culprit.
fn assert_certified(recipe: &CorpusRecipe) {
    let (stg, cert) = recipe.build();
    let Err(first) = check_certificate(&stg, &cert) else {
        return;
    };
    let mut minimal = recipe.clone();
    let mut message = first;
    loop {
        let next = minimal.shrink().into_iter().find_map(|candidate| {
            let (stg, cert) = candidate.build();
            check_certificate(&stg, &cert).err().map(|e| (candidate, e))
        });
        match next {
            Some((candidate, e)) => {
                minimal = candidate;
                message = e;
            }
            None => panic!(
                "seed {}: {message}\n  minimal derivation: {}",
                recipe.seed,
                minimal.node.derivation()
            ),
        }
    }
}

#[test]
fn composed_corpus_sweep_is_oracle_certified() {
    // Every shape the generator draws: leaves, articulations, synchronous
    // products and the mixed form. The certificate check is the oracle
    // side: reachability (1-safety, deadlock freedom), the structural
    // classifier against the claimed bound, and `modsyn-check`
    // consistency on the derived state graph.
    for seed in 0..48 {
        assert_certified(&gen_corpus(seed));
    }
}

#[test]
fn articulation_preserves_liveness_safety_and_class() {
    for a in Skeleton::all() {
        for b in Skeleton::all() {
            let recipe = CorpusRecipe {
                seed: 0,
                node: CorpusNode::Articulate(vec![
                    CorpusNode::Unit(Unit::Skel(a)),
                    CorpusNode::Unit(Unit::Skel(b)),
                ]),
            };
            let (stg, cert) = recipe.build();
            check_certificate(&stg, &cert)
                .unwrap_or_else(|e| panic!("art({},{}): {e}", a.name(), b.name()));
            assert!(
                stg.net().classify() <= NetClass::FreeChoice,
                "art({},{}) left the theory",
                a.name(),
                b.name()
            );
        }
    }
}

#[test]
fn sync_product_of_sequential_templates_preserves_properties() {
    let sequential = [
        Skeleton::Channel,
        Skeleton::Pipeline(2),
        Skeleton::Pipeline(4),
    ];
    for a in sequential {
        for b in sequential {
            let recipe = CorpusRecipe {
                seed: 0,
                node: CorpusNode::Sync(vec![
                    CorpusNode::Unit(Unit::Skel(a)),
                    CorpusNode::Unit(Unit::Skel(b)),
                ]),
            };
            let (stg, cert) = recipe.build();
            check_certificate(&stg, &cert)
                .unwrap_or_else(|e| panic!("sync({},{}): {e}", a.name(), b.name()));
            assert!(
                stg.net().classify() <= NetClass::FreeChoice,
                "sync({},{}) left the theory",
                a.name(),
                b.name()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The three-valued verdict contract, end to end on a stream slice.
// ---------------------------------------------------------------------------

#[test]
fn corpus_stream_slice_honours_the_verdict_contract() {
    // Two cheap in-theory composites and two asymmetric-choice probes —
    // the full sweep is the release-mode `corpus` run CI replays.
    for seed in [7u64, 15, 18, 26] {
        let (stg, expectation) = corpus_case(seed);
        let report = evaluate_case(&stg, expectation, &EvalOptions::default());
        assert!(report.ok(), "seed {seed}: {:?}", report.violations);
        match expectation {
            Expectation::InTheory => {
                let modular = report
                    .outcomes
                    .iter()
                    .find(|o| o.method == Method::Modular)
                    .expect("modular always runs");
                assert_eq!(modular.verdict, Verdict::Certified, "seed {seed}");
            }
            Expectation::BeyondTheory => {
                let lavagno = report
                    .outcomes
                    .iter()
                    .find(|o| o.method == Method::Lavagno)
                    .expect("lavagno always runs");
                assert_eq!(
                    lavagno.verdict,
                    Verdict::Rejected(Rejection::BeyondFreeChoice),
                    "seed {seed}"
                );
            }
        }
    }
}

#[test]
fn write_g_is_a_fixpoint_across_the_corpus_stream() {
    for seed in 0..32 {
        let (stg, _) = corpus_case(seed);
        let rendered = write_g(&stg);
        let reparsed = parse_g(&rendered)
            .unwrap_or_else(|e| panic!("seed {seed}: write_g output does not re-parse: {e}"));
        assert_eq!(write_g(&reparsed), rendered, "seed {seed}: not a fixpoint");
    }
}

// ---------------------------------------------------------------------------
// Negative paths: every rejection in the taxonomy, reached or constructed.
// ---------------------------------------------------------------------------

/// A subject whose CSC resolution must consult the SAT solver: the
/// fork/join barrier's concurrency diamond has equal entry/exit codes.
fn sat_bound_subject() -> modsyn_stg::Stg {
    Skeleton::ForkJoin(3).build()
}

#[test]
fn class_gate_rejects_probes_with_not_free_choice() {
    for seed in 0..3 {
        let stg = gen_asym(seed).build();
        let err = synthesize(&stg, &SynthesisOptions::for_method(Method::Lavagno))
            .expect_err("probes are beyond the gated theory");
        assert!(matches!(err, SynthesisError::NotFreeChoice), "{err}");
        let rejection = Rejection::of(&err);
        assert_eq!(rejection, Rejection::BeyondFreeChoice);
        assert!(rejection.is_class());
        assert_eq!(rejection.tag(), "not-free-choice");
    }
}

#[test]
fn conflict_storm_draws_a_backtrack_limit_rejection() {
    let faults = FaultPlan::new("corpus", 5)
        .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
        .arm();
    let options = SynthesisOptions {
        solver: modsyn_sat::SolverOptions {
            max_backtracks: Some(50),
            ..Default::default()
        },
        faults,
        ..Default::default()
    };
    let err = synthesize(&sat_bound_subject(), &options).expect_err("storm burns the budget");
    let rejection = Rejection::of(&err);
    assert_eq!(rejection, Rejection::BacktrackLimit, "{err}");
    assert!(rejection.is_capacity());
    assert_eq!(rejection.tag(), "backtrack-limit");
}

#[test]
fn pre_cancelled_run_draws_an_aborted_rejection() {
    // The default token is the inert `never()`; a real token is needed
    // for `cancel()` to observably trip.
    let options = SynthesisOptions {
        cancel: modsyn_par::CancelToken::new(),
        ..Default::default()
    };
    options.cancel.cancel();
    let err = synthesize(&sat_bound_subject(), &options).expect_err("token already fired");
    let rejection = Rejection::of(&err);
    assert_eq!(rejection, Rejection::Aborted, "{err}");
    assert!(!rejection.is_capacity());
    assert_eq!(rejection.tag(), "aborted");
}

#[test]
fn exhausted_ladder_is_typed_with_its_attempt_trace() {
    // The fork-join subject needs ~1000 backtracks; a budget of 10 with
    // the doubling cap already at 10 leaves one rung, which fails retryably
    // with a genuine backtrack-limit. No fault plan means no fault-free
    // rung, and no fallback keeps the ladder to that rung, so it runs out
    // instead of recovering.
    let options = SynthesisOptions {
        solver: modsyn_sat::SolverOptions {
            max_backtracks: Some(10),
            ..Default::default()
        },
        ..Default::default()
    };
    let policy = RetryPolicy {
        backtrack_cap: 10,
        fallback: false,
        max_attempts: 2,
    };
    let err = synthesize_with_retry(&sat_bound_subject(), &options, &policy)
        .expect_err("every rung hits the backtrack limit");
    let SynthesisError::Exhausted { ref attempts } = err else {
        panic!("expected Exhausted, got {err}");
    };
    assert_eq!(attempts.len(), 1, "the base rung is the whole ladder");
    let rejection = Rejection::of(&err);
    assert_eq!(rejection, Rejection::Exhausted);
    assert_eq!(rejection.tag(), "exhausted");
}

#[test]
fn state_budget_and_signal_cap_rejections_are_typed() {
    // A derivation budget far below the subject's state count.
    let options = SynthesisOptions {
        derive: modsyn_sg::DeriveOptions { max_states: 4 },
        ..Default::default()
    };
    let err = synthesize(&sat_bound_subject(), &options).expect_err("budget is 4 states");
    let rejection = Rejection::of(&err);
    assert_eq!(rejection, Rejection::StateBudget, "{err}");
    assert_eq!(rejection.tag(), "state-budget");

    // More signals than the packed 64-bit state code can hold.
    let mut b = StgBuilder::new("wide");
    let pulses: Vec<Frag> = (0..65)
        .map(|i| {
            let kind = if i == 0 {
                SignalKind::Input
            } else {
                SignalKind::Output
            };
            let s = b.signal(format!("s{i}"), kind).expect("unique names");
            Frag::seq([Frag::rise(s), Frag::fall(s)])
        })
        .collect();
    let wide = b.cycle(Frag::seq(pulses)).expect("well-formed cycle");
    let err = synthesize(&wide, &SynthesisOptions::default()).expect_err("65 signals");
    let rejection = Rejection::of(&err);
    assert_eq!(rejection, Rejection::TooManySignals, "{err}");
    assert_eq!(rejection.tag(), "too-many-signals");
}

#[test]
fn the_whole_taxonomy_is_constructible_tagged_and_partitioned() {
    // The variants without a cheap end-to-end trigger still map totally
    // from their error values; together with the end-to-end tests above,
    // every variant of the closed taxonomy is asserted.
    let constructed = [
        (
            SynthesisError::NoSolution { max_signals: 5 },
            Rejection::NoSolution,
            "no-solution",
        ),
        (
            SynthesisError::StateSplittingRequired,
            Rejection::StateSplittingRequired,
            "state-splitting-required",
        ),
        (
            SynthesisError::CscUnresolved {
                remaining_conflicts: 2,
            },
            Rejection::CscUnresolved,
            "csc-unresolved",
        ),
        (
            SynthesisError::Sg(modsyn_sg::SgError::Inconsistent {
                signal: "x".into(),
                detail: "rise follows rise".into(),
            }),
            Rejection::StateGraph,
            "state-graph",
        ),
    ];
    for (error, expected, tag) in constructed {
        assert_eq!(Rejection::of(&error), expected, "{error}");
        assert_eq!(expected.tag(), tag);
    }

    // Closed: ten variants, ten distinct tags, and class/capacity never
    // overlap (a class verdict must never be excusable as capacity).
    let all = Rejection::all();
    let mut tags: Vec<&str> = all.iter().map(Rejection::tag).collect();
    tags.sort_unstable();
    tags.dedup();
    assert_eq!(tags.len(), all.len(), "duplicate tags in the taxonomy");
    for r in all {
        assert!(!(r.is_class() && r.is_capacity()), "{r} is both");
    }
}

// ---------------------------------------------------------------------------
// The daemon speaks the same vocabulary: typed 422 + X-Modsyn-Class.
// ---------------------------------------------------------------------------

#[test]
fn daemon_rejects_probes_with_the_typed_422_and_class_header() {
    let server = Server::bind(
        ServerConfig {
            jobs: 1,
            ..ServerConfig::default()
        },
        Tracer::disabled(),
    )
    .expect("bind loopback");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let timeout = Duration::from_secs(60);

    // A beyond-theory probe through the gated flow: the typed rejection,
    // with the structural class advertised alongside.
    let probe = write_g(&gen_asym(0).build());
    let rejected = client::request(
        handle.addr(),
        "POST",
        "/synth?method=lavagno",
        probe.as_bytes(),
        timeout,
    )
    .expect("request");
    assert_eq!(rejected.status, 422, "{}", rejected.text());
    assert!(
        rejected.text().contains("\"error\":\"not-free-choice\""),
        "{}",
        rejected.text()
    );
    assert_eq!(rejected.header("x-modsyn-class"), Some("asymmetric-choice"));

    // An in-theory template on the happy path: certified, no class header.
    let ok = client::request(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        write_g(&Skeleton::Channel.build()).as_bytes(),
        timeout,
    )
    .expect("request");
    assert_eq!(ok.status, 200, "{}", ok.text());
    assert!(ok.text().contains("\"certified\":true"));
    assert_eq!(ok.header("x-modsyn-class"), None);

    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}
