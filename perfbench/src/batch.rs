//! The batch workloads, `table1` and `corpus`: `.g` text through the
//! library one spec at a time (`jobs = 1`), every answer certified by the
//! independent oracle.
//!
//! An untraced pass times each spec from `.g` text to a certified answer
//! the way a library user gets one: `parse_g`, `synthesize`, then
//! `certify_report` against the re-derived specification. A traced pass
//! feeds the same text through the separate stage entry points —
//! `parse_g_traced`, `derive_traced`, `modular_resolve_jobs_traced` or
//! `direct_resolve_traced`, `derive_logic_jobs_traced`, `gate_netlist` and
//! the oracle's four judgements — timing each call from outside and reading
//! module selection, SAT and espresso figures from the span tree the traced
//! entry points record. Its answer for every spec must equal the whole
//! pipeline's.

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use modsyn::{
    certify_report, derive_logic_jobs_traced, direct_resolve_traced, gate_netlist,
    modular_resolve_jobs_traced, synthesize, total_literals, CscSolveOptions, Engine, Method,
    SynthesisError, SynthesisOptions,
};
use modsyn_bench::corpus::CORPUS_TIERS;
use modsyn_bench::TABLE1_BACKTRACK_LIMIT;
use modsyn_check::{
    check_consistency, check_csc, check_equivalence, check_speed_independence, CheckError,
    GateNetlist,
};
use modsyn_corpus::{corpus_case, EvalOptions, Expectation, Rejection};
use modsyn_fault::SplitMix64;
use modsyn_obs::{Json, Tracer};
use modsyn_sg::{derive, derive_traced, StateGraph};
use modsyn_stg::{benchmarks, parse_g, parse_g_traced, write_g};

use crate::report::{
    add_spans, measured_enough, median, peak_rss_mb, shuffle, timed, write_detail, HostSpeed,
    Outcome, Tally,
};
use crate::Args;

/// Corpus stream seeds of the `corpus` workload. The slice is fixed, so
/// every `--seed` measures the same specs (the seed orders them) and the
/// figures compare across seeds; it holds eight beyond-theory probes and
/// cases of the xs, small and medium tiers.
const CORPUS_CASES: Range<u64> = 0..64;

/// Each pass times a spec until it has [`TIMINGS`] timings or
/// [`TIMED_MS`] of them; a spec's latency is the median of its timings in
/// the run, each scaled to the reference host speed ([`HostSpeed`]).
const TIMINGS: usize = 5;
const TIMED_MS: f64 = 400.0;

/// Later passes skip a spec whose first timing took this many ms or more:
/// timing it again would crowd the rest out of the run.
const RETIME_MS: f64 = 5000.0;

/// A batch workload.
#[derive(Debug, Clone, Copy)]
pub enum Batch {
    /// The 23 Table-1 rows under the modular and direct methods.
    Table1,
    /// A slice of the compositional corpus under the modular method.
    Corpus,
}

/// One spec of a batch workload.
struct Spec {
    id: String,
    method: Method,
    text: String,
    /// A beyond-theory probe: a typed rejection meets its expectation.
    probe: bool,
}

impl Spec {
    fn name(&self) -> String {
        format!("{} ({})", self.id, self.method)
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Verdict {
    Certified,
    /// A typed rejection, by its tag.
    Rejected(&'static str),
    /// No answer, or one the oracle refused.
    Broken(String),
}

/// What a pipeline answered for one spec; answers are the deterministic
/// part of a run.
#[derive(Debug, Clone, PartialEq)]
struct Answer {
    verdict: Verdict,
    literals: usize,
    state_signals: usize,
}

impl Answer {
    fn certified(literals: usize, state_signals: usize) -> Answer {
        Answer {
            verdict: Verdict::Certified,
            literals,
            state_signals,
        }
    }

    fn rejected(error: &SynthesisError) -> Answer {
        Answer {
            verdict: Verdict::Rejected(Rejection::of(error).tag()),
            literals: 0,
            state_signals: 0,
        }
    }

    fn broken(detail: String) -> Answer {
        Answer {
            verdict: Verdict::Broken(detail),
            literals: 0,
            state_signals: 0,
        }
    }

    /// In-theory specs must certify; a probe may draw a typed rejection.
    fn meets(&self, spec: &Spec) -> bool {
        match self.verdict {
            Verdict::Certified => true,
            Verdict::Rejected(_) => spec.probe,
            Verdict::Broken(_) => false,
        }
    }

    fn label(&self) -> String {
        match &self.verdict {
            Verdict::Certified => format!(
                "certified, {} literals, {} state signals",
                self.literals, self.state_signals
            ),
            Verdict::Rejected(tag) => format!("rejected: {tag}"),
            Verdict::Broken(detail) => format!("broken: {detail}"),
        }
    }
}

impl Batch {
    fn name(self) -> &'static str {
        match self {
            Batch::Table1 => "table1",
            Batch::Corpus => "corpus",
        }
    }

    /// Table 1 runs the default CDCL engine under the Table-1 limit; the
    /// corpus runs its contract's settings (classic engine, 40 k budget).
    fn options(self) -> SynthesisOptions {
        let mut options = SynthesisOptions::default();
        match self {
            Batch::Table1 => options.solver.max_backtracks = Some(TABLE1_BACKTRACK_LIMIT),
            Batch::Corpus => {
                options.solver.max_backtracks = Some(EvalOptions::default().backtrack_limit);
                options.engine = Engine::Dpll;
            }
        }
        options
    }

    /// The input set as `.g` text, in `seed` order.
    fn specs(self, seed: u64) -> Vec<Spec> {
        let mut specs: Vec<Spec> = match self {
            Batch::Table1 => benchmarks::all()
                .into_iter()
                .flat_map(|(name, stg)| {
                    let text = write_g(&stg);
                    [Method::Modular, Method::Direct].map(|method| Spec {
                        id: name.to_string(),
                        method,
                        text: text.clone(),
                        probe: false,
                    })
                })
                .collect(),
            Batch::Corpus => CORPUS_CASES
                .map(|seed| {
                    let (stg, expectation) = corpus_case(seed);
                    Spec {
                        id: format!("seed {seed}"),
                        method: Method::Modular,
                        text: write_g(&stg),
                        probe: expectation == Expectation::BeyondTheory,
                    }
                })
                .collect(),
        };
        shuffle(&mut specs, &mut SplitMix64::new(seed));
        specs
    }
}

/// The whole pipeline, as a library user runs it.
fn whole(spec: &Spec, options: &SynthesisOptions) -> Answer {
    let stg = match parse_g(&spec.text) {
        Ok(stg) => stg,
        Err(e) => return Answer::broken(format!("parse: {e}")),
    };
    let options = SynthesisOptions {
        method: spec.method,
        ..options.clone()
    };
    let report = match synthesize(&stg, &options) {
        Ok(report) => report,
        Err(e) => return Answer::rejected(&e),
    };
    let certified = derive(&stg, &options.derive)
        .map_err(|e| e.to_string())
        .and_then(|specification| {
            certify_report(Some(&specification), &report).map_err(|e| e.to_string())
        });
    match certified {
        Ok(()) => Answer::certified(report.literals, report.inserted_signals()),
        Err(e) => Answer::broken(format!("oracle: {e}")),
    }
}

/// Parses the whole input set, as a program loading it does before it
/// submits the first spec.
fn load(specs: &[Spec]) {
    for spec in specs {
        // A text that does not parse shows as a broken answer when timed.
        let _ = std::hint::black_box(parse_g(std::hint::black_box(&spec.text)));
    }
}

/// The same spec through the separate stage entry points, traced: its
/// answer and layer figures, `traced_wall_us` among them.
fn staged(spec: &Spec, options: &SynthesisOptions) -> (Answer, Tally) {
    let tracer = Tracer::enabled();
    let mut tally = Tally::default();
    let answer = timed(&mut tally, "traced_wall_us", || {
        let mut stages = Tally::default();
        let answer = run_stages(spec, options, &tracer, &mut stages);
        (answer, stages)
    });
    let (answer, stages) = answer;
    tally.merge(&stages);
    add_spans(&tracer.report(), false, &mut tally);
    (answer, tally)
}

fn run_stages(spec: &Spec, options: &SynthesisOptions, tracer: &Tracer, t: &mut Tally) -> Answer {
    t.add("stg.bytes", spec.text.len() as f64);
    let stg = match timed(t, "stg.parse_us", || parse_g_traced(&spec.text, tracer)) {
        Ok(stg) => stg,
        Err(e) => return Answer::broken(format!("parse: {e}")),
    };
    let initial = match timed(t, "sg.derive_us", || {
        derive_traced(&stg, &options.derive, tracer)
    }) {
        Ok(graph) => graph,
        Err(e) => return Answer::rejected(&SynthesisError::from(e)),
    };
    // The options `synthesize` hands its resolve stage.
    let solve = CscSolveOptions {
        solver: options.solver,
        engine: options.engine,
        extra_signals: options.extra_signals,
        ..CscSolveOptions::default()
    };
    let resolved = timed(t, "core.resolve_us", || match spec.method {
        Method::Direct => direct_resolve_traced(&initial, &solve, tracer).map(|o| o.graph),
        _ => modular_resolve_jobs_traced(&initial, &solve, options.jobs, tracer).map(|o| o.graph),
    });
    let graph = match resolved {
        Ok(graph) => graph,
        Err(e) => return Answer::rejected(&e),
    };
    t.add("sg.final_states", graph.state_count() as f64);
    let functions = match timed(t, "logic.minimize_us", || {
        derive_logic_jobs_traced(&graph, options.minimize, options.jobs, tracer)
    }) {
        Ok(functions) => functions,
        Err(e) => return Answer::rejected(&e),
    };
    let specification = match timed(t, "sg.derive_us", || derive(&stg, &options.derive)) {
        Ok(graph) => graph,
        Err(e) => return Answer::broken(format!("oracle: {e}")),
    };
    let netlist = timed(t, "check.netlist_us", || gate_netlist(&graph, &functions));
    match certify_stages(t, &specification, &graph, &netlist) {
        Ok(()) => Answer::certified(
            total_literals(&functions),
            graph.signals().len() - initial.signals().len(),
        ),
        Err(e) => Answer::broken(format!("oracle: {e}")),
    }
}

/// `verify_solution`'s four judgements, in its order, each timed.
fn certify_stages(
    t: &mut Tally,
    specification: &StateGraph,
    graph: &StateGraph,
    netlist: &GateNetlist,
) -> Result<(), CheckError> {
    timed(t, "check.consistency_us", || check_consistency(graph))?;
    timed(t, "check.csc_us", || check_csc(graph))?;
    timed(t, "check.si_us", || {
        check_speed_independence(netlist, graph)
    })?;
    t.add(
        "check.equiv_states",
        (specification.state_count() + graph.state_count()) as f64,
    );
    timed(t, "check.equiv_us", || {
        check_equivalence(specification, graph)
    })
}

/// The `CORPUS_TIERS` tier of a specification with `states` states.
fn tier_of(states: usize) -> &'static str {
    CORPUS_TIERS
        .iter()
        .find(|(_, bound)| states < *bound)
        .map_or("large", |(name, _)| name)
}

/// One spec's row of the per-spec detail.
fn detail_record(spec: &Spec, tier: &str, answer: &Answer, tally: &Tally) -> Json {
    let mut layers = tally.clone();
    layers.finish();
    layers.attribute(tally.get("traced_wall_us"));
    Json::obj([
        ("spec", Json::from(spec.id.as_str())),
        ("method", Json::from(spec.method.to_string())),
        ("tier", Json::from(tier)),
        ("answer", Json::from(answer.label())),
        ("layers", layers.to_json()),
    ])
}

/// Times one spec through the whole pipeline until it has [`TIMINGS`]
/// timings or [`TIMED_MS`] of them, adding them to `times`; every repeat
/// must give the first answer.
fn time_spec(
    spec: &Spec,
    options: &SynthesisOptions,
    speed: &mut HostSpeed,
    times: &mut Vec<f64>,
    problems: &mut Vec<String>,
) -> Answer {
    let (answer, first_ms) = speed.time(|| whole(spec, options));
    let mut timed = vec![first_ms];
    while timed.len() < TIMINGS && timed.iter().sum::<f64>() < TIMED_MS {
        let (again, ms) = speed.time(|| whole(spec, options));
        if again != answer {
            problems.push(format!("{}: a repeat answered differently", spec.name()));
        }
        timed.push(ms);
    }
    times.extend(timed);
    answer
}

/// What the untraced passes measured; specs are in input-set order.
#[derive(Default)]
struct Measured {
    /// Each spec's scaled timings, in ms.
    timings: Vec<Vec<f64>>,
    /// Each spec's answer in the first pass.
    answers: Vec<Answer>,
    /// Scaled set-up timings, in ms.
    setup: Vec<f64>,
    speed: HostSpeed,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    misses: Vec<String>,
}

impl Measured {
    /// Counts one answer; `list` names a spec that missed its expectation
    /// (done once, in the first pass).
    fn count(&mut self, spec: &Spec, answer: &Answer, list: bool) {
        self.attempted += 1;
        let broken = matches!(answer.verdict, Verdict::Broken(_));
        self.failed += u64::from(broken);
        if list && !answer.meets(spec) {
            let list = if broken {
                &mut self.problems
            } else {
                &mut self.misses
            };
            list.push(format!("{}: {}", spec.name(), answer.label()));
        }
    }
}

/// Makes the untraced passes. The first pass times every spec; later
/// passes re-time the specs under [`RETIME_MS`] until [`measured_enough`].
/// Set-up and the host's speed are timed again after every spec, so that
/// their samples too are spread over the run.
fn untraced(
    specs: &[Spec],
    options: &SynthesisOptions,
    trace: bool,
    deadline: Instant,
) -> Measured {
    let mut measured = Measured {
        timings: vec![Vec::new(); specs.len()],
        ..Measured::default()
    };
    let mut passes = 0;
    loop {
        passes += 1;
        for (i, spec) in specs.iter().enumerate() {
            if passes > 1 && measured.timings[i][0] >= RETIME_MS {
                continue;
            }
            let answer = time_spec(
                spec,
                options,
                &mut measured.speed,
                &mut measured.timings[i],
                &mut measured.problems,
            );
            measured.setup.push(measured.speed.time(|| load(specs)).1);
            measured.count(spec, &answer, passes == 1);
            match measured.answers.get(i) {
                None => measured.answers.push(answer),
                Some(first) if *first != answer => {
                    let problem = format!(
                        "{}: pass {passes} answered {}, the first pass {}",
                        spec.name(),
                        answer.label(),
                        first.label()
                    );
                    measured.problems.push(problem);
                }
                Some(_) => {}
            }
        }
        if measured_enough(trace, passes, deadline) {
            return measured;
        }
    }
}

/// Runs a batch workload: the untraced passes (see [`untraced`]), and with
/// `trace` one traced pass after the first untraced one.
pub fn run(kind: Batch, args: &Args, trace: bool) -> Result<Outcome, String> {
    let specs = kind.specs(args.seed);
    let options = kind.options();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let measured = untraced(&specs, &options, trace, deadline);
    let mut out = Outcome::new(|name| name.starts_with("svc.") || name.starts_with("store."));
    out.attempted = measured.attempted;
    out.failed = measured.failed;
    out.problems = measured.problems;
    out.misses = measured.misses;
    let (first, timings) = (measured.answers, measured.timings);
    let mut speed = measured.speed;
    let certified = || first.iter().filter(|a| a.verdict == Verdict::Certified);
    let latency_ms: Vec<f64> = timings.iter().map(|times| median(times)).collect();
    out.values.set("setup_s", median(&measured.setup) / 1e3);
    out.values.set(
        "throughput_per_s",
        specs.len() as f64 / latency_ms.iter().sum::<f64>() * 1e3,
    );
    // Over the first pass, the one that answers every spec once.
    let ok = specs.iter().zip(&first).filter(|(spec, a)| a.meets(spec));
    out.values
        .set("ok_ratio", ok.count() as f64 / specs.len() as f64);
    out.values.set(
        "literals",
        certified().map(|a| a.literals).sum::<usize>() as f64,
    );
    out.values.set(
        "state_signals",
        certified().map(|a| a.state_signals).sum::<usize>() as f64,
    );
    out.values.set("peak_rss_mb", peak_rss_mb());
    out.latencies("latency_ms.p50", "latency_ms.tail", latency_ms);
    if trace {
        let mut layers = Tally::default();
        let mut detail = Vec::new();
        let mut tiers: BTreeMap<&str, Tally> = BTreeMap::new();
        let mut traced_ms = 0.0;
        let staged: Vec<(Answer, Tally)> = specs
            .iter()
            .map(|spec| {
                let (staged, ms) = speed.time(|| staged(spec, &options));
                traced_ms += ms;
                staged
            })
            .collect();
        // The first timing of every spec: the untraced pass's wall.
        let untraced_ms: f64 = timings.iter().map(|times| times[0]).sum();
        for ((spec, whole), (answer, tally)) in specs.iter().zip(&first).zip(&staged) {
            if answer != whole {
                out.problems.push(format!(
                    "{}: the stage calls answered {}, synthesize + certify_report {}",
                    spec.name(),
                    answer.label(),
                    whole.label()
                ));
            }
            layers.merge(tally);
            let tier = tier_of(tally.get("sg.states") as usize);
            let aggregate = tiers.entry(tier).or_default();
            aggregate.add("specs", 1.0);
            aggregate.merge(tally);
            detail.push(detail_record(spec, tier, answer, tally));
        }
        layers.finish();
        layers.attribute(layers.get("traced_wall_us"));
        layers.set("trace_overhead_ratio", traced_ms / untraced_ms);
        out.values.merge(&layers);
        let tiers = Json::obj(tiers.into_iter().map(|(tier, mut tally)| {
            tally.finish();
            (tier, tally.to_json())
        }));
        let doc = Json::obj([
            ("workload", Json::from(kind.name())),
            ("seed", Json::from(args.seed)),
            ("tiers", tiers),
            ("specs", Json::Arr(detail)),
        ]);
        out.detail = Some(write_detail(kind.name(), args.seed, &doc)?);
    }
    out.host = Some(speed);
    Ok(out)
}
