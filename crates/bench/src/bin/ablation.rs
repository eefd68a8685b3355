//! Ablation studies (experiments A1/A2/A3, not tabulated in the paper).
//!
//! * A1 — decomposition: formula sizes of the modular flow vs the direct
//!   encoding across every benchmark.
//! * A2 — SAT engine: the two engines (`dpll`, `cdcl`) vs chronological
//!   branch-and-bound under two branching heuristics, on the direct
//!   encodings, every column through the engine dispatch.
//! * A3 — assignment extraction: SAT's first model vs the BDD's
//!   minimum-excitation model (the paper conclusion's area refinement).
//!
//! Run with: `cargo run -p modsyn-bench --release --bin ablation [--jobs N]`
//!
//! `--jobs N` fans the per-benchmark measurements of A1 and A3 over N
//! worker threads (the print order is unchanged — results are joined in
//! input order).
//!
//! The A1 (formula sizes) and A3 (assignment extraction) measurements are
//! also written as machine-readable records to `BENCH_ablation.json`.

use modsyn::{
    encode_csc, modular_resolve, synthesize, CscSolveOptions, Engine, Method, SynthesisOptions,
};
use modsyn_fault::Faults;
use modsyn_obs::Json;
use modsyn_par::{par_map, unwrap_or_resume, CancelToken};
use modsyn_sat::{solve_with_engine, Heuristic, Outcome, SolverOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::benchmarks;

fn parse_jobs() -> usize {
    let mut jobs = 1;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--jobs" {
            jobs = it
                .next()
                .and_then(|v| v.parse().ok())
                .filter(|&j| j >= 1)
                .unwrap_or_else(|| {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(1);
                });
        } else {
            eprintln!("usage: ablation [--jobs N] (got {arg:?})");
            std::process::exit(1);
        }
    }
    jobs
}

fn main() {
    let jobs = parse_jobs();
    let all = benchmarks::all();

    let mut a1_records: Vec<Json> = Vec::new();
    println!("A1: decomposition ablation — largest SAT instance solved\n");
    println!(
        "{:<16} {:>14} {:>14} {:>8}",
        "STG", "modular (cls)", "direct (cls)", "ratio"
    );
    let a1_measured: Vec<(Option<usize>, usize)> = par_map(jobs, &all, |_, (_, stg)| {
        let sg = derive(stg, &DeriveOptions::default()).expect("derives");
        let analysis = sg.csc_analysis();
        let direct = encode_csc(&sg, &analysis, analysis.lower_bound.max(1));
        let largest = modular_resolve(&sg, &CscSolveOptions::default())
            .ok()
            .and_then(|o| o.formulas.iter().map(|f| f.clauses).max());
        (largest, direct.formula.clause_count())
    })
    .into_iter()
    .map(unwrap_or_resume)
    .collect();
    for ((name, _), (largest, direct_clauses)) in all.iter().zip(a1_measured) {
        let name = *name;
        match largest {
            Some(c) => {
                let ratio = direct_clauses as f64 / c.max(1) as f64;
                println!("{name:<16} {c:>14} {direct_clauses:>14} {ratio:>7.1}x");
                a1_records.push(Json::obj([
                    ("benchmark", Json::from(name)),
                    ("modular_largest_clauses", Json::from(c)),
                    ("direct_clauses", Json::from(direct_clauses)),
                    ("ratio", Json::from(ratio)),
                ]));
            }
            None => {
                println!("{name:<16} {:>14} {direct_clauses:>14}", "-");
                a1_records.push(Json::obj([
                    ("benchmark", Json::from(name)),
                    ("modular_largest_clauses", Json::Null),
                    ("direct_clauses", Json::from(direct_clauses)),
                ]));
            }
        }
    }

    println!("\nA2: SAT engine ablation on direct encodings (backtracks to verdict, limit 50k)\n");
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>12}",
        "STG", "dpll", "cdcl", "chrono-jw", "chrono-first"
    );
    let defaults = SolverOptions {
        max_backtracks: Some(50_000),
        ..SolverOptions::default()
    };
    let chrono = |heuristic| SolverOptions {
        heuristic,
        learning: false,
        max_backtracks: Some(50_000),
    };
    let columns = [
        (Engine::Dpll, defaults),
        (Engine::Cdcl, defaults),
        (Engine::Dpll, chrono(Heuristic::JeroslowWang)),
        (Engine::Dpll, chrono(Heuristic::FirstUnassigned)),
    ];
    for name in ["mmu1", "vbe4a", "pa", "wrdata", "nouse", "vbe-ex2"] {
        let stg = benchmarks::by_name(name).expect("known");
        let sg = derive(&stg, &DeriveOptions::default()).expect("derives");
        let analysis = sg.csc_analysis();
        let m = analysis.lower_bound.max(1);
        let encoding = encode_csc(&sg, &analysis, m);
        let cells: Vec<String> = columns
            .iter()
            .map(|&(engine, options)| {
                let (outcome, stats) = solve_with_engine(
                    engine,
                    &encoding.formula,
                    options,
                    &CancelToken::never(),
                    &Faults::none(),
                );
                match outcome {
                    Outcome::Satisfiable(_) => format!("{}", stats.backtracks),
                    Outcome::Unsatisfiable => format!("{} (unsat)", stats.backtracks),
                    _ => "limit".to_string(),
                }
            })
            .collect();
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>12}",
            name, cells[0], cells[1], cells[2], cells[3]
        );
    }

    println!("\nA4: PLA sharing — per-output covers vs shared product terms\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "STG", "so-terms", "shared-terms", "so-lits", "shared-lits"
    );
    for (name, stg) in benchmarks::all() {
        let Ok(sg) = derive(&stg, &DeriveOptions::default()) else {
            continue;
        };
        let Ok(out) = modular_resolve(&sg, &CscSolveOptions::default()) else {
            continue;
        };
        let Ok(functions) = modsyn::derive_logic(&out.graph) else {
            continue;
        };
        let Ok((shared, _)) = modsyn::derive_logic_shared(&out.graph) else {
            continue;
        };
        let so_terms: usize = functions.iter().map(|f| f.sop.cover().cube_count()).sum();
        let so_lits: usize = functions.iter().map(|f| f.literals).sum();
        println!(
            "{:<16} {:>10} {:>12} {:>12} {:>10}",
            name,
            so_terms,
            shared.term_count(),
            so_lits,
            shared.input_literal_count()
        );
    }

    println!(
        "\nA3: assignment extraction — SAT first-model vs BDD minimum-excitation (literals)\n"
    );
    println!(
        "{:<16} {:>10} {:>14} {:>8}",
        "STG", "sat-pick", "bdd-min-area", "delta"
    );
    let mut a3_records: Vec<Json> = Vec::new();
    let a3_measured: Vec<Option<(usize, usize)>> = par_map(jobs, &all, |_, (_, stg)| {
        let a = synthesize(stg, &SynthesisOptions::for_method(Method::Modular));
        let b = synthesize(stg, &SynthesisOptions::for_method(Method::ModularMinArea));
        match (a, b) {
            (Ok(a), Ok(b)) => Some((a.literals, b.literals)),
            _ => None,
        }
    })
    .into_iter()
    .map(unwrap_or_resume)
    .collect();
    for ((name, _), measured) in all.iter().zip(a3_measured) {
        let Some((sat_pick, bdd_min)) = measured else {
            continue;
        };
        let name = *name;
        let delta = bdd_min as i64 - sat_pick as i64;
        println!("{name:<16} {sat_pick:>10} {bdd_min:>14} {delta:>+8}");
        a3_records.push(Json::obj([
            ("benchmark", Json::from(name)),
            ("sat_pick_literals", Json::from(sat_pick)),
            ("bdd_min_area_literals", Json::from(bdd_min)),
            ("delta", Json::from(delta)),
        ]));
    }

    let json = Json::obj([
        ("version", Json::from(1u64)),
        ("a1_decomposition", Json::Arr(a1_records)),
        ("a3_assignment_extraction", Json::Arr(a3_records)),
    ]);
    match std::fs::write("BENCH_ablation.json", json.pretty()) {
        Ok(()) => println!("\nwrote BENCH_ablation.json"),
        Err(e) => eprintln!("error: cannot write BENCH_ablation.json: {e}"),
    }
}
