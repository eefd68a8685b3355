//! Compare the three CSC-resolution methods on one benchmark — the
//! experiment behind each row of the paper's Table 1.
//!
//! Run with:
//! `cargo run --release -p modsyn-examples --example method_comparison [benchmark]`

use modsyn::{synthesize, Method, SynthesisError, SynthesisOptions};
use modsyn_sat::SolverOptions;
use modsyn_stg::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "mmu1".to_string());
    let stg = benchmarks::by_name(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?}; see modsyn_stg::benchmarks"))?;

    println!("benchmark {name}: {stg}");
    for method in [Method::Modular, Method::Direct, Method::Lavagno] {
        let mut options = SynthesisOptions::for_method(method);
        // The backtrack limit plays the role of the paper's SIS abort.
        options.solver = SolverOptions {
            max_backtracks: Some(20_000),
            ..SolverOptions::default()
        };
        let started = std::time::Instant::now();
        match synthesize(&stg, &options) {
            Ok(report) => {
                println!(
                    "  {method:8} {:>3} final signals, {:>4} literals, {} formulas, {:.3}s",
                    report.final_signals(),
                    report.literals,
                    report.csc.formulas.len(),
                    started.elapsed().as_secs_f64(),
                );
                for f in &report.csc.formulas {
                    println!(
                        "           formula: {} state signals, {} vars, {} clauses -> {}",
                        f.state_signals,
                        f.variables,
                        f.clauses,
                        if f.satisfiable { "sat" } else { "unsat" }
                    );
                }
            }
            Err(SynthesisError::BacktrackLimit { state_signals, elapsed }) => println!(
                "  {method:8} aborted at the SAT backtrack limit ({state_signals} signals, {elapsed:.2}s) — the paper's Table-1 abort"
            ),
            Err(e) => println!("  {method:8} failed: {e}"),
        }
    }
    Ok(())
}
