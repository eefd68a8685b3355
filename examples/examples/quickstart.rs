//! Quickstart: synthesise one benchmark STG and print everything the
//! library produces — the state graph statistics, the CSC conflicts, the
//! inserted state signals and the minimised logic.
//!
//! Run with: `cargo run -p modsyn-examples --example quickstart`

use modsyn::{synthesize, Method, SynthesisOptions};
use modsyn_sg::{derive, DeriveOptions};
use modsyn_stg::benchmarks;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Any STG works; `vbe-ex1` is the smallest benchmark with a genuine
    // complete-state-coding conflict.
    let stg = benchmarks::vbe_ex1();
    println!("input: {stg}");

    // Inspect the state graph before synthesis.
    let sg = derive(&stg, &DeriveOptions::default())?;
    let csc = sg.csc_analysis();
    println!(
        "state graph: {} states, {} edges; {} CSC conflict pair(s), lower bound {} state signal(s)",
        sg.state_count(),
        sg.edge_count(),
        csc.csc_pairs.len(),
        csc.lower_bound,
    );
    for &(a, b) in &csc.csc_pairs {
        println!(
            "  conflict: state {a} [{}] vs state {b} [{}]",
            sg.code_string(a),
            sg.code_string(b)
        );
    }

    // Run the paper's modular partitioning flow end to end.
    let report = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular))?;
    println!(
        "\nsynthesised with {} inserted state signal(s) in {:.3}s",
        report.inserted_signals(),
        report.cpu_seconds,
    );
    println!(
        "final graph: {} states, {} signals; two-level area {} literals",
        report.final_states(),
        report.final_signals(),
        report.literals,
    );
    println!("\nlogic functions (prime-irredundant SOP):");
    for f in &report.functions {
        println!("  {:8} = {}", f.name, f.sop);
    }
    Ok(())
}
