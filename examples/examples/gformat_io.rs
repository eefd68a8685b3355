//! Read an STG from the `.g` (astg) interchange format, synthesise it, and
//! write the specification back out — the workflow for STGs coming from
//! SIS or petrify.
//!
//! Run with: `cargo run -p modsyn-examples --example gformat_io`

use modsyn::{synthesize, Method, SynthesisOptions};
use modsyn_stg::{parse_g, write_g};

const SPEC: &str = "
.model converter
.inputs req
.outputs gate out
# A two-phase converter: the output gate pulses twice per request cycle.
.graph
req+ gate+
gate+ gate-
gate- out+
out+ req-
req- gate+/2
gate+/2 gate-/2
gate-/2 out-
out- req+
.marking { <out-,req+> }
.end
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let stg = parse_g(SPEC)?;
    println!("parsed {}: {} signals", stg.name(), stg.signal_count());
    stg.validate()?;

    let report = synthesize(&stg, &SynthesisOptions::for_method(Method::Modular))?;
    println!(
        "synthesised: {} -> {} signals, {} literals",
        report.initial_signals,
        report.final_signals(),
        report.literals
    );
    for f in &report.functions {
        println!("  {:6} = {}", f.name, f.sop);
    }

    println!("\nround-tripped specification:\n{}", write_g(&stg));
    Ok(())
}
