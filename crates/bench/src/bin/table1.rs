//! Regenerates the paper's Table 1 (experiment E1).
//!
//! For every benchmark, runs the modular method, the direct (Vanbekbergen)
//! method and the Lavagno-style method under the standard backtrack limit,
//! and prints our measurement next to the paper's number.
//!
//! Run with:
//! `cargo run -p modsyn-bench --release --bin table1 [limit] [--jobs N] [--small]`
//!
//! `--jobs N` (default 1) additionally re-runs the table on N threads
//! and reports the wall-clock comparison; `--small` restricts the run
//! to the rows with fewer than 80 initial states (the CI smoke subset).
//!
//! Besides the text table, writes every measurement as machine-readable
//! records to `BENCH_table1.json` in the current directory; with
//! `--jobs N > 1` the document gains a `parallel` section with per-row and
//! total wall clocks for jobs=1 vs jobs=N.

use std::process::ExitCode;

use modsyn_bench::{
    paper_row, parallel_json, run_rows, small_rows, table1_json_with_parallel, Measured,
    PaperOutcome, PaperRow, PAPER_TABLE1, TABLE1_BACKTRACK_LIMIT,
};

fn paper_cell(outcome: &PaperOutcome) -> String {
    match outcome {
        PaperOutcome::Solved {
            final_signals,
            literals,
            cpu,
        } => {
            format!("{final_signals} sig / {literals} lit / {cpu}s")
        }
        PaperOutcome::BacktrackLimit { cpu: Some(c) } => format!("SAT Backtrack Limit ({c}s)"),
        PaperOutcome::BacktrackLimit { cpu: None } => "SAT Backtrack Limit (> 3600s)".into(),
        PaperOutcome::InternalStateError => "Internal State Error*".into(),
        PaperOutcome::NonFreeChoice => "Non-Free-Choice STG".into(),
    }
}

struct Args {
    limit: u64,
    jobs: usize,
    small: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        limit: TABLE1_BACKTRACK_LIMIT,
        jobs: 1,
        small: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| "bad --jobs value".to_string())?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--small" => args.small = true,
            other => {
                args.limit = other.parse().map_err(|_| {
                    format!("usage: table1 [limit] [--jobs N] [--small] (got {other:?})")
                })?;
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let limit = args.limit;
    let selected: Vec<PaperRow> = if args.small {
        small_rows()
    } else {
        PAPER_TABLE1.to_vec()
    };

    println!("Table 1 reproduction (backtrack limit {limit}); paper values in parentheses.\n");
    println!(
        "{:<16} {:>6} {:>4} | {:<44} | {:<44} | {:<44}",
        "STG",
        "states",
        "sig",
        "Our Method (Decomposition)",
        "Vanbekbergen et al. (No Decomposition)",
        "Lavagno and Moon et al."
    );
    println!("{}", "-".repeat(170));

    let sequential = run_rows(limit, 1, &selected);
    let rows = &sequential.rows;
    for (name, modular, direct, lavagno) in rows {
        let paper = paper_row(name).expect("row exists");
        println!(
            "{:<16} {:>6} {:>4} | {:<44} | {:<44} | {:<44}",
            name,
            paper.initial_states,
            paper.initial_signals,
            format!(
                "{} ({} sig / {} lit / {}s)",
                modular.cell(),
                paper.ours.1,
                paper.ours.2,
                paper.ours.3
            ),
            format!("{} ({})", direct.cell(), paper_cell(&paper.direct)),
            format!("{} ({})", lavagno.cell(), paper_cell(&paper.lavagno)),
        );
    }

    println!("\nsummary:");
    println!("  modular vs direct wall-clock on the large rows (direct time is time-to-abort when it hit the limit):");
    for (name, modular, direct, _) in rows {
        let Some(m) = modular.cpu() else { continue };
        let Some(d) = direct.cpu() else { continue };
        if d < 0.05 {
            continue; // too small to compare meaningfully
        }
        let aborted = matches!(direct, Measured::BacktrackLimit { .. });
        println!(
            "    {name:<16} modular {m:>7.3}s vs direct {d:>7.3}s{} -> {:.0}x",
            if aborted { " (abort)" } else { "" },
            d / m.max(1e-4)
        );
    }
    let direct_aborts: Vec<&str> = rows
        .iter()
        .filter(|(_, _, d, _)| matches!(d, Measured::BacktrackLimit { .. }))
        .map(|(n, ..)| *n)
        .collect();
    println!(
        "  direct aborted on: {direct_aborts:?} (paper: [\"mr0\", \"mr1\", \"mmu0\", \"mmu1\"])"
    );
    let lavagno_errors: Vec<(&str, String)> = rows
        .iter()
        .filter_map(|(n, _, _, l)| match l {
            Measured::NotFreeChoice | Measured::StateSplittingRequired => Some((*n, l.cell())),
            _ => None,
        })
        .collect();
    println!(
        "  lavagno-style rejections: {lavagno_errors:?} (paper: alex-nonfc non-FC; mmu0, pa internal state error)"
    );

    let parallel = if args.jobs > 1 {
        println!(
            "\nparallel: re-running the table on {} threads...",
            args.jobs
        );
        let pooled = run_rows(limit, args.jobs, &selected);
        println!(
            "  jobs=1 total {:>7.2}s vs jobs={} total {:>7.2}s -> {:.2}x",
            sequential.total_wall_s,
            args.jobs,
            pooled.total_wall_s,
            sequential.total_wall_s / pooled.total_wall_s.max(1e-9),
        );
        Some(parallel_json(args.jobs, &sequential, &pooled))
    } else {
        None
    };

    let json = table1_json_with_parallel(limit, rows, parallel);
    match std::fs::write("BENCH_table1.json", json.pretty()) {
        Ok(()) => {
            println!("\nwrote BENCH_table1.json ({} records)", 3 * rows.len());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: cannot write BENCH_table1.json: {e}");
            ExitCode::FAILURE
        }
    }
}
