//! Regenerates the paper's average-area claim (experiment E3).
//!
//! The paper: "On average, our modular partitioning algorithm reduces the
//! two-level implementation area by 12% than that of the Vanbekbergen's
//! direct synthesis method. As compared to Lavagno et al.'s algorithm, we
//! obtained an average area improvement of 9%."
//!
//! Run with: `cargo run -p modsyn-bench --release --bin area_summary [limit]`

use modsyn_bench::{run_rows, Measured, PAPER_TABLE1, TABLE1_BACKTRACK_LIMIT};

fn improvement(
    rows: &[(&str, Measured, Measured, Measured)],
    pick: impl Fn(&(&str, Measured, Measured, Measured)) -> (Option<usize>, Option<usize>),
) -> (f64, usize) {
    let mut total = 0.0f64;
    let mut counted = 0usize;
    for row in rows {
        let (ours, theirs) = pick(row);
        if let (Some(a), Some(b)) = (ours, theirs) {
            if b > 0 {
                total += 1.0 - a as f64 / b as f64;
                counted += 1;
            }
        }
    }
    (
        if counted > 0 {
            100.0 * total / counted as f64
        } else {
            0.0
        },
        counted,
    )
}

fn main() {
    let limit: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(TABLE1_BACKTRACK_LIMIT);
    let rows = run_rows(limit, 1, &PAPER_TABLE1).rows;

    println!("two-level area (literals of the prime-irredundant cover):\n");
    println!(
        "{:<16} {:>8} {:>8} {:>8}",
        "STG", "modular", "direct", "lavagno"
    );
    for (name, m, d, l) in &rows {
        println!(
            "{:<16} {:>8} {:>8} {:>8}",
            name,
            m.literals().map_or("-".into(), |v| v.to_string()),
            d.literals().map_or("-".into(), |v| v.to_string()),
            l.literals().map_or("-".into(), |v| v.to_string()),
        );
    }

    let (vs_direct, n_direct) = improvement(&rows, |(_, m, d, _)| (m.literals(), d.literals()));
    let (vs_lavagno, n_lavagno) = improvement(&rows, |(_, m, _, l)| (m.literals(), l.literals()));
    println!(
        "\naverage area improvement vs direct:  {vs_direct:+.1}% over {n_direct} comparable rows (paper: 12%)"
    );
    println!(
        "average area improvement vs lavagno: {vs_lavagno:+.1}% over {n_lavagno} comparable rows (paper: 9%)"
    );
}
