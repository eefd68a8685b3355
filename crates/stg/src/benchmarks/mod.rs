//! The Table-1 benchmark suite.
//!
//! The paper evaluates on 23 STG benchmarks (the HP benchmarks plus
//! classics like `mr0`/`mmu0`). The original `.g` files are not
//! redistributable here, so each benchmark is a **synthetic stand-in**
//! constructed with the [`crate::StgBuilder`] DSL:
//!
//! * the *signal count* matches the paper's "initial no. of signal" column
//!   exactly,
//! * the *state count* lands in the same band as the paper's "initial no.
//!   of states" column (recorded per row in EXPERIMENTS.md),
//! * the *structure class* matches where the paper depends on it
//!   (`alex-nonfc` is non-free-choice; the rest are marked graphs or live
//!   safe free-choice nets),
//! * each has genuine CSC conflicts, so state-signal insertion is exercised
//!   end to end.
//!
//! ```
//! use modsyn_stg::benchmarks;
//! let all = benchmarks::all();
//! assert_eq!(all.len(), 23);
//! let stg = benchmarks::by_name("vbe-ex1").expect("known benchmark");
//! assert_eq!(stg.signal_count(), 2);
//! ```

mod large;
mod medium;
mod small;

pub use large::{mmu0, mmu1, mr0, mr1, sbuf_ram_write, vbe4a};
pub use medium::{
    alex_nonfc, alloc_outbound, atod, nak_pa, pa, pe_rcv_ifc_fc, ram_read_sbuf, sbuf_read_ctl,
    sbuf_send_ctl, sbuf_send_pkt2, wrdata,
};
pub use small::{fifo, nousc_ser, nouse, sendr_done, vbe_ex1, vbe_ex2};

use crate::Stg;

/// Builds every benchmark, in Table-1 row order.
pub fn all() -> Vec<(&'static str, Stg)> {
    vec![
        ("mr0", mr0()),
        ("mr1", mr1()),
        ("mmu0", mmu0()),
        ("mmu1", mmu1()),
        ("sbuf-ram-write", sbuf_ram_write()),
        ("vbe4a", vbe4a()),
        ("nak-pa", nak_pa()),
        ("pe-rcv-ifc-fc", pe_rcv_ifc_fc()),
        ("ram-read-sbuf", ram_read_sbuf()),
        ("alex-nonfc", alex_nonfc()),
        ("sbuf-send-pkt2", sbuf_send_pkt2()),
        ("sbuf-send-ctl", sbuf_send_ctl()),
        ("atod", atod()),
        ("pa", pa()),
        ("alloc-outbound", alloc_outbound()),
        ("wrdata", wrdata()),
        ("fifo", fifo()),
        ("sbuf-read-ctl", sbuf_read_ctl()),
        ("nouse", nouse()),
        ("vbe-ex2", vbe_ex2()),
        ("nousc-ser", nousc_ser()),
        ("sendr-done", sendr_done()),
        ("vbe-ex1", vbe_ex1()),
    ]
}

/// Builds one benchmark by its Table-1 name.
pub fn by_name(name: &str) -> Option<Stg> {
    all().into_iter().find(|(n, _)| *n == name).map(|(_, s)| s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_petri::ReachabilityOptions;

    #[test]
    fn every_benchmark_is_structurally_valid() {
        for (name, stg) in all() {
            stg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn every_benchmark_is_live_and_safe() {
        for (name, stg) in all() {
            let g = stg
                .net()
                .reachability(&ReachabilityOptions::default())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(g.is_safe(), "{name}: not 1-safe");
            assert!(g.deadlocks().is_empty(), "{name}: deadlock");
        }
    }

    #[test]
    fn by_name_misses_gracefully() {
        assert!(by_name("not-a-benchmark").is_none());
    }
}
