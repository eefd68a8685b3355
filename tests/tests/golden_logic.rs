//! Byte-identity guard for two-level minimisation.
//!
//! Pins an FNV-1a digest of every synthesised SOP (`name = sop` lines, in
//! function order) for the 19 small Table-1 rows under the modular method
//! and for a few xs/small corpus cases under the corpus contract, and of
//! the shared-PLA cover (`derive_logic_shared`: every term's cube and
//! output mask, in term order) of the same 19 rows. Any change to a cube
//! kernel, an espresso step, an iteration order or a tie-break that alters
//! a single cover shows here, even when the literal count happens to stay
//! the same.

use modsyn::{derive_logic_shared, synthesize, Engine, Method, SignalFunction, SynthesisOptions};
use modsyn_bench::small_rows;
use modsyn_corpus::corpus_case;
use modsyn_sat::SolverOptions;
use modsyn_stg::{benchmarks, Stg};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(functions: &[SignalFunction]) -> u64 {
    let text: String = functions
        .iter()
        .map(|f| format!("{} = {}\n", f.name, f.sop))
        .collect();
    fnv1a(text.as_bytes())
}

fn digest_of(stg: &Stg, options: &SynthesisOptions) -> u64 {
    let report = synthesize(stg, options).expect("pinned case synthesises");
    digest(&report.functions)
}

/// Digest of the shared-PLA cover of the synthesised graph: the output
/// names, then one `cube mask` line per term.
fn shared_digest_of(stg: &Stg, options: &SynthesisOptions) -> u64 {
    let report = synthesize(stg, options).expect("pinned case synthesises");
    let (shared, names) = derive_logic_shared(&report.graph).expect("graph satisfies CSC");
    let mut text = names.join(" ");
    text.push('\n');
    for term in shared.cubes() {
        text.push_str(&format!("{} {:x}\n", term.cube, term.outputs));
    }
    fnv1a(text.as_bytes())
}

/// Digests of the small Table-1 rows, modular method, default options.
const TABLE1_SMALL: [(&str, u64); 19] = [
    ("sbuf-ram-write", 0xca04_4716_d105_b82a),
    ("vbe4a", 0x7dbd_3d0c_29c6_9f8a),
    ("nak-pa", 0xc8f6_e6a8_87f6_bf6a),
    ("pe-rcv-ifc-fc", 0xde2f_ce41_a584_052a),
    ("ram-read-sbuf", 0x3235_1699_0b3b_708f),
    ("alex-nonfc", 0x4d05_490d_2364_d5a7),
    ("sbuf-send-pkt2", 0x0013_f1b9_9d1c_e131),
    ("sbuf-send-ctl", 0x10b6_0f7a_530b_256c),
    ("atod", 0x9ec3_1ac8_0cee_1b1a),
    ("pa", 0xf1eb_a2ee_4416_fd69),
    ("alloc-outbound", 0x900d_c67c_52a4_70a3),
    ("wrdata", 0xaef5_839a_9254_2ba1),
    ("fifo", 0xd7a4_78ef_d6f0_1b37),
    ("sbuf-read-ctl", 0xd636_6501_664d_2e8b),
    ("nouse", 0x84b0_d8a9_668c_d202),
    ("vbe-ex2", 0xaa62_114e_b45c_fcbc),
    ("nousc-ser", 0xc8ec_90d9_d6f8_9096),
    ("sendr-done", 0xc5c9_e696_e9ed_03cd),
    ("vbe-ex1", 0xc1ff_150a_0943_6279),
];

/// Shared-PLA digests of the small Table-1 rows, modular method, default
/// options.
const TABLE1_SMALL_SHARED: [(&str, u64); 19] = [
    ("sbuf-ram-write", 0x641c_23a2_b8f7_162d),
    ("vbe4a", 0x1614_8e41_539a_eb1d),
    ("nak-pa", 0x8b7f_e7c6_7404_af93),
    ("pe-rcv-ifc-fc", 0xe6fa_e112_d164_50cd),
    ("ram-read-sbuf", 0xe85e_0fca_f1be_9a07),
    ("alex-nonfc", 0xa16b_9a99_65a8_e582),
    ("sbuf-send-pkt2", 0x6cda_4568_0155_b0b8),
    ("sbuf-send-ctl", 0xb2d6_01a8_8f69_b954),
    ("atod", 0x788c_5970_4fee_ac6b),
    ("pa", 0x5abb_757b_8362_8f27),
    ("alloc-outbound", 0xa1bd_e265_0b99_1060),
    ("wrdata", 0xa618_f159_7de1_3c4e),
    ("fifo", 0x23f8_6cbc_e4af_f926),
    ("sbuf-read-ctl", 0xe4cf_52e5_a0ce_ff15),
    ("nouse", 0xcd13_0672_7d83_cb71),
    ("vbe-ex2", 0xfe51_2f03_6285_2ab5),
    ("nousc-ser", 0x38d9_0b97_1b87_8b10),
    ("sendr-done", 0xa4d6_393a_0fff_7f5b),
    ("vbe-ex1", 0xef32_82ba_e4d6_2527),
];

/// Digests of xs/small-tier corpus-stream cases (seed 7 is an
/// asymmetric-choice probe) under the corpus contract: modular,
/// `Engine::Dpll`, 40 k backtracks.
const CORPUS: [(u64, u64); 7] = [
    (1, 0xd73d_c87c_0c51_0a46),
    (2, 0x3ee0_74ee_1760_6262),
    (7, 0xcbcb_e918_23df_fb44),
    (8, 0xc70d_3f80_a0d4_71f1),
    (10, 0xfb3f_061b_903a_5e7c),
    (26, 0x49f8_f82d_cd0e_3912),
    (29, 0x877d_a753_2727_a3a7),
];

#[test]
fn table1_small_rows_keep_their_covers() {
    let rows = small_rows();
    assert_eq!(rows.len(), TABLE1_SMALL.len());
    let options = SynthesisOptions::for_method(Method::Modular);
    let got: Vec<(&str, u64)> = rows
        .iter()
        .map(|row| {
            let stg = benchmarks::by_name(row.name).expect("known benchmark");
            (row.name, digest_of(&stg, &options))
        })
        .collect();
    assert_eq!(got, TABLE1_SMALL, "cover digests moved");
}

#[test]
fn table1_small_rows_keep_their_shared_pla_covers() {
    let rows = small_rows();
    assert_eq!(rows.len(), TABLE1_SMALL_SHARED.len());
    let options = SynthesisOptions::for_method(Method::Modular);
    let got: Vec<(&str, u64)> = rows
        .iter()
        .map(|row| {
            let stg = benchmarks::by_name(row.name).expect("known benchmark");
            (row.name, shared_digest_of(&stg, &options))
        })
        .collect();
    assert_eq!(got, TABLE1_SMALL_SHARED, "shared-PLA digests moved");
}

#[test]
fn corpus_cases_keep_their_covers() {
    let mut options = SynthesisOptions::for_method(Method::Modular);
    options.engine = Engine::Dpll;
    options.solver = SolverOptions {
        max_backtracks: Some(40_000),
        ..SolverOptions::default()
    };
    let got: Vec<(u64, u64)> = CORPUS
        .iter()
        .map(|&(seed, _)| (seed, digest_of(&corpus_case(seed).0, &options)))
        .collect();
    assert_eq!(got, CORPUS, "cover digests moved");
}
