//! Search-identity guard for the SAT layer.
//!
//! Pins an FNV-1a digest of every CSC attempt a synthesis makes (`m`, the
//! formula's variables and clauses, the verdict and all nine
//! `SolverStats` counters, in attempt order) plus the final graph's state
//! codes, for the 19 small Table-1 rows under the modular and direct
//! methods with both engines, and for corpus-stream cases under the corpus
//! contract. Seeds 12 and 40 carry UNSAT proofs long enough to cross the
//! activity rescale. A change to a decision order, a tie-break, a watch
//! move or a learned clause shows here even when the verdicts and covers
//! stay the same; `golden_logic` is the cover-side twin of this file.
//!
//! Every digest is also computed at `jobs = 2`, where the modular flow
//! tries the signal counts after an unsatisfiable first one several at a
//! time: the attempts it records, and so the digests, must not move.

use modsyn::{synthesize, Engine, Method, SynthesisOptions, SynthesisReport};
use modsyn_bench::{small_rows, TABLE1_BACKTRACK_LIMIT};
use modsyn_corpus::corpus_case;
use modsyn_sat::SolverOptions;
use modsyn_stg::{benchmarks, Stg};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One line per attempt, then the final state codes; a failed synthesis
/// digests its error text instead.
fn digest(result: &Result<SynthesisReport, modsyn::SynthesisError>) -> u64 {
    let text = match result {
        Ok(report) => {
            let mut text: String = report
                .csc
                .formulas
                .iter()
                .map(|f| {
                    format!(
                        "m={} vars={} clauses={} sat={} {}\n",
                        f.state_signals, f.variables, f.clauses, f.satisfiable, f.solver
                    )
                })
                .collect();
            for code in report.csc.graph.codes() {
                text.push_str(&format!("{code:x} "));
            }
            text
        }
        Err(e) => format!("error: {e}"),
    };
    fnv1a(text.as_bytes())
}

fn options(method: Method, engine: Engine, limit: u64, jobs: usize) -> SynthesisOptions {
    let mut options = SynthesisOptions::for_method(method);
    options.engine = engine;
    options.jobs = jobs;
    options.solver = SolverOptions {
        max_backtracks: Some(limit),
        ..SolverOptions::default()
    };
    options
}

fn digest_of(stg: &Stg, options: &SynthesisOptions) -> u64 {
    digest(&synthesize(stg, options))
}

/// The four configurations each small row runs under, in table order.
const CONFIGS: [(Method, Engine); 4] = [
    (Method::Modular, Engine::Dpll),
    (Method::Modular, Engine::Cdcl),
    (Method::Direct, Engine::Dpll),
    (Method::Direct, Engine::Cdcl),
];

/// Digests of the small Table-1 rows at the Table-1 backtrack limit, one
/// per [`CONFIGS`] entry.
const TABLE1_SMALL: [(&str, [u64; 4]); 19] = [
    (
        "sbuf-ram-write",
        [
            0x3706_bca2_0022_02dd,
            0x88f6_1596_b7b2_0d68,
            0x6927_f5f6_b4aa_feee,
            0x334f_ef4d_9568_353e,
        ],
    ),
    (
        "vbe4a",
        [
            0x92f0_03bf_5ffc_902a,
            0x63cd_49c9_94ca_136f,
            0xc771_a708_a357_a8a8,
            0xea6d_fe57_4fbb_c917,
        ],
    ),
    (
        "nak-pa",
        [
            0x95b0_f05e_c721_2810,
            0x726c_48d5_4d7c_0fc3,
            0x6d6a_dfcd_61e0_4f9a,
            0x60dc_5bc6_4ef1_88c8,
        ],
    ),
    (
        "pe-rcv-ifc-fc",
        [
            0xae18_f980_aea8_1803,
            0x7020_1e45_6580_793a,
            0x844f_1a2a_c69b_746c,
            0xfb5d_026b_bc95_562e,
        ],
    ),
    (
        "ram-read-sbuf",
        [
            0x11da_a302_a04b_089d,
            0x478e_4e8d_1af7_ad0e,
            0xc9c7_3954_71b3_79f5,
            0x6067_937a_cfcc_94be,
        ],
    ),
    (
        "alex-nonfc",
        [
            0xa42d_c7a7_ab46_e2b4,
            0xa42d_c7a7_ab46_e2b4,
            0x1fd6_757f_6e42_1b4d,
            0x8746_353c_3ed9_7896,
        ],
    ),
    (
        "sbuf-send-pkt2",
        [
            0x9550_0eaa_a844_d720,
            0x473f_8b0c_3dfe_6ef2,
            0xdd09_0e90_7f65_0049,
            0x649e_a9e7_dace_c27e,
        ],
    ),
    (
        "sbuf-send-ctl",
        [
            0xef46_832a_32e6_b466,
            0xef68_99ef_1623_3280,
            0x042f_f713_7cab_0daa,
            0xd724_716e_cb13_0310,
        ],
    ),
    (
        "atod",
        [
            0xbb50_c1eb_7607_37cd,
            0x2813_ff46_8e8b_617c,
            0xc706_e0a8_e67f_8190,
            0x06bd_4a2d_1715_3140,
        ],
    ),
    (
        "pa",
        [
            0x0dc3_577c_3d16_7a5d,
            0x37bc_a176_eb9a_fcbe,
            0xecac_ce65_919e_a1dd,
            0xe0d1_2d32_0145_41c7,
        ],
    ),
    (
        "alloc-outbound",
        [
            0x390b_a762_73d5_c7fc,
            0xecc4_1a1f_872d_694a,
            0x31f9_c32a_3a3c_1741,
            0x7980_af30_2eb3_c8f4,
        ],
    ),
    (
        "wrdata",
        [
            0x3c94_050e_a150_5806,
            0x0ab3_4f10_2cb0_3ca5,
            0xf4c6_4e16_9e7f_07c2,
            0x6e7e_1dba_63cb_08ff,
        ],
    ),
    (
        "fifo",
        [
            0x316d_b817_0335_edbf,
            0xfd79_f96a_af2f_ed39,
            0x316d_b817_0335_edbf,
            0xfd79_f96a_af2f_ed39,
        ],
    ),
    (
        "sbuf-read-ctl",
        [
            0xee43_a587_8fd5_2649,
            0x2922_78e8_723d_0750,
            0xa866_41cf_6457_45af,
            0xaac4_dc99_7f94_c308,
        ],
    ),
    (
        "nouse",
        [
            0x40bc_ec3e_2f49_4c54,
            0x7d17_9285_1b08_adb1,
            0x40bc_ec3e_2f49_4c54,
            0x7d17_9285_1b08_adb1,
        ],
    ),
    (
        "vbe-ex2",
        [
            0x41a9_ee07_03c8_870b,
            0xdc02_2e50_7ba8_1bf7,
            0x41a9_ee07_03c8_870b,
            0xdc02_2e50_7ba8_1bf7,
        ],
    ),
    (
        "nousc-ser",
        [
            0x11e7_d3ca_a3fb_e530,
            0x11e7_d3ca_a3fb_e530,
            0x77bd_f2ac_bc62_6b5f,
            0x2153_9d23_9766_d979,
        ],
    ),
    (
        "sendr-done",
        [
            0x11e7_d3ca_a3fb_e530,
            0x11e7_d3ca_a3fb_e530,
            0x77bd_f2ac_bc62_6b5f,
            0x2153_9d23_9766_d979,
        ],
    ),
    (
        "vbe-ex1",
        [
            0x6696_0f37_7c3a_7ba1,
            0x6696_0f37_7c3a_7ba1,
            0x6696_0f37_7c3a_7ba1,
            0x6696_0f37_7c3a_7ba1,
        ],
    ),
];

/// Digests of corpus-stream cases under the corpus contract: modular,
/// `Engine::Dpll`, 40 k backtracks.
const CORPUS: [(u64, u64); 9] = [
    (1, 0xf149_d2d2_bb52_058e),
    (2, 0xdb83_3c39_ba4c_6e82),
    (7, 0xada4_141b_e6cf_ef4d),
    (8, 0xc673_deaf_1367_0ed3),
    (10, 0x550f_af6b_c1c8_776b),
    (12, 0xe3b2_3678_c7f8_dc49),
    (26, 0xaacc_5d96_f5eb_2773),
    (29, 0xa953_90af_4ee4_5766),
    (40, 0xb5ea_ff71_8101_f19b),
];

/// The small rows' digests under every [`CONFIGS`] entry at `jobs`.
fn table1_small_digests(jobs: usize) -> Vec<(&'static str, [u64; 4])> {
    small_rows()
        .iter()
        .map(|row| {
            let stg = benchmarks::by_name(row.name).expect("known benchmark");
            let digests = CONFIGS.map(|(method, engine)| {
                digest_of(&stg, &options(method, engine, TABLE1_BACKTRACK_LIMIT, jobs))
            });
            (row.name, digests)
        })
        .collect()
}

/// The corpus cases' digests at `jobs`.
fn corpus_digests(jobs: usize) -> Vec<(u64, u64)> {
    let options = options(Method::Modular, Engine::Dpll, 40_000, jobs);
    CORPUS
        .iter()
        .map(|&(seed, _)| (seed, digest_of(&corpus_case(seed).0, &options)))
        .collect()
}

#[test]
fn table1_small_rows_keep_their_searches() {
    assert_eq!(small_rows().len(), TABLE1_SMALL.len());
    assert_eq!(
        table1_small_digests(1),
        TABLE1_SMALL,
        "search digests moved"
    );
}

#[test]
fn corpus_cases_keep_their_searches() {
    assert_eq!(corpus_digests(1), CORPUS, "search digests moved");
}

#[test]
fn table1_small_rows_keep_their_searches_at_two_jobs() {
    assert_eq!(
        table1_small_digests(2),
        TABLE1_SMALL,
        "search digests moved"
    );
}

#[test]
fn corpus_cases_keep_their_searches_at_two_jobs() {
    assert_eq!(corpus_digests(2), CORPUS, "search digests moved");
}
