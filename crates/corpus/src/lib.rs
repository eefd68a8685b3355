//! Compositional benchmark-corpus engine.
//!
//! The paper's Table-1 evaluation covers 23 hand-picked STGs; this crate
//! manufactures *thousands*, with their key properties guaranteed by
//! construction rather than by luck:
//!
//! * [`compose`] grows large STGs from small certified leaves via
//!   **articulation** (sequential glue through fresh articulation outputs)
//!   and **synchronous products** (concurrent bodies joined by a rendezvous
//!   pulse), Devillers-style: liveness, 1-safety and the free-choice class
//!   bound are inherited from the leaves, and every case carries a
//!   [`Certificate`] that [`check_certificate`] spot-checks against the
//!   independent `modsyn-check` oracle.
//! * [`asym`] draws live safe **asymmetric-choice** probes (Wimmel's class,
//!   one structural tier beyond free choice) that exist to be *rejected,
//!   typed* — they pin the exact boundary where the paper's theory stops.
//! * [`skeleton`] derives STGs from concurrent-program skeletons: channel
//!   rendezvous, staged pipelines, mutex pairs, fork/join barriers.
//! * [`Rejection`] (defined in `modsyn`, re-exported here) is the closed
//!   rejection taxonomy, the same one the serving layer's 422s carry, and
//!   [`verdict`] runs cases through the synthesis methods enforcing the
//!   three-valued contract: certified, typed rejection, or violation — no
//!   panics, no silent wrong answers.
//!
//! The `corpus` binary in `modsyn-bench` drives seed sweeps through this
//! crate into `BENCH_corpus.json`, guarded by `benchguard --corpus-only`.

pub mod asym;
pub mod compose;
pub mod skeleton;
pub mod verdict;

pub use asym::{gen_asym, is_asymmetric_choice, AsymRecipe};
pub use compose::{
    check_certificate, gen_corpus, Certificate, CertificateViolation, CorpusNode, CorpusRecipe,
    Unit,
};
pub use modsyn::Rejection;
pub use skeleton::Skeleton;
pub use verdict::{evaluate_case, CaseReport, EvalOptions, Expectation, MethodOutcome, Verdict};

/// The mixed corpus stream: seeds `0..count` with every eighth case an
/// asymmetric-choice probe, the rest composed in-theory cases. This is the
/// single source of truth the bench bin, the CI smoke job and the
/// integration tests all draw from, so their numbers agree.
pub fn corpus_case(seed: u64) -> (modsyn_stg::Stg, Expectation) {
    if seed % 8 == 7 {
        (gen_asym(seed).build(), Expectation::BeyondTheory)
    } else {
        (gen_corpus(seed).build().0, Expectation::InTheory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_stream_mixes_expectations() {
        let cases: Vec<Expectation> = (0..16).map(|s| corpus_case(s).1).collect();
        assert_eq!(
            cases
                .iter()
                .filter(|e| **e == Expectation::BeyondTheory)
                .count(),
            2
        );
        assert_eq!(corpus_case(7).1, Expectation::BeyondTheory);
        assert_eq!(corpus_case(0).1, Expectation::InTheory);
    }

    #[test]
    fn corpus_stream_is_deterministic() {
        for seed in 0..12 {
            assert_eq!(corpus_case(seed).0, corpus_case(seed).0);
        }
    }
}
