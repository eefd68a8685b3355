//! Content-addressed STG identity: FNV-1a over the canonical `.g` text.
//!
//! The serving layer (`modsyn-svc`) caches synthesis results by *what the
//! STG is*, not by the bytes the client happened to send: two `.g`
//! documents that differ only in whitespace, arc ordering inside a line,
//! or transition-instance spelling must map to the same cache entry. The
//! canonical form is [`crate::write_g`]'s output — `parse ∘ write` is a
//! fixpoint (property-tested over every Table-1 benchmark plus generated
//! STGs), so hashing the written text gives a stable, structure-derived
//! key.
//!
//! The hash is 64-bit FNV-1a ([`modsyn_fault::fnv1a64`]): tiny,
//! dependency-free, and fast on short inputs. It is a *cache key*, not a
//! cryptographic commitment — collision resistance against adversarial
//! inputs is explicitly out of scope (the service double-checks nothing on
//! a hit beyond the key).

use std::collections::BTreeSet;

use modsyn_fault::fnv1a64;

use crate::{write_g, SignalId, Stg};

/// The canonical content digest of an STG: [`fnv1a64`] over the canonical
/// [`write_g`] rendering.
///
/// Equal digests ⇔ equal canonical `.g` text, so any two parse trees of
/// the same net (regardless of source formatting) share a digest, and the
/// digest survives a round trip through `write_g`/`parse_g` unchanged.
///
/// ```
/// use modsyn_stg::{parse_g, stg_digest, write_g};
/// # fn main() -> Result<(), modsyn_stg::StgError> {
/// let a = parse_g(".model m\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n")?;
/// // Same net, different formatting: extra blank lines and spacing.
/// let b = parse_g(".model m\n\n.inputs  a\n.outputs  b\n.graph\n\na+  b+\nb+  a-\na-  b-\nb-  a+\n.marking  { <b-,a+> }\n.end\n")?;
/// assert_eq!(stg_digest(&a), stg_digest(&b));
/// let round = parse_g(&write_g(&a))?;
/// assert_eq!(stg_digest(&a), stg_digest(&round));
/// # Ok(())
/// # }
/// ```
pub fn stg_digest(stg: &Stg) -> u64 {
    fnv1a64(write_g(stg).as_bytes())
}

/// The content digest of one *module projection* of an STG: the behaviour
/// visible to the `kept` signals, with everything else treated as hidden.
///
/// The projection renders, per kept-signal transition, the set of kept
/// transitions reachable through hidden transitions and places (the
/// module's causal skeleton), plus which kept transitions the initial
/// marking enables through hidden structure. Two STGs that agree on a
/// module's projection agree on this digest, so an edit's blast radius can
/// be predicted *at the STG level* — before deriving a single state graph —
/// by comparing per-output digests (see [`output_module_digests`]).
///
/// This is a fast, conservative change predictor, not the reuse key: the
/// synthesis store keys cached module solves by the exact quotient state
/// graph, which is what actually guarantees byte-identical replay.
pub fn module_digest(stg: &Stg, kept: &BTreeSet<SignalId>) -> u64 {
    use std::fmt::Write;

    let net = stg.net();
    let is_kept =
        |t: modsyn_petri::TransitionId| stg.label(t).is_some_and(|l| kept.contains(&l.signal));

    // Kept transitions reachable from `start` places, walking forward
    // through hidden transitions until the first kept transition on each
    // path.
    let reachable_kept = |start: &[modsyn_petri::PlaceId]| -> Vec<String> {
        let mut seen_t: BTreeSet<usize> = BTreeSet::new();
        let mut seen_p: BTreeSet<usize> = BTreeSet::new();
        let mut found: BTreeSet<String> = BTreeSet::new();
        let mut queue: Vec<modsyn_petri::PlaceId> = start.to_vec();
        while let Some(p) = queue.pop() {
            if !seen_p.insert(p.index()) {
                continue;
            }
            for &t in net.place(p).fanout() {
                if !seen_t.insert(t.index()) {
                    continue;
                }
                if is_kept(t) {
                    found.insert(net.transition(t).name().to_string());
                } else {
                    queue.extend(net.transition(t).fanout().iter().copied());
                }
            }
        }
        found.into_iter().collect()
    };

    let mut text = String::from("module/v1\n");
    for &s in kept {
        let info = stg.signal(s);
        let _ = writeln!(text, "k {} {}", info.name(), info.kind());
    }
    for t in net.transition_ids() {
        if !is_kept(t) {
            continue;
        }
        let succs = reachable_kept(net.transition(t).fanout());
        let _ = writeln!(text, "t {} > {}", net.transition(t).name(), succs.join(" "));
    }
    let mut marked: BTreeSet<String> = BTreeSet::new();
    for p in net.place_ids() {
        let tokens = net.place(p).initial_tokens();
        if tokens > 0 {
            for name in reachable_kept(&[p]) {
                marked.insert(format!("{name} {tokens}"));
            }
        }
    }
    for m in &marked {
        let _ = writeln!(text, "m {m}");
    }
    fnv1a64(text.as_bytes())
}

/// Per-module digests for every non-input signal: `(signal name,`
/// [`module_digest`] over `{signal} ∪ immediate_inputs(signal))`, in signal
/// order — one entry per module of the paper's partition.
pub fn output_module_digests(stg: &Stg) -> Vec<(String, u64)> {
    stg.non_input_signals()
        .into_iter()
        .map(|s| {
            let mut kept = stg.immediate_inputs(s);
            kept.insert(s);
            (stg.signal(s).name().to_string(), module_digest(stg, &kept))
        })
        .collect()
}

/// Folds the per-module digests of [`output_module_digests`] into one
/// per-STG value (pinned per Table-1 row to catch projection drift).
pub fn combined_module_digest(stg: &Stg) -> u64 {
    let mut text = String::new();
    for (name, digest) in output_module_digests(stg) {
        text.push_str(&name);
        text.push(':');
        text.push_str(&format!("{digest:016x}"));
        text.push('\n');
    }
    fnv1a64(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{benchmarks, parse_g};

    #[test]
    fn digest_is_stable_across_roundtrip() {
        for (name, stg) in benchmarks::all() {
            let again = parse_g(&crate::write_g(&stg)).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(stg_digest(&stg), stg_digest(&again), "{name}");
        }
    }

    /// Cache keys must not drift silently: any change to `write_g`'s
    /// canonical rendering (or to a benchmark generator) invalidates every
    /// persisted digest, so it has to be a *deliberate* change that updates
    /// these pinned values in the same commit.
    #[test]
    fn table1_digests_are_pinned() {
        let pinned: &[(&str, u64)] = &PINNED;
        let all = benchmarks::all();
        assert_eq!(all.len(), pinned.len());
        for ((name, stg), (pin_name, pin)) in all.iter().zip(pinned) {
            assert_eq!(name, pin_name);
            assert_eq!(
                stg_digest(stg),
                *pin,
                "{name}: canonical digest drifted (write_g or the generator changed; \
                 if intentional, re-pin with `cargo test -p modsyn-stg digest -- --nocapture`)"
            );
        }
    }

    // Regenerate with the `print_digests` test below (`--ignored --nocapture`).
    const PINNED: [(&str, u64); 23] = [
        ("mr0", 0xa09b_8a5e_bd27_71ec),
        ("mr1", 0x24fb_3669_fc42_3129),
        ("mmu0", 0x5bb9_8208_4e3b_c495),
        ("mmu1", 0x4c19_8385_4ac7_1260),
        ("sbuf-ram-write", 0x9814_5872_6ac8_5903),
        ("vbe4a", 0x18ed_ba0a_2d63_d9de),
        ("nak-pa", 0xf2c0_fdde_5ac6_2258),
        ("pe-rcv-ifc-fc", 0x3362_4f5e_8701_8ae6),
        ("ram-read-sbuf", 0x4303_2db2_9719_b1a8),
        ("alex-nonfc", 0xc8db_a022_8d8c_aad8),
        ("sbuf-send-pkt2", 0xf49d_5617_10c5_47a8),
        ("sbuf-send-ctl", 0xb1a1_aeab_d4ca_9f9c),
        ("atod", 0xdbf4_2494_4e56_b157),
        ("pa", 0x03c0_80e4_f3b7_d04b),
        ("alloc-outbound", 0x7201_4095_ee3f_9f7b),
        ("wrdata", 0x7dce_d660_b000_913c),
        ("fifo", 0x8346_e8b5_5ddf_63e9),
        ("sbuf-read-ctl", 0x10d9_4ad4_2c47_1310),
        ("nouse", 0x8c2b_be7a_9ef4_c1fc),
        ("vbe-ex2", 0x964c_087e_b2c5_f9ce),
        ("nousc-ser", 0x2760_88ef_d620_838a),
        ("sendr-done", 0xacbe_192c_c943_cbd4),
        ("vbe-ex1", 0xacca_6b41_4f46_2845),
    ];

    #[test]
    #[ignore = "helper: prints the pinned-digest table for re-pinning"]
    fn print_digests() {
        for (name, stg) in benchmarks::all() {
            println!("(\"{name}\", 0x{:016x}),", stg_digest(&stg));
        }
    }

    /// Same drift guard for the per-module projection digests: the
    /// incremental flow predicts an edit's blast radius by comparing these,
    /// so the projection itself must not move silently.
    #[test]
    fn table1_module_digests_are_pinned() {
        let all = benchmarks::all();
        assert_eq!(all.len(), MODULE_PINNED.len());
        for ((name, stg), (pin_name, pin)) in all.iter().zip(&MODULE_PINNED) {
            assert_eq!(name, pin_name);
            assert_eq!(
                combined_module_digest(stg),
                *pin,
                "{name}: module projection digest drifted (if intentional, re-pin \
                 with `cargo test -p modsyn-stg print_module_digests -- --ignored --nocapture`)"
            );
        }
    }

    #[test]
    fn module_digest_sees_only_the_projection() {
        // Editing a module-local detail must move exactly the digests of
        // the modules that can observe it.
        let stg = benchmarks::vbe_ex2();
        let per_output = output_module_digests(&stg);
        assert!(!per_output.is_empty());
        // The digest is a pure function of the projection.
        let again = output_module_digests(&stg);
        assert_eq!(per_output, again);
        // Distinct modules of a multi-output benchmark key differently.
        let distinct: std::collections::BTreeSet<u64> =
            per_output.iter().map(|&(_, d)| d).collect();
        assert!(distinct.len() > 1 || per_output.len() == 1);
    }

    // Regenerate with `print_module_digests` below (`--ignored --nocapture`).
    const MODULE_PINNED: [(&str, u64); 23] = [
        ("mr0", 0x6cb5_039c_c35d_49ca),
        ("mr1", 0x7d22_9833_b88f_7f90),
        ("mmu0", 0x5597_54e7_3372_0a09),
        ("mmu1", 0x2c38_0567_7cb7_2b5d),
        ("sbuf-ram-write", 0x12e8_2364_02fe_64a0),
        ("vbe4a", 0xd896_75e4_eb5e_ad57),
        ("nak-pa", 0xdd23_9c9d_462b_c277),
        ("pe-rcv-ifc-fc", 0xf2e2_6db5_3116_12e5),
        ("ram-read-sbuf", 0x7b2e_c33a_214e_5c86),
        ("alex-nonfc", 0x13be_a0dc_e841_dbd6),
        ("sbuf-send-pkt2", 0x6eef_bd10_e8d2_fe49),
        ("sbuf-send-ctl", 0x3143_ac1b_36bd_6b2c),
        ("atod", 0x2ea4_bfe2_14b2_f3b8),
        ("pa", 0xa161_e2ed_a0e1_8eaf),
        ("alloc-outbound", 0xf80f_2a88_0df6_7fbd),
        ("wrdata", 0xcf7c_b956_76a8_26d2),
        ("fifo", 0x8233_7e13_c3f6_33dc),
        ("sbuf-read-ctl", 0xe8d3_4df1_c8a6_e2c5),
        ("nouse", 0xf5da_cca0_0b01_d02c),
        ("vbe-ex2", 0x3077_91e5_3986_8f05),
        ("nousc-ser", 0x5366_49f5_173b_b2b7),
        ("sendr-done", 0x692c_e73f_8929_06f8),
        ("vbe-ex1", 0x87cc_f685_cf3f_718b),
    ];

    #[test]
    #[ignore = "helper: prints the pinned module-digest table for re-pinning"]
    fn print_module_digests() {
        for (name, stg) in benchmarks::all() {
            println!("(\"{name}\", 0x{:016x}),", combined_module_digest(&stg));
        }
    }
}
