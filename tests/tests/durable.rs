//! Crash-safety integration tests: journal truncation as a *property*
//! (any mutation sequence, any byte cut — replay yields a prefix, never a
//! panic), the pinned previous-generation fallback semantics, and the
//! daemon restarting warm from a durable directory.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use modsyn_fault::{Faults, SplitMix64};
use modsyn_obs::Tracer;
use modsyn_store::{
    encode_frame, record_key, scan_bytes, DurableConfig, DurableStore, FormulaStat, ModuleEntry,
    RecoveryReport, StoreMutation, SynthRecord, SynthStore, SNAP_FILE, WAL_HEADER,
};
use modsyn_svc::client;
use modsyn_svc::{Server, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(60);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "modsyn-itest-durable-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One seeded, arbitrary store mutation.
fn arbitrary_mutation(rng: &mut SplitMix64) -> StoreMutation {
    match rng.below(2) {
        0 => StoreMutation::Module {
            key: rng.next_u64(),
            entry: Arc::new(ModuleEntry {
                assignments: Vec::new(),
                formulas: vec![FormulaStat {
                    state_signals: rng.below(7),
                    clauses: rng.below(1000),
                    ..Default::default()
                }],
                provenance: Vec::new(),
            }),
        },
        _ => StoreMutation::Record {
            key: record_key(rng.next_u64(), rng.below(4) as u8),
            record: Arc::new(SynthRecord {
                benchmark: format!("bench-{}", rng.below(100)),
                inserted: vec![format!("csc{}", rng.below(4))],
                provenance: Vec::new(),
                body: "x".repeat(rng.below(64)),
            }),
        },
    }
}

/// A journal for `mutations` plus the byte offset of every frame
/// boundary (the header boundary first).
fn journal_bytes(mutations: &[StoreMutation]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = WAL_HEADER.to_vec();
    let mut boundaries = vec![bytes.len()];
    for (i, m) in mutations.iter().enumerate() {
        bytes.extend_from_slice(&encode_frame(i as u64 + 1, m));
        boundaries.push(bytes.len());
    }
    (bytes, boundaries)
}

/// The property satellite: for ANY mutation sequence and ANY
/// byte-truncation point, replay yields exactly the whole frames before
/// the cut — a strict prefix, in order, never a panic, never a frame
/// invented past the tear.
#[test]
fn any_truncation_of_any_journal_replays_a_prefix() {
    for seed in 0..8u64 {
        let mut rng = SplitMix64::new(0xD00D ^ seed);
        let count = 2 + rng.below(12);
        let mutations: Vec<StoreMutation> =
            (0..count).map(|_| arbitrary_mutation(&mut rng)).collect();
        let (bytes, boundaries) = journal_bytes(&mutations);
        for cut in 0..=bytes.len() {
            let (frames, scan) = scan_bytes(&bytes[..cut]);
            let whole = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(
                frames.len(),
                whole,
                "seed {seed}: cut at byte {cut} must keep exactly the whole frames"
            );
            for (j, (seq, mutation)) in frames.iter().enumerate() {
                assert_eq!(*seq, j as u64 + 1, "seed {seed} cut {cut}: order preserved");
                assert_eq!(mutation, &mutations[j], "seed {seed} cut {cut}: content");
            }
            // The valid prefix ends at the last whole frame (at the end
            // of the header when no frame survives; at zero when even the
            // header is torn).
            let valid = if cut < boundaries[0] {
                0
            } else {
                boundaries[whole]
            };
            assert_eq!(scan.valid_len, valid as u64, "seed {seed} cut {cut}");
        }
    }
}

/// Companion property: flipping any single byte never panics and still
/// yields an in-order prefix of the original frames — the checksum stops
/// replay at (or before) the corruption instead of inventing state.
#[test]
fn any_single_byte_corruption_still_replays_a_prefix() {
    let mut rng = SplitMix64::new(0xBAD_C0DE);
    let mutations: Vec<StoreMutation> = (0..6).map(|_| arbitrary_mutation(&mut rng)).collect();
    let (bytes, _) = journal_bytes(&mutations);
    for pos in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[pos] ^= 0x40;
        let (frames, _scan) = scan_bytes(&corrupted);
        assert!(frames.len() <= mutations.len(), "flip at {pos}");
        for (j, (seq, mutation)) in frames.iter().enumerate() {
            assert_eq!(*seq, j as u64 + 1, "flip at {pos}: order");
            assert_eq!(mutation, &mutations[j], "flip at {pos}: content");
        }
    }
}

fn module(n: usize) -> StoreMutation {
    StoreMutation::Module {
        key: n as u64,
        entry: Arc::new(ModuleEntry {
            assignments: Vec::new(),
            formulas: vec![FormulaStat {
                state_signals: n,
                ..Default::default()
            }],
            provenance: Vec::new(),
        }),
    }
}

/// Pinned regression for the previous-generation fallback. The exact
/// semantics: when `snap.json` is corrupt, recovery loads `snap.prev.json`
/// and replays the (already compacted) journal suffix on top. Entries
/// covered *only* by the corrupt generation are gone — the store is
/// content-addressed, so a hole is a future cache miss that re-derives
/// and re-certifies, never an inconsistency — and everything else
/// survives. This test pins the full [`RecoveryReport`] so any change to
/// these semantics is a loud diff.
#[test]
fn previous_generation_fallback_report_is_pinned() {
    let dir = temp_dir("fallback-pin");
    let config = DurableConfig::new(&dir);
    {
        let store = SynthStore::new();
        let (d, _) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        d.record(&module(1), || store.insert(module(1)));
        d.checkpoint(&store).unwrap(); // gen 1: {1}
        d.record(&module(2), || store.insert(module(2)));
        d.checkpoint(&store).unwrap(); // gen 2: {1,2}; gen 1 rotates to prev
        d.record(&module(3), || {});
    } // dropped without a final checkpoint: frame 3 lives in the journal
    std::fs::write(dir.join(SNAP_FILE), b"{\"version\": garbage").unwrap();

    let (d, data) = DurableStore::open(config, Faults::none()).unwrap();
    assert_eq!(
        *d.recovery(),
        RecoveryReport {
            snapshot_loaded: true,
            snapshot_fallbacks: 1,
            frames_replayed: 1, // frame 3, the only journal survivor
            frames_skipped: 0,
            frames_truncated: 0,
            checksum_failures: 0,
            bytes_truncated: 0,
            wal_seq: 3,
        }
    );
    // The previous generation carried module 1; the journal carried 3.
    // Module 2 was covered only by the corrupt generation: a hole, not a
    // haunting.
    assert_eq!(data.entries, vec![module(1), module(3)]);
    let _ = std::fs::remove_dir_all(&dir);
}

fn start(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(config, Tracer::disabled()).expect("bind loopback");
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    (handle, thread)
}

fn stop(handle: &ServerHandle, thread: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    thread.join().expect("server thread").expect("server run");
}

/// Polls `/readyz` until the server finishes its background recovery.
fn wait_ready(handle: &ServerHandle) {
    let deadline = Instant::now() + TIMEOUT;
    loop {
        if let Ok(r) = client::request(
            handle.addr(),
            "GET",
            "/readyz",
            b"",
            Duration::from_millis(250),
        ) {
            if r.status == 200 {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never became ready");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn metric(handle: &ServerHandle, name: &str) -> u64 {
    let response =
        client::request(handle.addr(), "GET", "/metrics", b"", TIMEOUT).expect("metrics request");
    modsyn_svc::Metrics::parse_line(&response.text(), name)
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{}", response.text()))
}

/// A daemon restarted onto its durable directory answers previously
/// certified work from the recovered store — warm, byte-exact.
#[test]
fn server_restarts_warm_from_durable_dir() {
    let dir = temp_dir("server-warm");
    let g = modsyn_stg::write_g(&modsyn_stg::benchmarks::by_name("vbe-ex1").expect("benchmark"));
    let durable = || ServerConfig {
        jobs: 2,
        durable: Some(DurableConfig::new(&dir)),
        ..ServerConfig::default()
    };

    let (handle, thread) = start(durable());
    wait_ready(&handle);
    let first = client::request(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        g.as_bytes(),
        TIMEOUT,
    )
    .expect("first synth");
    assert_eq!(first.status, 200, "{}", first.text());
    assert_eq!(first.header("x-modsyn-cache"), Some("miss"));
    assert!(metric(&handle, "modsynd_wal_appends_total") > 0);
    stop(&handle, thread); // graceful drain: final checkpoint

    let (handle, thread) = start(durable());
    wait_ready(&handle);
    assert_eq!(metric(&handle, "modsynd_ready"), 1);
    let again = client::request(
        handle.addr(),
        "POST",
        "/synth?method=modular",
        g.as_bytes(),
        TIMEOUT,
    )
    .expect("warm synth");
    assert_eq!(again.status, 200);
    assert_eq!(
        again.header("x-modsyn-cache"),
        Some("hit"),
        "recovered store must serve the restart warm"
    );
    assert_eq!(again.body, first.body, "byte-identical across the restart");
    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash (no final checkpoint) leaves state only in the journal; the
/// restarted daemon must replay it and surface the replay in `/metrics`.
#[test]
fn server_recovers_journal_only_state_after_a_crash() {
    let dir = temp_dir("server-crash");
    {
        let (d, _) =
            DurableStore::open(DurableConfig::new(&dir), Faults::none()).expect("open durable");
        for n in 1..=5 {
            d.record(&module(n), || {});
        }
    } // dropped with no checkpoint — the simulated kill -9

    let (handle, thread) = start(ServerConfig {
        durable: Some(DurableConfig::new(&dir)),
        ..ServerConfig::default()
    });
    wait_ready(&handle);
    assert_eq!(metric(&handle, "modsynd_recovery_frames_replayed"), 5);
    assert_eq!(metric(&handle, "modsynd_recovery_frames_truncated"), 0);
    stop(&handle, thread);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The exposition renders every store and journal value from its owner,
/// so what the daemon prints on exit is current after the drain, not a
/// copy of the last scrape: module hits made after that scrape, the
/// journal's appends and the drain's own checkpoint all show.
#[test]
fn exit_exposition_reads_the_store_and_journal_after_the_drain() {
    let dir = temp_dir("exit-exposition");
    let stg = modsyn_stg::benchmarks::by_name("vbe-ex1").expect("benchmark");
    let post = |handle: &ServerHandle, stg: &modsyn_stg::Stg| {
        let g = modsyn_stg::write_g(stg);
        let response = client::request(
            handle.addr(),
            "POST",
            "/synth?method=modular",
            g.as_bytes(),
            TIMEOUT,
        )
        .expect("synth");
        assert_eq!(response.status, 200, "{}", response.text());
        assert_eq!(response.header("x-modsyn-cache"), Some("miss"));
    };

    let (handle, thread) = start(ServerConfig {
        jobs: 2,
        durable: Some(DurableConfig::new(&dir)),
        ..ServerConfig::default()
    });
    wait_ready(&handle);
    post(&handle, &stg);
    assert_eq!(metric(&handle, "modsynd_store_hits_total"), 0);
    // A new digest, the same modules: every module solve hits the store.
    post(&handle, &modsyn_store::rename_edit(&stg, "-renamed"));
    stop(&handle, thread);

    let text = handle.render_metrics();
    let line = |name: &str| {
        modsyn_svc::Metrics::parse_line(&text, name)
            .unwrap_or_else(|| panic!("{name} missing from:\n{text}"))
    };
    let store = handle.store();
    let journal = store.durable().expect("the journal stays attached");
    assert_eq!(line("modsynd_store_hits_total"), store.hits());
    assert!(store.hits() >= 1, "the renamed copy reuses its modules");
    assert_eq!(line("modsynd_wal_appends_total"), journal.wal_appends());
    assert!(
        line("modsynd_checkpoints_total") >= 1,
        "the drain checkpoints"
    );
    assert_eq!(line("modsynd_ready"), 0, "a drained server is not ready");
    let _ = std::fs::remove_dir_all(&dir);
}
