//! Crash-safe persistence: atomic snapshot generations plus the journal.
//!
//! A durable store directory holds three files:
//!
//! ```text
//! dir/
//!   snap.json        current snapshot generation
//!   snap.prev.json   previous generation (fallback)
//!   store.wal        write-ahead journal of mutations since `snap.json`
//! ```
//!
//! **Writes** go journal-first: [`DurableStore::append`] frames the
//! entry into `store.wal` and fsyncs it before the caller applies it in
//! memory. Every [`DurableConfig::checkpoint_every`] frames (and on
//! graceful drain) a **checkpoint** writes the store's live entries to a
//! fresh snapshot atomically — temp file, fsync, rename — rotates the old
//! snapshot to the previous generation, and compacts the journal down to
//! the frames the snapshot does not yet cover. Evicted entries are simply absent from the
//! snapshot; eviction itself is never journaled.
//!
//! **Recovery** ([`DurableStore::open`]) is the reverse: load the newest
//! snapshot generation that parses (walking back to `snap.prev.json`, or
//! to empty, instead of refusing to start — corruption is a logged event,
//! never a bind failure), then replay the journal suffix above the
//! snapshot's watermark, truncating any torn tail. A directory written by
//! an older format version recovers the same way, as a cold start. The
//! typed [`RecoveryReport`] says exactly what happened; the store keeps
//! it ([`DurableStore::recovery`]), and the daemon's `/metrics` renders
//! it from there.
//!
//! ## Invariants
//!
//! * A snapshot generation covers every journal frame `seq <=` its
//!   `wal_seq` watermark (holding its entry, or not because the byte
//!   bound evicted it) — the checkpoint computes the watermark from the
//!   *applied* (not merely appended) frontier while holding the journal
//!   lock, so compaction can never discard a frame the snapshot missed.
//! * Recovery yields a **consistent, certified** state that is possibly
//!   older than the crash frontier, never newer and never mixed: every
//!   recovered entry was journaled by a run the oracle certified, and
//!   anything lost to a torn tail or a corrupt generation is simply
//!   re-derived (and re-certified) on the next miss.

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use modsyn_fault::{site, Faults};

use crate::snapshot::{snapshot_doc, snapshot_from_json, SnapshotData};
use crate::store::SynthStore;
use crate::wal::{scan_wal, Wal};

/// Current-generation snapshot file name.
pub const SNAP_FILE: &str = "snap.json";
/// Previous-generation snapshot file name.
pub const SNAP_PREV_FILE: &str = "snap.prev.json";
/// Journal file name.
pub const WAL_FILE: &str = "store.wal";

/// Durability tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// The store directory (created if missing).
    pub dir: PathBuf,
    /// Checkpoint (snapshot + journal compaction) every N appended frames.
    pub checkpoint_every: u64,
}

impl DurableConfig {
    /// Defaults: checkpoint every 256 frames.
    pub fn new(dir: impl Into<PathBuf>) -> DurableConfig {
        DurableConfig {
            dir: dir.into(),
            checkpoint_every: 256,
        }
    }
}

/// What startup recovery found, typed. The [`DurableStore`] keeps it;
/// the daemon renders it as the `modsynd_recovery_*` lines of `/metrics`
/// and notes it in the flight recorder.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// A snapshot generation loaded (false = cold start).
    pub snapshot_loaded: bool,
    /// Generations skipped as corrupt/unreadable before one loaded (1 =
    /// the previous-generation fallback fired; 2 = both were bad).
    pub snapshot_fallbacks: u64,
    /// Journal frames replayed over the snapshot.
    pub frames_replayed: u64,
    /// Frames below the snapshot watermark, skipped as already covered.
    pub frames_skipped: u64,
    /// Torn/garbage tail frames truncated.
    pub frames_truncated: u64,
    /// Frames dropped specifically for a checksum mismatch.
    pub checksum_failures: u64,
    /// Bytes discarded with the torn tail.
    pub bytes_truncated: u64,
    /// The journal watermark serving resumes from.
    pub wal_seq: u64,
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, then a best-effort directory fsync so
/// the rename itself is durable. Readers see the old contents or the new,
/// never a torn mix.
///
/// # Errors
///
/// Create/write/sync/rename failures (the temp file is left for
/// inspection on failure).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// The durable store: journal handle + snapshot rotation + recovery.
#[derive(Debug)]
pub struct DurableStore {
    config: DurableConfig,
    wal: Wal,
    /// Highest journal seq whose mutation is known applied in memory; the
    /// checkpoint watermark. Appenders bump it *after* applying.
    applied: AtomicU64,
    checkpoints: AtomicU64,
    recovery: RecoveryReport,
}

impl DurableStore {
    /// Opens the directory and runs recovery: newest valid snapshot
    /// generation (fault site `store.snapshot-corrupt` can force the
    /// fallback), journal suffix replay with torn-tail truncation, then
    /// the journal reopens for appending. Returns the handle, which keeps
    /// the typed [`RecoveryReport`], and the recovered state for the
    /// caller to load.
    ///
    /// # Errors
    ///
    /// Real I/O failures only (directory creation, journal open);
    /// corruption of any file is a reported recovery event, not an error.
    pub fn open(
        config: DurableConfig,
        faults: Faults,
    ) -> std::io::Result<(Arc<DurableStore>, SnapshotData)> {
        std::fs::create_dir_all(&config.dir)?;
        let mut report = RecoveryReport::default();
        let mut data = SnapshotData::default();
        for name in [SNAP_FILE, SNAP_PREV_FILE] {
            let path = config.dir.join(name);
            if !path.exists() {
                continue;
            }
            let injected = faults.fire(site::STORE_SNAPSHOT_CORRUPT);
            match (injected, load_snapshot(&path)) {
                (false, Ok(loaded)) => {
                    data = loaded;
                    report.snapshot_loaded = true;
                    break;
                }
                _ => report.snapshot_fallbacks += 1,
            }
        }
        report.wal_seq = data.wal_seq;

        let wal_path = config.dir.join(WAL_FILE);
        let (frames, scan) = scan_wal(&wal_path)?;
        report.frames_truncated = scan.frames_truncated;
        report.checksum_failures = scan.checksum_failures;
        report.bytes_truncated = scan.bytes_truncated;
        for (seq, mutation) in frames {
            if seq <= data.wal_seq {
                report.frames_skipped += 1;
                continue;
            }
            data.entries.push(mutation);
            report.frames_replayed += 1;
            report.wal_seq = report.wal_seq.max(seq);
        }

        let next_seq = report.wal_seq.max(scan.last_seq) + 1;
        let wal = Wal::open(&wal_path, next_seq, scan.valid_len, faults)?;
        let durable = Arc::new(DurableStore {
            config,
            wal,
            applied: AtomicU64::new(report.wal_seq),
            checkpoints: AtomicU64::new(0),
            recovery: report,
        });
        Ok((durable, data))
    }

    /// What [`DurableStore::open`]'s recovery found.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Journals one encoded entry ([`crate::StoreMutation::payload`])
    /// write-ahead and returns its sequence number; the caller applies the
    /// entry in memory and then calls [`DurableStore::applied`]
    /// ([`SynthStore::insert`] is that caller).
    ///
    /// # Errors
    ///
    /// Journal write failures.
    pub fn append(&self, payload: &[u8]) -> std::io::Result<u64> {
        self.wal.append(payload)
    }

    /// Marks `seq` as applied in memory: the checkpoint watermark may now
    /// move past it.
    pub fn applied(&self, seq: u64) {
        self.applied.fetch_max(seq, Ordering::AcqRel);
    }

    /// Whether enough frames accumulated to warrant a checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        self.wal.since_checkpoint() >= self.config.checkpoint_every
    }

    /// Takes a checkpoint of `store`'s live entries. They are copied with
    /// the journal locked, so the snapshot provably covers every applied
    /// frame; the store's own lock is held only for that copy, never for
    /// the write. The current snapshot generation rotates to
    /// `snap.prev.json`, the new one lands atomically, and the journal is
    /// compacted to the uncovered suffix.
    ///
    /// # Errors
    ///
    /// Snapshot write or journal rewrite failures.
    pub fn checkpoint(&self, store: &SynthStore) -> std::io::Result<()> {
        self.wal.checkpoint_with(|_last| {
            // The journal lock is held: no appends interleave, so the
            // applied frontier sampled here is a true watermark — every
            // frame at or below it went through memory before the entries
            // are copied. (Frames above it may *also* be in the snapshot;
            // replaying them is an idempotent upsert.)
            let covered = self.applied.load(Ordering::Acquire);
            let doc = snapshot_doc(&store.entries(), covered);
            let snap_path = self.config.dir.join(SNAP_FILE);
            let prev_path = self.config.dir.join(SNAP_PREV_FILE);
            if snap_path.exists() {
                std::fs::rename(&snap_path, &prev_path)?;
            }
            write_atomic(&snap_path, doc.to_string().as_bytes())?;
            Ok(covered)
        })?;
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoints when due; true when one ran.
    ///
    /// # Errors
    ///
    /// As [`DurableStore::checkpoint`].
    pub fn maybe_checkpoint(&self, store: &SynthStore) -> std::io::Result<bool> {
        if !self.checkpoint_due() {
            return Ok(false);
        }
        self.checkpoint(store)?;
        Ok(true)
    }

    /// Journal frames appended over this handle's life.
    pub fn wal_appends(&self) -> u64 {
        self.wal.appends()
    }

    /// Journal fsync(2) calls issued.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Checkpoints taken.
    pub fn checkpoints(&self) -> u64 {
        self.checkpoints.load(Ordering::Relaxed)
    }
}

/// Loads and decodes one snapshot generation.
fn load_snapshot(path: &Path) -> Result<SnapshotData, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = modsyn_obs::parse_json(&text).map_err(|e| e.to_string())?;
    snapshot_from_json(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::{FormulaStat, ModuleEntry};
    use crate::wal::StoreMutation;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "modsyn-durable-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn entry(n: usize) -> ModuleEntry {
        ModuleEntry {
            assignments: Vec::new(),
            formulas: vec![FormulaStat {
                state_signals: n,
                ..Default::default()
            }],
            provenance: Vec::new(),
        }
    }

    /// A store journaling every insert into `d`, as the daemon runs it.
    fn journaled(d: &Arc<DurableStore>) -> SynthStore {
        let store = SynthStore::new();
        store.attach_durable(Arc::clone(d));
        store
    }

    fn module(n: usize) -> StoreMutation {
        StoreMutation::Module {
            key: n as u64,
            entry: std::sync::Arc::new(entry(n)),
        }
    }

    #[test]
    fn journal_survives_a_drop_without_checkpoint() {
        let dir = temp_dir("replay");
        let config = DurableConfig::new(&dir);
        {
            let (d, data) = DurableStore::open(config.clone(), Faults::none()).unwrap();
            assert!(!d.recovery().snapshot_loaded);
            assert_eq!(data, SnapshotData::default());
            let store = journaled(&d);
            for n in 1..=3 {
                store.insert(module(n));
            }
        } // dropped, no checkpoint — the simulated kill -9
        let (d, data) = DurableStore::open(config, Faults::none()).unwrap();
        let report = d.recovery();
        assert_eq!(report.frames_replayed, 3);
        assert_eq!(report.frames_truncated, 0);
        assert_eq!(data.entries, (1..=3).map(module).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_rotates_generations() {
        let dir = temp_dir("checkpoint");
        let config = DurableConfig::new(&dir);
        let (d, _) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        let store = journaled(&d);
        for n in 1..=4 {
            store.insert(module(n));
        }
        d.checkpoint(&store).unwrap();
        assert!(dir.join(SNAP_FILE).exists());
        assert!(!dir.join(SNAP_PREV_FILE).exists(), "first generation");
        // Second checkpoint rotates the first into the previous slot.
        store.put_module(99, entry(99));
        d.checkpoint(&store).unwrap();
        assert!(dir.join(SNAP_PREV_FILE).exists());

        let (d2, data) = DurableStore::open(config, Faults::none()).unwrap();
        let report = d2.recovery();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_fallbacks, 0);
        assert_eq!(report.frames_replayed, 0, "journal fully compacted");
        assert_eq!(data.entries, store.entries());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_current_generation_falls_back_to_previous() {
        let dir = temp_dir("fallback");
        let config = DurableConfig::new(&dir);
        let (d, _) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        let store = journaled(&d);
        store.put_module(1, entry(1));
        d.checkpoint(&store).unwrap();
        store.put_module(2, entry(2));
        d.checkpoint(&store).unwrap();
        drop((store, d));
        // Corrupt the current generation mid-file.
        let snap = dir.join(SNAP_FILE);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes.truncate(mid);
        std::fs::write(&snap, &bytes).unwrap();

        let (d, data) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        let report = d.recovery();
        assert!(report.snapshot_loaded);
        assert_eq!(report.snapshot_fallbacks, 1, "previous generation used");
        assert_eq!(data.entries, vec![module(1)], "older but consistent state");

        // Both generations corrupt: cold start, still no error.
        std::fs::write(dir.join(SNAP_FILE), b"{").unwrap();
        std::fs::write(dir.join(SNAP_PREV_FILE), b"garbage").unwrap();
        let (d, data) = DurableStore::open(config, Faults::none()).unwrap();
        let report = d.recovery();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.snapshot_fallbacks, 2);
        assert!(data.entries.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_format_directory_recovers_as_a_cold_start() {
        let dir = temp_dir("upgrade");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(SNAP_FILE),
            br#"{"version":1,"seq":0,"wal_seq":3,"modules":[],"records":[],"responses":[]}"#,
        )
        .unwrap();
        let mut old_journal = b"modsyn-wal/1\n".to_vec();
        old_journal.extend_from_slice(&crate::encode_frame(1, &module(1))[..]);
        std::fs::write(dir.join(WAL_FILE), &old_journal).unwrap();

        let config = DurableConfig::new(&dir);
        let (d, data) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        let report = d.recovery();
        assert!(!report.snapshot_loaded);
        assert_eq!(report.snapshot_fallbacks, 1);
        assert_eq!(report.frames_truncated, 1, "the old journal is discarded");
        assert_eq!(report.bytes_truncated, old_journal.len() as u64);
        assert!(data.entries.is_empty());
        // The journal restarts in the current format.
        journaled(&d).insert(module(2));
        drop(d);
        let (d, data) = DurableStore::open(config, Faults::none()).unwrap();
        let report = d.recovery();
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(data.entries, vec![module(2)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_snapshot_corruption_forces_the_fallback_path() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let dir = temp_dir("inject");
        let config = DurableConfig::new(&dir);
        let (d, _) = DurableStore::open(config.clone(), Faults::none()).unwrap();
        let store = journaled(&d);
        store.put_module(1, entry(1));
        d.checkpoint(&store).unwrap();
        drop((store, d));
        let faults = FaultPlan::new("test", 7)
            .rule(FaultRule::at(site::STORE_SNAPSHOT_CORRUPT).times(1))
            .arm();
        let (d, data) = DurableStore::open(config, faults.clone()).unwrap();
        let report = d.recovery();
        assert_eq!(report.snapshot_fallbacks, 1);
        assert!(!report.snapshot_loaded, "no previous generation yet");
        assert!(data.entries.is_empty());
        assert_eq!(faults.injected_at(site::STORE_SNAPSHOT_CORRUPT), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_torn_append_loses_only_the_tail() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let dir = temp_dir("torn");
        let config = DurableConfig::new(&dir);
        let faults = FaultPlan::new("test", 7)
            .rule(FaultRule::at(site::STORE_WAL_TORN_WRITE).skip(1).times(1))
            .arm();
        let (d, _) = DurableStore::open(config.clone(), faults.clone()).unwrap();
        let store = journaled(&d);
        for n in 1..=4 {
            store.insert(module(n));
        }
        assert_eq!(faults.injected_at(site::STORE_WAL_TORN_WRITE), 1);
        drop((store, d));
        let (d, data) = DurableStore::open(config, Faults::none()).unwrap();
        let report = d.recovery();
        // Frame 1 is whole; frame 2 is torn; 3 and 4 are unreachable past
        // the tear. Recovery keeps the valid prefix only.
        assert_eq!(report.frames_replayed, 1);
        assert_eq!(report.frames_truncated, 1);
        assert!(report.bytes_truncated > 0);
        assert_eq!(data.entries, vec![module(1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
