//! The store's append-only write-ahead journal.
//!
//! Every store insert the daemon wants to survive a `kill -9` is appended
//! here as one **frame** before it is applied in memory:
//!
//! ```text
//! file   := header frame*
//! header := "modsyn-wal/2\n"                    (13 bytes)
//! frame  := len:u32le seq:u64le check:u64le payload[len]
//! check  := fnv1a64(payload) ^ seq
//! ```
//!
//! The payload is one compact JSON [`StoreMutation`] — a module solve or a
//! certified response — and its length is what the store charges the
//! entry against its byte bound. Frames carry a monotonic sequence number
//! so a checkpoint can record "everything up to seq N is in the snapshot"
//! and recovery replays only the suffix. Evictions are not journaled: a
//! checkpoint persists only live entries, and recovery re-applies the
//! bound as it restores.
//!
//! ## Torn tails
//!
//! A crash (or an injected `store.wal-torn-write` fault) can leave a
//! half-written frame at the end of the file. [`scan_wal`] is therefore a
//! *prefix* parser: it yields every frame up to the first one that is
//! short, fails its checksum, or does not decode, and reports what it
//! discarded in a [`WalScan`]. It never panics on any byte sequence — the
//! journal-recovery property test feeds it every truncation point of
//! random journals. [`Wal::open`] truncates the file back to the valid
//! prefix before appending, so one torn tail never cascades. A journal
//! with another header (an older format) scans as empty: a cold start.
//!
//! Every append is fsync'd before it returns, so a frame is on disk before
//! its entry is applied in memory — and before the daemon answers 200.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use modsyn_fault::fnv1a64;
use modsyn_fault::{site, FaultHook, Faults};
use modsyn_obs::{parse_json, Json};

use crate::provenance::{ModuleEntry, SynthRecord};
use crate::snapshot;

/// Magic line starting every journal file.
pub const WAL_HEADER: &[u8] = b"modsyn-wal/2\n";

/// Frames larger than this are treated as tail garbage, not allocated.
const MAX_FRAME: u32 = 64 << 20;

/// One store entry, as journaled, snapshotted and held in memory. The
/// payloads are shared, so copying an entry never copies its content.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreMutation {
    /// A module solve under its content key.
    Module {
        /// Content key ([`crate::module_key`]).
        key: u64,
        /// The solve.
        entry: Arc<ModuleEntry>,
    },
    /// A certified response under its (digest, method) key.
    Record {
        /// Response key ([`crate::record_key`]).
        key: u128,
        /// The response body with its provenance.
        record: Arc<SynthRecord>,
    },
}

impl StoreMutation {
    /// Compact JSON payload for one frame.
    pub fn to_json(&self) -> Json {
        let (op, mut doc) = match self {
            StoreMutation::Module { key, entry } => {
                ("module", snapshot::module_to_json(*key, entry))
            }
            StoreMutation::Record { key, record } => {
                ("record", snapshot::record_to_json(*key, record))
            }
        };
        if let Json::Obj(pairs) = &mut doc {
            pairs.insert(0, ("op".to_string(), Json::from(op)));
        }
        doc
    }

    /// The compact encoding a journal frame carries, and the bytes the
    /// store charges this entry.
    pub fn payload(&self) -> Vec<u8> {
        self.to_json().to_string().into_bytes()
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    ///
    /// A human-readable message for an unknown op or malformed fields.
    pub fn from_json(doc: &Json) -> Result<StoreMutation, String> {
        match snapshot::str_field(doc, "op")? {
            "module" => Ok(StoreMutation::Module {
                key: snapshot::hex64(doc, "key")?,
                entry: Arc::new(snapshot::module_from_json(doc)?),
            }),
            "record" => {
                let key = snapshot::str_field(doc, "key")?;
                Ok(StoreMutation::Record {
                    key: u128::from_str_radix(key, 16)
                        .map_err(|_| format!("bad record key `{key}`"))?,
                    record: Arc::new(snapshot::record_from_json(doc)?),
                })
            }
            other => Err(format!("unknown journal op `{other}`")),
        }
    }
}

/// Serialises one frame (length prefix, seq, checksum, payload).
pub fn encode_frame(seq: u64, mutation: &StoreMutation) -> Vec<u8> {
    frame(seq, &mutation.payload())
}

fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(fnv1a64(payload) ^ seq).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// What a journal scan found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalScan {
    /// Frames decoded (the valid prefix).
    pub frames: u64,
    /// 1 when a torn/garbage tail frame stopped the scan (short frame,
    /// over-long length, bad header, undecodable payload).
    pub frames_truncated: u64,
    /// 1 when the stopping frame specifically failed its checksum.
    pub checksum_failures: u64,
    /// Bytes past the valid prefix, discarded.
    pub bytes_truncated: u64,
    /// File offset of the end of the valid prefix (where appends resume).
    pub valid_len: u64,
    /// Highest sequence number among decoded frames.
    pub last_seq: u64,
}

/// Parses the valid prefix of a journal file's bytes. Total: any input —
/// including every possible truncation of a valid journal — yields a
/// (possibly empty) frame list and a scan report; nothing panics.
pub fn scan_bytes(bytes: &[u8]) -> (Vec<(u64, StoreMutation)>, WalScan) {
    let mut scan = WalScan::default();
    let mut frames = Vec::new();
    if bytes.len() < WAL_HEADER.len() || &bytes[..WAL_HEADER.len()] != WAL_HEADER {
        // Not our file (or a crash inside the 13-byte header write):
        // nothing is salvageable, but the caller still gets a report.
        scan.frames_truncated = u64::from(!bytes.is_empty());
        scan.bytes_truncated = bytes.len() as u64;
        return (frames, scan);
    }
    let mut at = WAL_HEADER.len();
    scan.valid_len = at as u64;
    while at < bytes.len() {
        let rest = &bytes[at..];
        let Some(frame) = decode_frame(rest, &mut scan) else {
            scan.frames_truncated = 1;
            scan.bytes_truncated = rest.len() as u64;
            break;
        };
        let (used, seq, mutation) = frame;
        at += used;
        scan.frames += 1;
        scan.valid_len = at as u64;
        scan.last_seq = scan.last_seq.max(seq);
        frames.push((seq, mutation));
    }
    (frames, scan)
}

/// Decodes one frame at the start of `rest`; `None` marks the torn tail.
fn decode_frame(rest: &[u8], scan: &mut WalScan) -> Option<(usize, u64, StoreMutation)> {
    if rest.len() < 20 {
        return None;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().ok()?);
    if len > MAX_FRAME {
        return None;
    }
    let seq = u64::from_le_bytes(rest[4..12].try_into().ok()?);
    let check = u64::from_le_bytes(rest[12..20].try_into().ok()?);
    let end = 20usize.checked_add(len as usize)?;
    if rest.len() < end {
        return None;
    }
    let payload = &rest[20..end];
    if fnv1a64(payload) ^ seq != check {
        scan.checksum_failures = 1;
        return None;
    }
    let text = std::str::from_utf8(payload).ok()?;
    let doc = parse_json(text).ok()?;
    let mutation = StoreMutation::from_json(&doc).ok()?;
    Some((end, seq, mutation))
}

/// Reads and scans a journal file; a missing file is an empty journal.
///
/// # Errors
///
/// Real I/O failures only — torn tails and garbage are reported in the
/// [`WalScan`], not as errors.
pub fn scan_wal(path: &Path) -> std::io::Result<(Vec<(u64, StoreMutation)>, WalScan)> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok((Vec::new(), WalScan::default()));
    }
    Ok(scan_bytes(&bytes))
}

struct WalFile {
    file: File,
    next_seq: u64,
    since_checkpoint: u64,
}

/// The append handle. One mutex around the file keeps frames whole under
/// concurrent appenders; counters are atomics so `/metrics` scrapes
/// without taking the write lock.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalFile>,
    faults: Faults,
    appends: AtomicU64,
    fsyncs: AtomicU64,
}

impl std::fmt::Debug for WalFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalFile")
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

impl Wal {
    /// Opens (creating if needed) the journal for appending, truncating any
    /// torn tail back to the valid prefix first. `next_seq` is where new
    /// frames number from — recovery passes `max(snapshot.wal_seq,
    /// scan.last_seq) + 1`.
    ///
    /// # Errors
    ///
    /// File creation/seek failures.
    pub fn open(
        path: &Path,
        next_seq: u64,
        valid_len: u64,
        faults: Faults,
    ) -> std::io::Result<Wal> {
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)?;
        if valid_len < WAL_HEADER.len() as u64 {
            file.set_len(0)?;
            file.write_all(WAL_HEADER)?;
        } else {
            // Drop the torn tail so the next scan sees only whole frames.
            file.set_len(valid_len)?;
        }
        file.seek(SeekFrom::End(0))?;
        file.sync_all()?;
        Ok(Wal {
            inner: Mutex::new(WalFile {
                file,
                next_seq: next_seq.max(1),
                since_checkpoint: 0,
            }),
            faults,
            appends: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
        })
    }

    fn lock(&self) -> MutexGuard<'_, WalFile> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends and fsyncs one frame carrying `payload` (write-ahead: call
    /// this *before* applying the entry in memory) and returns its
    /// sequence number. Under an armed `store.wal-torn-write` fault only
    /// half the frame reaches the file — the simulated crash recovery
    /// later truncates.
    ///
    /// # Errors
    ///
    /// Write/sync failures.
    pub fn append(&self, payload: &[u8]) -> std::io::Result<u64> {
        let mut w = self.lock();
        let seq = w.next_seq;
        w.next_seq += 1;
        let frame = frame(seq, payload);
        let torn = self.faults.fire(site::STORE_WAL_TORN_WRITE);
        let bytes = if torn {
            &frame[..frame.len() / 2]
        } else {
            &frame[..]
        };
        w.file.write_all(bytes)?;
        self.appends.fetch_add(1, Ordering::Relaxed);
        w.since_checkpoint += 1;
        w.file.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(seq)
    }

    /// Frames appended since the last checkpoint (compaction trigger).
    pub fn since_checkpoint(&self) -> u64 {
        self.lock().since_checkpoint
    }

    /// Frames appended over this handle's life.
    pub fn appends(&self) -> u64 {
        self.appends.load(Ordering::Relaxed)
    }

    /// fsync(2) calls issued.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs.load(Ordering::Relaxed)
    }

    /// Runs a checkpoint under the journal lock, so no appends interleave
    /// anywhere in the sequence: `f` (given the last sequence number handed
    /// out) snapshots the live state and returns the watermark it covered;
    /// the journal is then rewritten keeping only the frames *above* that
    /// watermark. Frames at or below it are in the snapshot by
    /// construction — the watermark is the applied frontier, and applying
    /// happens before the snapshot closure runs.
    ///
    /// # Errors
    ///
    /// Journal I/O failures, or whatever `f` returns.
    pub(crate) fn checkpoint_with(
        &self,
        f: impl FnOnce(u64) -> std::io::Result<u64>,
    ) -> std::io::Result<()> {
        let mut w = self.lock();
        w.file.seek(SeekFrom::Start(0))?;
        let mut bytes = Vec::new();
        w.file.read_to_end(&mut bytes)?;
        let (frames, _scan) = scan_bytes(&bytes);
        let covered = f(w.next_seq - 1)?;
        let mut rewrite = WAL_HEADER.to_vec();
        let mut kept = 0u64;
        for (seq, mutation) in &frames {
            if *seq > covered {
                rewrite.extend_from_slice(&encode_frame(*seq, mutation));
                kept += 1;
            }
        }
        w.file.set_len(0)?;
        w.file.seek(SeekFrom::Start(0))?;
        w.file.write_all(&rewrite)?;
        w.file.sync_data()?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        w.since_checkpoint = kept;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::FormulaStat;

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

    #[test]
    fn mutations_round_trip_through_frame_payloads() {
        let cases = [
            module(3),
            StoreMutation::Record {
                key: crate::record_key(0xdead_beef_dead_beef, 1),
                record: Arc::new(SynthRecord {
                    benchmark: "b".into(),
                    inserted: vec!["csc0".into()],
                    provenance: Vec::new(),
                    body: "{\"certified\":true}\n".into(),
                }),
            },
        ];
        for m in &cases {
            let doc = parse_json(&m.to_json().to_string()).unwrap();
            assert_eq!(&StoreMutation::from_json(&doc).unwrap(), m);
        }
    }

    #[test]
    fn scan_reads_back_what_was_encoded() {
        let mut bytes = WAL_HEADER.to_vec();
        for seq in 1..=5u64 {
            bytes.extend_from_slice(&encode_frame(seq, &module(seq as usize)));
        }
        let (frames, scan) = scan_bytes(&bytes);
        assert_eq!(frames.len(), 5);
        assert_eq!(scan.frames, 5);
        assert_eq!(scan.last_seq, 5);
        assert_eq!(scan.frames_truncated, 0);
        assert_eq!(scan.valid_len, bytes.len() as u64);
    }

    #[test]
    fn every_truncation_point_yields_a_prefix() {
        let mut bytes = WAL_HEADER.to_vec();
        let mut ends = vec![WAL_HEADER.len()];
        for seq in 1..=4u64 {
            bytes.extend_from_slice(&encode_frame(seq, &module(seq as usize)));
            ends.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let (frames, scan) = scan_bytes(&bytes[..cut]);
            // The frames recovered are exactly the whole frames before the
            // cut — a prefix, never a reordering or an invention.
            let expect = if cut < WAL_HEADER.len() {
                0
            } else {
                ends.iter().filter(|&&e| e <= cut).count() - 1
            };
            assert_eq!(frames.len(), expect, "cut at {cut}");
            for (i, (seq, _)) in frames.iter().enumerate() {
                assert_eq!(*seq, i as u64 + 1);
            }
            assert_eq!(scan.frames, expect as u64);
        }
    }

    #[test]
    fn a_flipped_byte_is_a_checksum_failure_not_a_panic() {
        let mut bytes = WAL_HEADER.to_vec();
        for seq in 1..=3u64 {
            bytes.extend_from_slice(&encode_frame(seq, &module(seq as usize)));
        }
        // Flip one payload byte of the second frame.
        let first_end = WAL_HEADER.len() + encode_frame(1, &module(1)).len();
        bytes[first_end + 25] ^= 0x40;
        let (frames, scan) = scan_bytes(&bytes);
        assert_eq!(frames.len(), 1, "scan stops at the corrupt frame");
        assert_eq!(scan.checksum_failures, 1);
        assert_eq!(scan.frames_truncated, 1);
        assert!(scan.bytes_truncated > 0);
    }
}
