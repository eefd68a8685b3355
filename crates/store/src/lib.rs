//! # modsyn-store
//!
//! An incremental, content-addressed synthesis store. The modular flow of
//! the paper decomposes one synthesis run into independent per-module
//! CSC solves; this crate caches those solves by the *content* of the
//! module — the exact quotient state graph plus every solver-relevant
//! option — so that re-synthesising a lightly edited STG only pays for the
//! modules the edit actually touched.
//!
//! Four pieces:
//!
//! * **The store** ([`SynthStore`]) — one content-addressed map holding
//!   module solves (keyed by [`module_key`]) and certified responses with
//!   their provenance (keyed by [`record_key`]: STG digest and method),
//!   under one byte bound and one least-recently-used eviction order.
//!   Each entry is charged the length of its journal payload, so the
//!   bound tracks what persistence writes.
//! * **Persistence** ([`DurableStore`]) — a checksummed write-ahead
//!   journal ([`Wal`]) plus atomic snapshot generations of the live
//!   entries, recovered after a crash or a drain alike.
//! * **Provenance** ([`Provenance`]) — every inserted state signal records
//!   which module forced it, which CSC conflict pairs it resolves, and the
//!   clause-family breakdown of the winning formula, so `GET /explain` and
//!   `modsyn --explain` can answer "why does `csc0` exist?". A response
//!   entry carries its own copy, so evicting a module never orphans it.
//! * **Edits** ([`pulse_edit`], [`rename_edit`]) — seeded single-edit STG
//!   perturbations used by the incremental benchmarks and smoke tests.
//!
//! ## Keying discipline
//!
//! Module keys ([`module_key`]) hash the **exact rendering** of the
//! quotient graph ([`graph_key_text`]) — storage order, not canonical
//! order. SAT solvers are not relabelling-equivariant: an isomorphic but
//! renumbered quotient can produce a different (equally valid) model, which
//! would break the store's central guarantee that an incremental result is
//! byte-identical to from-scratch resynthesis. Equal key text means the
//! solver sees an indistinguishable problem, so replaying the cached
//! solution is exactly what a fresh solve would have produced.

pub mod durable;
pub mod edit;
pub mod provenance;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use durable::{
    write_atomic, DurableConfig, DurableStore, RecoveryReport, SNAP_FILE, SNAP_PREV_FILE, WAL_FILE,
};
pub use edit::{pulse_edit, rebuild, rename_edit};
pub use provenance::{ClauseFamilies, FormulaStat, ModuleEntry, Provenance, SynthRecord};
pub use snapshot::{
    restore_into, snapshot_doc, snapshot_from_json, SnapshotData, SNAPSHOT_VERSION,
};
pub use store::{graph_key_text, module_key, record_key, StoreLink, StoreSession, SynthStore};
pub use wal::{encode_frame, scan_bytes, scan_wal, StoreMutation, Wal, WalScan, WAL_HEADER};

// Re-exported so store consumers can derive digests without a direct
// modsyn-fault or modsyn-stg dependency.
pub use modsyn_fault::fnv1a64;
pub use modsyn_stg::stg_digest;
