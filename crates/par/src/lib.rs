//! Zero-dependency parallel execution substrate for the modsyn pipeline.
//!
//! Per the workspace §5 dependency policy this crate uses the standard
//! library only — no `rayon`, no `crossbeam`, no `tokio`, and no other
//! workspace crate. It provides the two primitives the synthesis stack
//! parallelises and bounds its work with:
//!
//! * [`CancelToken`] — a cooperative cancellation handle (atomic flag +
//!   optional deadline). The SAT solver polls it in its
//!   search loops and returns a clean `Aborted` outcome; the CLI's
//!   `--timeout-ms` and the daemon's per-request deadlines are such
//!   tokens.
//! * [`par_map`] — a deterministic parallel map on scoped threads:
//!   results come back in input order no matter which thread finished
//!   first, a panicking item becomes a [`JobPanic`] in its own slot, and
//!   `jobs <= 1` degenerates to an inline sequential loop. The parallel
//!   modular synthesis driver leans on this to stay byte-for-byte
//!   identical to the sequential driver; the bench harness runs Table-1
//!   rows on it. [`available_jobs`] is the default thread count.
//!
//! # Example
//!
//! ```
//! use modsyn_par::{par_map, CancelToken};
//! use std::time::Duration;
//!
//! // Ordered parallel map with a contained panic.
//! let results = par_map(4, &[1u64, 2, 3, 4], |_, &x| {
//!     assert!(x != 3, "three is contained");
//!     x * x
//! });
//! assert_eq!(results[1], Ok(4));
//! assert!(results[2].as_ref().unwrap_err().message.contains("contained"));
//! assert_eq!(results[3], Ok(16));
//!
//! // Cooperative deadline.
//! let token = CancelToken::with_deadline(Duration::from_millis(1));
//! std::thread::sleep(Duration::from_millis(5));
//! assert!(token.is_cancelled());
//! ```

mod cancel;
mod map;

pub use cancel::CancelToken;
pub use map::{available_jobs, par_map, unwrap_or_resume, JobPanic};
