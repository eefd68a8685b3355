//! Zero-dependency parallel execution substrate for the modsyn pipeline.
//!
//! Per the workspace §5 dependency policy this crate uses the standard
//! library only — no `rayon`, no `crossbeam`, no `tokio`. It provides the
//! three primitives the synthesis stack parallelises with:
//!
//! * [`WorkerPool`] — N OS threads over one shared FIFO injector queue,
//!   with per-job panic containment ([`JobPanic`]) and graceful
//!   drain-on-drop. The bench harness runs Table-1 rows on it.
//! * [`CancelToken`] — a cooperative cancellation handle (atomic flag +
//!   optional deadline). The SAT solver polls it in its
//!   search loops and returns a clean `Aborted` outcome; the CLI's
//!   `--timeout-ms` is one of these tokens.
//! * [`par_map`] — a deterministic parallel map: results come back in
//!   input order no matter which worker finished first, and `jobs <= 1`
//!   degenerates to an inline sequential loop. The parallel modular
//!   synthesis driver leans on this to stay byte-for-byte identical to the
//!   sequential driver.
//!
//! Everything is instrumented through `modsyn-obs` (per-worker spans,
//! `queue_depth` gauge, `panics` counter) when a pool is built
//! [`WorkerPool::with_tracer`].
//!
//! # Example
//!
//! ```
//! use modsyn_par::{par_map, CancelToken, WorkerPool};
//! use std::time::Duration;
//!
//! // Ordered parallel map.
//! let squares: Vec<u64> = par_map(4, &[1u64, 2, 3, 4], |_, &x| x * x)
//!     .into_iter()
//!     .map(Result::unwrap)
//!     .collect();
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // A pool with contained panics.
//! let pool = WorkerPool::new(2);
//! let ok = pool.submit("fine", || 21 * 2);
//! let bad = pool.submit("boom", || panic!("contained"));
//! assert_eq!(ok.join().unwrap(), 42);
//! assert!(bad.join().is_err());
//!
//! // Cooperative deadline.
//! let token = CancelToken::with_deadline(Duration::from_millis(1));
//! std::thread::sleep(Duration::from_millis(5));
//! assert!(token.is_cancelled());
//! ```

mod cancel;
mod map;
mod pool;

pub use cancel::CancelToken;
pub use map::{par_map, unwrap_or_resume};
pub use pool::{available_jobs, JobHandle, JobPanic, WorkerPool};
