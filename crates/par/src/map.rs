//! Deterministic data-parallel map over borrowed slices.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// The number of threads to use when the caller does not care: the
/// machine's available parallelism, 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// A job panicked; the panic was contained and surfaced as this error
/// instead of unwinding the thread that ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// The panic payload, stringified (`"<non-string panic payload>"` when
    /// the payload was neither `&str` nor `String`).
    pub message: String,
}

impl JobPanic {
    /// Extracts a printable message from a `catch_unwind` payload.
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> JobPanic {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_string());
        JobPanic { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Applies `f` to every item on up to `jobs` scoped threads and returns
/// the results **in input order**, regardless of which thread finished
/// first. `f` receives the item index alongside the item.
///
/// Panics inside `f` are contained per item and surfaced as
/// `Err(JobPanic)` in that item's slot; the remaining items still run.
/// With `jobs <= 1` (or a single item) everything runs inline on the
/// calling thread — same results, no thread overhead — which is what makes
/// callers' sequential and parallel modes byte-for-byte comparable.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<Result<R, JobPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len());
    if jobs <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                catch_unwind(AssertUnwindSafe(|| f(i, item))).map_err(JobPanic::from_payload)
            })
            .collect();
    }

    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, Result<R, JobPanic>)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break local;
                        }
                        let result = catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                            .map_err(JobPanic::from_payload);
                        local.push((i, result));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map thread contained its panics"))
            .collect()
    });

    let mut out: Vec<Option<Result<R, JobPanic>>> = Vec::new();
    out.resize_with(items.len(), || None);
    for (i, result) in buckets.into_iter().flatten() {
        out[i] = Some(result);
    }
    out.into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

/// Unwraps a [`par_map`] slot, resuming the contained panic on the calling
/// thread — for callers whose sequential mode would have panicked in place.
pub fn unwrap_or_resume<R>(result: Result<R, JobPanic>) -> R {
    match result {
        Ok(value) => value,
        Err(panic) => std::panic::resume_unwind(Box::new(panic.message)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        // Sleep inversely to index so later items finish first.
        let results = par_map(4, &items, |i, &x| {
            if i < 4 {
                std::thread::sleep(Duration::from_millis(5));
            }
            x * 2
        });
        let values: Vec<usize> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_runs_inline_and_matches_parallel() {
        let items: Vec<u32> = (0..17).collect();
        let seq: Vec<u32> = par_map(1, &items, |i, &x| x + i as u32)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        let par: Vec<u32> = par_map(8, &items, |i, &x| x + i as u32)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let empty: Vec<i32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        let one = [41];
        assert_eq!(*par_map(4, &one, |_, &x| x + 1)[0].as_ref().unwrap(), 42);
    }

    #[test]
    fn a_panicking_item_does_not_sink_the_others() {
        let items: Vec<usize> = (0..10).collect();
        let ran = AtomicUsize::new(0);
        let results = par_map(3, &items, |_, &x| {
            ran.fetch_add(1, Ordering::SeqCst);
            assert!(x != 5, "item five is cursed");
            x
        });
        assert_eq!(ran.load(Ordering::SeqCst), 10, "all items attempted");
        for (i, r) in results.iter().enumerate() {
            if i == 5 {
                assert!(r.as_ref().unwrap_err().message.contains("cursed"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn unwrap_or_resume_rethrows_the_message() {
        let caught = std::panic::catch_unwind(|| {
            unwrap_or_resume::<()>(Err(JobPanic {
                message: "original message".to_string(),
            }))
        });
        let payload = caught.unwrap_err();
        let message = payload.downcast_ref::<String>().unwrap();
        assert!(message.contains("original message"));
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
