//! The worker pool: N OS threads draining one shared injector queue.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use modsyn_fault::{site, FaultHook, Faults};
use modsyn_obs::{FlightKind, Tracer};

/// The number of workers to use when the caller does not care: the
/// machine's available parallelism, 1 if it cannot be determined.
pub fn available_jobs() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// A job panicked; the panic was contained by the pool and surfaced as this
/// error instead of unwinding a worker.
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

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    tracer: Tracer,
    faults: Faults,
}

impl Shared {
    /// Locks the queue, recovering from poison: a panicking job runs
    /// *outside* this lock, but a panic anywhere else (e.g. an allocator
    /// abort path in a submitter) must not deadlock the whole pool.
    fn lock_queue(&self) -> MutexGuard<'_, VecDeque<Job>> {
        self.queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Receives one job's result; returned by [`WorkerPool::submit`].
#[derive(Debug)]
pub struct JobHandle<T> {
    rx: mpsc::Receiver<Result<T, JobPanic>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes. A panicking job yields
    /// `Err(JobPanic)`; the pool itself is unaffected.
    pub fn join(self) -> Result<T, JobPanic> {
        self.rx.recv().unwrap_or_else(|_| {
            Err(JobPanic {
                message: "job was dropped before completion".to_string(),
            })
        })
    }
}

/// A fixed-size worker pool over one shared FIFO injector queue.
///
/// * **Panic containment** — every job runs under `catch_unwind`; a panic
///   becomes `Err(JobPanic)` on that job's [`JobHandle`] and the worker
///   lives on. No pool or observability mutex is ever poisoned by a job
///   panic (the job executes outside all pool locks, and the `modsyn-obs`
///   sink recovers from poison by design).
/// * **Drop semantics** — dropping the pool drains the queue: already
///   submitted jobs still run, then the workers exit and are joined.
/// * **Observability** — built [`WorkerPool::with_tracer`], each worker
///   runs under a `worker:<i>` span, each job under a `job:<label>` span on
///   that worker's thread, the queue depth is sampled as a `queue_depth`
///   gauge on every submit and every pop (so it returns to zero when the
///   queue drains), and contained panics count into a `panics` counter.
/// * **Fault injection** — built [`WorkerPool::with_tracer_and_faults`],
///   the pool probes the `pool.*` sites per job; injections are mirrored
///   into an `injected_faults` counter.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// A pool with `jobs` workers (at least one) and no instrumentation.
    pub fn new(jobs: usize) -> WorkerPool {
        WorkerPool::with_tracer(jobs, Tracer::disabled())
    }

    /// A pool with `jobs` workers recording into `tracer`.
    pub fn with_tracer(jobs: usize, tracer: Tracer) -> WorkerPool {
        WorkerPool::with_tracer_and_faults(jobs, tracer, Faults::none())
    }

    /// A pool with `jobs` workers, a tracer, and an armed fault plan. The
    /// pool probes four sites per job — `pool.stall` (worker sleeps the
    /// rule's delay before the job), `pool.enqueue` (panic as the worker
    /// picks the job up, before the caller's closure runs), `pool.run`
    /// (panic after the closure ran, discarding its result) and
    /// `pool.drain` (the result channel is dropped before the send) — all
    /// inside the pool's normal panic containment, so an injection
    /// surfaces as `Err(JobPanic)` on that job's handle and nowhere else.
    pub fn with_tracer_and_faults(jobs: usize, tracer: Tracer, faults: Faults) -> WorkerPool {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            tracer,
            faults,
        });
        let workers = (0..jobs.max(1))
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("modsyn-par-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues `f` and returns a handle to its result. `label` names the
    /// job's observability span.
    pub fn submit<T, F>(&self, label: &str, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        let tracer = self.shared.tracer.clone();
        let faults = self.shared.faults.clone();
        let label = label.to_string();
        let submitted = Instant::now();
        let job: Job = Box::new(move || {
            // Enqueue-to-run wait: how long the job sat in the injector
            // queue before a worker picked it up.
            let wait_us = submitted.elapsed().as_micros() as u64;
            tracer.record_hist("pool_wait_us", wait_us);
            tracer.flight_event(FlightKind::Counter, "pool.wait_us", wait_us);
            let _flight = tracer.flight_span("pool.job");
            let span = tracer.span(&format!("job:{label}"));
            if let Some(delay) = faults.stall(site::POOL_STALL) {
                tracer.counter("injected_faults", 1);
                tracer.flight_event(FlightKind::Fault, site::POOL_STALL, 1);
                thread::sleep(delay);
            }
            let result = catch_unwind(AssertUnwindSafe(|| {
                if faults.fire(site::POOL_ENQUEUE) {
                    tracer.counter("injected_faults", 1);
                    tracer.flight_event(FlightKind::Fault, site::POOL_ENQUEUE, 1);
                    panic!("injected fault: {}", site::POOL_ENQUEUE);
                }
                let value = f();
                if faults.fire(site::POOL_RUN) {
                    tracer.counter("injected_faults", 1);
                    tracer.flight_event(FlightKind::Fault, site::POOL_RUN, 1);
                    panic!("injected fault: {}", site::POOL_RUN);
                }
                value
            }))
            .map_err(JobPanic::from_payload);
            drop(span);
            if result.is_err() {
                tracer.counter("panics", 1);
            }
            if faults.fire(site::POOL_DRAIN) {
                // Drop the sender without sending: the handle observes a
                // vanished job ("dropped before completion").
                tracer.counter("injected_faults", 1);
                tracer.flight_event(FlightKind::Fault, site::POOL_DRAIN, 1);
                drop(tx);
                return;
            }
            // The handle may have been dropped; the result is then unwanted.
            let _ = tx.send(result);
        });
        let depth = {
            let mut queue = self.shared.lock_queue();
            queue.push_back(job);
            queue.len()
        };
        self.shared.tracer.gauge("queue_depth", depth as f64);
        self.shared.available.notify_one();
        JobHandle { rx }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            // A worker never unwinds (jobs are caught), but don't let a
            // surprise take the caller down during drop.
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let _worker_span = shared.tracer.span(&format!("worker:{index}"));
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.pop_front() {
                    // Sample the post-pop depth so the gauge demonstrably
                    // returns to zero once the queue drains.
                    shared.tracer.gauge("queue_depth", queue.len() as f64);
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_per_handle_in_any_submit_order() {
        let pool = WorkerPool::new(4);
        let handles: Vec<_> = (0..32)
            .map(|i| pool.submit("square", move || i * i))
            .collect();
        let results: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(results, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_pool_runs_jobs_in_fifo_order() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let order = Arc::clone(&order);
                pool.submit("record", move || order.lock().unwrap().push(i))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_contained_and_the_pool_survives() {
        let pool = WorkerPool::new(2);
        let bad = pool.submit("boom", || -> usize { panic!("intentional: {}", 42) });
        let good = pool.submit("fine", || 7usize);
        let err = bad.join().unwrap_err();
        assert!(err.message.contains("intentional: 42"), "{err}");
        assert_eq!(good.join().unwrap(), 7);
        // The pool keeps accepting work after a panic.
        assert_eq!(pool.submit("more", || 1 + 1).join().unwrap(), 2);
    }

    #[test]
    fn drop_drains_already_submitted_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                let _ = pool.submit("count", move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        } // drop joins the workers
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn panicking_job_does_not_poison_the_obs_sink() {
        let tracer = Tracer::enabled();
        let pool = WorkerPool::with_tracer(2, tracer.clone());
        let bad = pool.submit("boom", || -> () { panic!("die mid-span") });
        assert!(bad.join().is_err());
        // The sink mutex is still usable from any thread, and the panic
        // was surfaced as a counter rather than a poisoned lock.
        tracer.counter("after", 1);
        let report = tracer.report();
        assert_eq!(report.total_counter("panics"), 1);
        assert_eq!(report.total_counter("after"), 1);
        // The job span closed on unwind.
        assert_eq!(report.spans_with_prefix("job:boom").len(), 1);
    }

    #[test]
    fn pool_instrumentation_records_workers_and_queue_depth() {
        let tracer = Tracer::enabled();
        {
            let pool = WorkerPool::with_tracer(3, tracer.clone());
            let handles: Vec<_> = (0..6).map(|i| pool.submit("t", move || i)).collect();
            for h in handles {
                let _ = h.join();
            }
        }
        let report = tracer.report();
        assert_eq!(report.spans_with_prefix("worker:").len(), 3);
        assert_eq!(report.spans_with_prefix("job:t").len(), 6);
    }

    #[test]
    fn pool_records_queue_wait_and_flight_spans() {
        use modsyn_obs::{FlightRecorder, HistogramRegistry};
        let flight = FlightRecorder::with_capacity(128);
        let hists = HistogramRegistry::new();
        let tracer = Tracer::disabled()
            .with_flight(flight.clone())
            .with_histograms(hists.clone());
        {
            let pool = WorkerPool::with_tracer(2, tracer);
            let handles: Vec<_> = (0..5).map(|i| pool.submit("w", move || i)).collect();
            for h in handles {
                let _ = h.join();
            }
        }
        let wait = hists
            .snapshot()
            .into_iter()
            .find(|(n, _)| n == "pool_wait_us")
            .expect("pool_wait_us registered")
            .1;
        assert_eq!(wait.count(), 5);
        let events = flight.snapshot();
        let opens = events
            .iter()
            .filter(|e| e.name == "pool.job" && e.kind == FlightKind::SpanOpen)
            .count();
        let closes = events
            .iter()
            .filter(|e| e.name == "pool.job" && e.kind == FlightKind::SpanClose)
            .count();
        assert_eq!((opens, closes), (5, 5));
    }

    #[test]
    fn injected_faults_appear_in_the_flight_recorder() {
        use modsyn_fault::{FaultPlan, FaultRule};
        use modsyn_obs::FlightRecorder;
        let flight = FlightRecorder::with_capacity(32);
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::POOL_ENQUEUE).times(1))
            .arm();
        let pool = WorkerPool::with_tracer_and_faults(
            1,
            Tracer::disabled().with_flight(flight.clone()),
            faults,
        );
        assert!(pool.submit("boom", || 1).join().is_err());
        assert!(flight
            .snapshot()
            .iter()
            .any(|e| e.kind == FlightKind::Fault && e.name == site::POOL_ENQUEUE));
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }

    #[test]
    fn injected_enqueue_panic_prevents_the_job_from_running() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::POOL_ENQUEUE).times(1))
            .arm();
        let pool = WorkerPool::with_tracer_and_faults(1, Tracer::disabled(), faults);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let err = pool
            .submit("boom", move || flag.store(true, Ordering::SeqCst))
            .join()
            .unwrap_err();
        assert!(err.message.contains("pool.enqueue"), "{err}");
        assert!(
            !ran.load(Ordering::SeqCst),
            "enqueue faults pre-empt the job"
        );
        // Budget spent: the pool works again.
        assert_eq!(pool.submit("ok", || 5).join().unwrap(), 5);
    }

    #[test]
    fn injected_run_panic_discards_the_result_after_the_job_ran() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::POOL_RUN).times(1))
            .arm();
        let pool = WorkerPool::with_tracer_and_faults(1, Tracer::disabled(), faults);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let err = pool
            .submit("boom", move || flag.store(true, Ordering::SeqCst))
            .join()
            .unwrap_err();
        assert!(err.message.contains("pool.run"), "{err}");
        assert!(ran.load(Ordering::SeqCst), "run faults fire after the job");
    }

    #[test]
    fn injected_drain_fault_surfaces_as_a_dropped_job() {
        use modsyn_fault::{FaultPlan, FaultRule};
        let faults = FaultPlan::new("t", 1)
            .rule(FaultRule::at(site::POOL_DRAIN).times(1))
            .arm();
        let pool = WorkerPool::with_tracer_and_faults(1, Tracer::disabled(), faults);
        let err = pool.submit("gone", || 1).join().unwrap_err();
        assert!(err.message.contains("dropped before completion"), "{err}");
        assert_eq!(pool.submit("ok", || 2).join().unwrap(), 2);
    }

    #[test]
    fn injected_stall_delays_but_completes_the_job() {
        use modsyn_fault::{FaultPlan, FaultRule};
        use std::time::{Duration, Instant};
        let faults = FaultPlan::new("t", 1)
            .rule(
                FaultRule::at(site::POOL_STALL)
                    .times(1)
                    .delay(Duration::from_millis(30)),
            )
            .arm();
        let pool = WorkerPool::with_tracer_and_faults(1, Tracer::disabled(), faults);
        let started = Instant::now();
        assert_eq!(pool.submit("slow", || 9).join().unwrap(), 9);
        assert!(started.elapsed() >= Duration::from_millis(30));
    }
}
