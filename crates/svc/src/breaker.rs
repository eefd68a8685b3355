//! A per-method circuit breaker for the `/synth` path.
//!
//! Each synthesis method gets its own breaker, because they fail
//! independently: `direct` hitting its backtrack limit on every large STG
//! says nothing about `modular`'s health. The state machine is the classic
//! three states:
//!
//! * **Closed** — requests flow. Failures accumulate into an
//!   *exponentially decaying* score (half-life
//!   [`BreakerConfig::half_life`]), so a burst of failures trips the
//!   breaker while the same count spread over an hour does not. When the
//!   score reaches [`BreakerConfig::failure_threshold`], the breaker
//!   opens.
//! * **Open** — requests are rejected immediately (the server answers
//!   `503` with `Retry-After`) for [`BreakerConfig::cooldown`]; the
//!   backend gets air instead of a retry storm.
//! * **Half-open** — after the cooldown, exactly one probe request is
//!   admitted. Success closes the breaker and clears the score; failure
//!   re-opens it for another cooldown.
//!
//! What counts as failure is the *server's* problem set: handler panics,
//! deadline aborts and oracle rejections. A `422` (the STG is unsolvable
//! under the method) is the client's problem and counts as success — a
//! stream of bad inputs must not lock healthy clients out.
//!
//! Every method takes `now: Instant` from the caller instead of reading
//! the clock, so tests drive the state machine through a synthetic
//! timeline without sleeping.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Breaker tuning.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Decayed failure score at which the breaker opens.
    pub failure_threshold: f64,
    /// Half-life of the failure score while closed.
    pub half_life: Duration,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 5.0,
            half_life: Duration::from_secs(30),
            cooldown: Duration::from_secs(5),
        }
    }
}

/// What the breaker says about one arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Closed: let it through.
    Allowed,
    /// Half-open: let it through as the single trial request.
    Probe,
    /// Open (or a probe is already in flight): reject with `Retry-After`.
    Rejected {
        /// Whole seconds the client should wait, at least 1.
        retry_after: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum State {
    Closed,
    Open { until: Instant },
    HalfOpen,
}

#[derive(Debug)]
struct Inner {
    state: State,
    score: f64,
    scored_at: Instant,
}

/// One breaker; the server holds one per [`modsyn::Method`]. It counts
/// nothing itself: [`CircuitBreaker::record`] reports each trip and
/// [`CircuitBreaker::admit`] each rejection, and the server counts both.
#[derive(Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    /// A closed breaker with `config`, scoring from `now`.
    pub fn new(config: BreakerConfig, now: Instant) -> CircuitBreaker {
        CircuitBreaker {
            config,
            inner: Mutex::new(Inner {
                state: State::Closed,
                score: 0.0,
                scored_at: now,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn decay(&self, inner: &mut Inner, now: Instant) {
        let dt = now.saturating_duration_since(inner.scored_at);
        if dt > Duration::ZERO && inner.score > 0.0 {
            let half_lives = dt.as_secs_f64() / self.config.half_life.as_secs_f64().max(1e-9);
            inner.score *= 0.5_f64.powf(half_lives);
            if inner.score < 1e-6 {
                inner.score = 0.0;
            }
        }
        inner.scored_at = now;
    }

    /// Asks whether a request arriving at `now` may proceed.
    ///
    /// An `Open` breaker whose cooldown has elapsed transitions to
    /// half-open and admits this request as the probe; while a probe is in
    /// flight, further requests are rejected.
    pub fn admit(&self, now: Instant) -> Admission {
        let mut inner = self.lock();
        self.decay(&mut inner, now);
        match inner.state {
            State::Closed => Admission::Allowed,
            State::HalfOpen => Admission::Rejected {
                retry_after: retry_after_secs(self.config.cooldown),
            },
            State::Open { until } => {
                if now >= until {
                    inner.state = State::HalfOpen;
                    Admission::Probe
                } else {
                    Admission::Rejected {
                        retry_after: retry_after_secs(until.saturating_duration_since(now)),
                    }
                }
            }
        }
    }

    /// Whether the breaker is open (and its cooldown has not yet elapsed)
    /// at `now` — the readiness probe's view; admission paths keep using
    /// [`CircuitBreaker::admit`], which also advances the state machine.
    pub fn is_open(&self, now: Instant) -> bool {
        matches!(self.lock().state, State::Open { until } if now < until)
    }

    /// Records the outcome of an admitted request. Returns `true` when
    /// this record *opened* the breaker (for the `breaker_opens` metric).
    pub fn record(&self, now: Instant, success: bool) -> bool {
        let mut inner = self.lock();
        self.decay(&mut inner, now);
        match (inner.state, success) {
            (State::HalfOpen, true) => {
                inner.state = State::Closed;
                inner.score = 0.0;
                false
            }
            (State::HalfOpen, false) => {
                inner.state = State::Open {
                    until: now + self.config.cooldown,
                };
                true
            }
            (State::Closed, false) => {
                inner.score += 1.0;
                if inner.score >= self.config.failure_threshold {
                    inner.state = State::Open {
                        until: now + self.config.cooldown,
                    };
                    true
                } else {
                    false
                }
            }
            // Success while closed: decay alone recovers the score.
            // Records while open can only come from requests admitted
            // before the trip; they change nothing.
            _ => false,
        }
    }
}

fn retry_after_secs(wait: Duration) -> u64 {
    wait.as_secs_f64().ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3.0,
            half_life: Duration::from_secs(10),
            cooldown: Duration::from_secs(5),
        }
    }

    #[test]
    fn a_failure_burst_opens_and_cooldown_probes() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast(), t0);
        assert_eq!(b.admit(t0), Admission::Allowed);
        assert!(!b.record(t0, false));
        assert!(!b.record(t0, false));
        assert!(b.record(t0, false), "third failure should trip");

        // Open: rejected with the remaining cooldown.
        match b.admit(t0 + Duration::from_secs(1)) {
            Admission::Rejected { retry_after } => assert!((1..=5).contains(&retry_after)),
            other => panic!("expected rejection, got {other:?}"),
        }

        // After the cooldown: exactly one probe, then rejection again.
        let t1 = t0 + Duration::from_secs(6);
        assert_eq!(b.admit(t1), Admission::Probe);
        assert!(matches!(b.admit(t1), Admission::Rejected { .. }));

        // Probe success closes and clears.
        assert!(!b.record(t1, true));
        assert_eq!(b.admit(t1), Admission::Allowed);
    }

    #[test]
    fn a_failed_probe_reopens() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast(), t0);
        let opened = (0..3).filter(|_| b.record(t0, false)).count();
        assert_eq!(opened, 1, "only the third failure trips");
        let t1 = t0 + Duration::from_secs(6);
        assert_eq!(b.admit(t1), Admission::Probe);
        assert!(b.record(t1, false), "failed probe re-opens");
        assert!(matches!(b.admit(t1), Admission::Rejected { .. }));
        // …and the next cooldown admits a fresh probe.
        assert_eq!(b.admit(t1 + Duration::from_secs(6)), Admission::Probe);
    }

    #[test]
    fn slow_failures_decay_instead_of_tripping() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast(), t0);
        // One failure per 20s = two half-lives of decay between failures;
        // the score never reaches 3.
        for i in 0..20u64 {
            let t = t0 + Duration::from_secs(20 * i);
            assert_eq!(b.admit(t), Admission::Allowed, "failure #{i}");
            assert!(!b.record(t, false), "failure #{i} must not trip");
        }
    }

    #[test]
    fn successes_never_open() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(fast(), t0);
        for i in 0..100u64 {
            let t = t0 + Duration::from_millis(i);
            assert_eq!(b.admit(t), Admission::Allowed);
            assert!(!b.record(t, true));
        }
    }

    #[test]
    fn retry_after_is_at_least_one_second() {
        assert_eq!(retry_after_secs(Duration::from_millis(10)), 1);
        assert_eq!(retry_after_secs(Duration::from_millis(1500)), 2);
        assert_eq!(retry_after_secs(Duration::ZERO), 1);
    }
}
