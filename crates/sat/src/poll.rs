//! The cancel and fault poll both search cores run once per search-loop
//! iteration: [`Solver`](crate::Solver) here and `modsyn-cnc`'s `Cdcl`.

use modsyn_fault::{site, FaultHook, Faults};
use modsyn_par::CancelToken;

use crate::Outcome;

/// Search-loop iterations between polls (a mask, so a power of two − 1):
/// the atomic load (and possible clock read) stays off the hot path.
const POLL_MASK: u64 = 0xFF;

/// A search loop's cancel token and fault plan, with the two iteration
/// counters that decide when each is read.
///
/// * [`SearchPoll::poll_cancelled`] reads the token on its first call and
///   on every 256th call after it.
/// * [`SearchPoll::poll_injected`] probes `sat.abort` and then
///   `sat.conflict-storm` at the same cadence, on a counter of its own, so
///   arming faults never shifts the cancel points.
///
/// A counter advances only while its handle can fire, so an inert poll
/// costs one branch.
#[derive(Debug, Default)]
pub struct SearchPoll {
    /// Cooperative cancellation. Inert by default.
    pub cancel: CancelToken,
    /// Fault-injection handle. Inert by default.
    pub faults: Faults,
    tick: u64,
    fault_tick: u64,
}

impl SearchPoll {
    /// Whether the cancel token should abort the search now.
    #[inline]
    pub fn poll_cancelled(&mut self) -> bool {
        if !self.cancel.is_cancellable() {
            return false;
        }
        self.tick = self.tick.wrapping_add(1);
        (self.tick & POLL_MASK) == 1 && self.cancel.is_cancelled()
    }

    /// The outcome an armed fault plan forces now, if any: `sat.abort`
    /// gives [`Outcome::Aborted`], and `sat.conflict-storm` behaves as if
    /// the search just burned through its whole backtrack budget
    /// ([`Outcome::BacktrackLimit`]).
    #[inline]
    pub fn poll_injected(&mut self) -> Option<Outcome> {
        if !self.faults.is_armed() {
            return None;
        }
        self.fault_tick = self.fault_tick.wrapping_add(1);
        if (self.fault_tick & POLL_MASK) != 1 {
            return None;
        }
        if self.faults.fire(site::SAT_ABORT) {
            return Some(Outcome::Aborted);
        }
        if self.faults.fire(site::SAT_CONFLICT_STORM) {
            return Some(Outcome::BacktrackLimit);
        }
        None
    }

    /// Restarts both cadences, as if no poll had run.
    pub(crate) fn reset(&mut self) {
        self.tick = 0;
        self.fault_tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modsyn_fault::{FaultPlan, FaultRule};

    fn cancelled() -> CancelToken {
        let token = CancelToken::new();
        token.cancel();
        token
    }

    /// The 1-based calls, out of 513, on which `poll` returned true.
    fn firing_calls(mut poll: impl FnMut() -> bool) -> Vec<usize> {
        (1..=513).filter(|_| poll()).collect()
    }

    #[test]
    fn the_cancel_poll_fires_on_call_1_and_every_256th_after() {
        let mut poll = SearchPoll {
            cancel: cancelled(),
            ..SearchPoll::default()
        };
        assert_eq!(firing_calls(|| poll.poll_cancelled()), [1, 257, 513]);
        poll.reset();
        assert!(poll.poll_cancelled(), "reset restarts the cadence");
        let mut inert = SearchPoll::default();
        assert_eq!(firing_calls(|| inert.poll_cancelled()), []);
    }

    #[test]
    fn an_armed_abort_fires_on_the_first_fault_poll() {
        // `sat.abort*1` is probed first; once it is spent the storm fires
        // on the same cadence.
        let faults = FaultPlan::new("test", 1)
            .rule(FaultRule::at(site::SAT_ABORT).times(1))
            .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
            .arm();
        let mut poll = SearchPoll {
            faults,
            ..SearchPoll::default()
        };
        let mut outcomes = Vec::new();
        let fired = firing_calls(|| poll.poll_injected().map(|o| outcomes.push(o)).is_some());
        assert_eq!(fired, [1, 257, 513]);
        use Outcome::{Aborted, BacktrackLimit};
        assert_eq!(outcomes, [Aborted, BacktrackLimit, BacktrackLimit]);
    }

    #[test]
    fn fault_polls_do_not_move_the_cancel_points() {
        let mut poll = SearchPoll {
            cancel: cancelled(),
            faults: FaultPlan::new("test", 1)
                .rule(FaultRule::at(site::SAT_CONFLICT_STORM))
                .arm(),
            ..SearchPoll::default()
        };
        // Two fault polls per cancel poll.
        let fired = firing_calls(|| {
            poll.poll_injected();
            poll.poll_injected();
            poll.poll_cancelled()
        });
        assert_eq!(fired, [1, 257, 513]);
    }
}
