//! Cooperative cancellation: an atomic flag plus an optional deadline,
//! checked at loop boundaries by whoever holds a token clone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug)]
struct Inner {
    flag: AtomicBool,
    deadline: Option<Instant>,
    parent: Option<Arc<Inner>>,
}

impl Inner {
    fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
        if expired {
            // Latch the flag so later checks skip the clock read.
            self.flag.store(true, Ordering::Release);
        }
        expired || self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// A clonable cancellation handle.
///
/// All clones share one flag: [`CancelToken::cancel`] on any clone makes
/// [`CancelToken::is_cancelled`] true on every clone, as does reaching the
/// deadline the token was created with. Cancellation is *cooperative* — the
/// long-running code must poll `is_cancelled` at loop boundaries and unwind
/// cleanly (the SAT solver returns `Outcome::Aborted`, the synthesis
/// drivers `SynthesisError::Aborted`).
///
/// [`CancelToken::never`] (the `Default`) carries no state at all: polling
/// it is a branch on `None`, so hot loops instrumented with a token pay
/// nothing when cancellation is unused.
///
/// [`CancelToken::child`] makes a token that trips with its parent but
/// can also be cancelled alone: the CSC loop cancels the signal counts it
/// no longer needs this way without touching the caller's deadline.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Option<Arc<Inner>>,
}

impl CancelToken {
    /// A token that can only be cancelled explicitly.
    pub fn new() -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
                parent: None,
            })),
        }
    }

    /// A token that is never cancelled and cannot be: the no-op default.
    pub fn never() -> CancelToken {
        CancelToken { inner: None }
    }

    /// A token that trips `timeout` from now (or earlier, if cancelled).
    pub fn with_deadline(timeout: Duration) -> CancelToken {
        CancelToken::with_deadline_at(Instant::now() + timeout)
    }

    /// A token that trips at `deadline` (or earlier, if cancelled).
    pub fn with_deadline_at(deadline: Instant) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: Some(deadline),
                parent: None,
            })),
        }
    }

    /// A child token: cancelled when this token is, but cancelling the
    /// child does not touch this token. On a [`CancelToken::never`] parent
    /// this is a plain [`CancelToken::new`].
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Some(Arc::new(Inner {
                flag: AtomicBool::new(false),
                deadline: None,
                parent: self.inner.clone(),
            })),
        }
    }

    /// Trips the token (a no-op on [`CancelToken::never`]).
    pub fn cancel(&self) {
        if let Some(inner) = &self.inner {
            inner.flag.store(true, Ordering::Release);
        }
    }

    /// Whether the token has been cancelled or its deadline (or an
    /// ancestor's) has passed.
    pub fn is_cancelled(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.is_cancelled())
    }

    /// Whether this token can ever cancel (false only for
    /// [`CancelToken::never`]).
    pub fn is_cancellable(&self) -> bool {
        self.inner.is_some()
    }
}

/// Tokens compare by identity: two clones of the same token are equal, two
/// independently created tokens are not, and all `never` tokens are equal.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_token_is_inert() {
        let t = CancelToken::never();
        assert!(!t.is_cancellable());
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(!t.is_cancelled());
        assert_eq!(t, CancelToken::default());
    }

    #[test]
    fn cancel_is_visible_to_all_clones() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn deadline_trips_on_its_own() {
        let t = CancelToken::with_deadline(Duration::from_millis(10));
        assert!(!t.is_cancelled());
        std::thread::sleep(Duration::from_millis(20));
        assert!(t.is_cancelled());
        // And stays tripped (the flag latched).
        assert!(t.is_cancelled());
    }

    #[test]
    fn already_expired_deadline_is_cancelled_immediately() {
        let t = CancelToken::with_deadline_at(Instant::now());
        assert!(t.is_cancelled());
    }

    #[test]
    fn child_follows_parent_but_not_vice_versa() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel must not leak upward");

        let child2 = parent.child();
        parent.cancel();
        assert!(child2.is_cancelled(), "parent cancel reaches children");

        let orphan = CancelToken::never().child();
        assert!(orphan.is_cancellable() && !orphan.is_cancelled());
    }

    #[test]
    fn equality_is_identity() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        assert_eq!(a, a.clone());
        assert_ne!(a, b);
        assert_ne!(a, CancelToken::never());
    }

    #[test]
    fn token_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CancelToken>();
    }
}
