//! Cooperative cancellation, and the wake-up signal a run parks on.
//!
//! A [`CancelToken`] is a cheap cloneable flag shared between an
//! [`crate::AppManager`] run and whoever may want to stop it — the user's
//! thread, or the service's `cancel` request. Cancellation is cooperative:
//! components observe the token at their loop boundaries, stop scheduling
//! and submitting new work, and the AppManager settles every in-flight task
//! to `Canceled` so the run completes promptly instead of blocking until its
//! timeout.
//!
//! The token also owns the run's [`Signal`]: the AppManager's wait loop and
//! the Enqueue thread park on it instead of polling, and `cancel` — which
//! may come from any thread holding a clone — is one of the events that
//! wakes them.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An event counter with a condition variable. [`Signal::wait_until`] reads
/// the epoch, evaluates the caller's condition with no lock of the signal
/// held, and sleeps only while the epoch is still the one it read: a
/// `notify` between the evaluation and the sleep moves the epoch, so no
/// wake-up is lost, and a notifier may hold any other lock.
#[derive(Debug, Default)]
pub(crate) struct Signal {
    epoch: Mutex<u64>,
    moved: Condvar,
}

impl Signal {
    /// Wake every waiter to re-evaluate its condition.
    pub(crate) fn notify(&self) {
        *self.epoch.lock() += 1;
        self.moved.notify_all();
    }

    /// Block until `ready()` holds or `deadline` has passed; returns whether
    /// it held. Everything that can end the wait must be part of `ready` —
    /// a stop flag checked before the call instead could flip, and notify,
    /// before the wait begins and would then never be seen.
    pub(crate) fn wait_until(
        &self,
        deadline: Option<Instant>,
        mut ready: impl FnMut() -> bool,
    ) -> bool {
        loop {
            let seen = *self.epoch.lock();
            if ready() {
                return true;
            }
            let mut epoch = self.epoch.lock();
            while *epoch == seen {
                match deadline {
                    Some(at) if self.moved.wait_until(&mut epoch, at).timed_out() => {
                        drop(epoch);
                        return ready();
                    }
                    Some(_) => {}
                    None => self.moved.wait(&mut epoch),
                }
            }
        }
    }
}

#[derive(Debug, Default)]
struct Shared {
    canceled: AtomicBool,
    signal: Signal,
}

/// A shared cancellation flag. Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    shared: Arc<Shared>,
}

impl CancelToken {
    /// A fresh, uncanceled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation and wake the run. Idempotent.
    pub fn cancel(&self) {
        self.shared.canceled.store(true, Ordering::Release);
        self.shared.signal.notify();
    }

    /// Whether cancellation has been requested.
    pub fn is_canceled(&self) -> bool {
        self.shared.canceled.load(Ordering::Acquire)
    }

    /// The signal `cancel` notifies.
    pub(crate) fn signal(&self) -> &Signal {
        &self.shared.signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let t2 = t.clone();
        assert!(!t.is_canceled());
        t2.cancel();
        assert!(t.is_canceled());
        t.cancel(); // idempotent
        assert!(t2.is_canceled());
    }

    /// The lost wake-up the epoch exists for: the condition turns true, and
    /// the notify fires, after the waiter evaluated it and before it sleeps.
    #[test]
    fn a_notify_between_the_check_and_the_sleep_is_not_lost() {
        let s = Signal::default();
        let flag = AtomicBool::new(false);
        let mut evaluations = 0;
        let held = s.wait_until(None, || {
            evaluations += 1;
            if evaluations == 1 {
                // What another thread would do right after this evaluation.
                flag.store(true, Ordering::Release);
                s.notify();
                return false;
            }
            flag.load(Ordering::Acquire)
        });
        assert!(held);
        assert_eq!(evaluations, 2);
    }

    #[test]
    fn wait_honours_its_deadline() {
        let s = Signal::default();
        let t0 = Instant::now();
        assert!(!s.wait_until(Some(t0 + Duration::from_millis(10)), || false));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn cancel_wakes_a_parked_waiter() {
        let token = CancelToken::new();
        let waiter = token.clone();
        let t =
            std::thread::spawn(move || waiter.signal().wait_until(None, || waiter.is_canceled()));
        token.cancel();
        assert!(t.join().unwrap());
    }
}
