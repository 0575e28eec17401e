//! Cooperative cancellation for long-running campaigns.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the party
//! that wants to stop a campaign (a service's drain path, a Ctrl-C
//! handler) and the [`crate::Evaluator`] executing it. Cancellation is
//! *trial-granular*: workers finish the trial they are currently
//! simulating (a walk group stops at its next chunk of the shared walk
//! and drops its unfinished members), stop claiming new ones, and every
//! cell whose full trial set completed before the stop is installed and
//! persisted exactly as if the campaign had run to completion. Cells left incomplete surface
//! as [`crate::EvalError::Cancelled`] and are **not** written to the
//! result store, so a later retry recomputes them from scratch.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared stop flag observed by the experiment engine between trials.
///
/// Cloning shares the flag; once [`CancelToken::cancel`] fires the token
/// stays cancelled forever (there is deliberately no reset — a drained
/// evaluator should be dropped, not reused).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation: in-flight trials finish, no new trials
    /// start. Idempotent.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled());
        b.cancel(); // idempotent
        assert!(b.is_cancelled());
    }
}
