//! Queue names and message formats used by EnTK components.
//!
//! Queues (Fig. 2): the Pending queue (arrows 1–2). The paper's Done queue
//! (arrows 4–5), its synchronization queues into AppManager and its
//! acknowledgement queues (arrows 6–7) are function calls here: the RTS
//! Callback thread that receives an attempt's end settles it (see
//! [`crate::wfprocessor`]), and a component's `Ctx::sync_tasks` applies its
//! batch under the workflow lock on its own thread (see
//! [`crate::synchronizer`]). The per-run queues are not durable, so such a
//! queue would carry no durability (the `StateStore` holds it) — only a
//! broker hop and a thread hand-off.
//!
//! The data path carries no headers: a Pending message is a task's uid,
//! plus the trace context (`Message::with_trace`) when one rides along.
//! PST objects themselves live in the AppManager, the only stateful
//! component.

use entk_mq::{Attachment, Message};
use std::sync::Arc;

/// The Pending queue: tasks tagged for execution.
pub const PENDING: &str = "entk-pending";
/// Fetch timeout of a component loop that owns its queue's consumer side:
/// long enough never to fire, because the wait ends when a message arrives
/// or when tear-down closes the queue (the fetch then fails with
/// `BrokerClosed`), not on a timer.
pub(crate) const UNTIL_CLOSED: std::time::Duration = std::time::Duration::from_secs(86_400 * 365);

/// Session-scoped queue names.
///
/// A standalone `AppManager::run` owns its broker, so the legacy global
/// name ([`PENDING`]) suffices. When many sessions share one broker (the
/// entk-service case) every session gets a prefix — `entk-{session}-pending`
/// — so their message streams cannot cross. The queue name is precomputed
/// once per session; the hot paths borrow it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueNamespace {
    /// Session id, empty for the root namespace.
    session: String,
    pending: String,
}

impl QueueNamespace {
    /// The root namespace: the legacy global queue name.
    pub fn root() -> Self {
        QueueNamespace {
            session: String::new(),
            pending: PENDING.to_string(),
        }
    }

    /// A session-scoped namespace: `entk-{session}-pending`.
    pub fn session(id: impl Into<String>) -> Self {
        let id = id.into();
        QueueNamespace {
            pending: format!("entk-{id}-pending"),
            session: id,
        }
    }

    /// The session id (`""` for the root namespace).
    pub fn session_id(&self) -> &str {
        &self.session
    }

    /// The queue-name prefix shared by every queue of this namespace, for
    /// bulk cleanup (`Broker::delete_matching`).
    pub fn prefix(&self) -> String {
        if self.session.is_empty() {
            "entk-".to_string()
        } else {
            format!("entk-{}-", self.session)
        }
    }

    /// The Pending queue name.
    pub fn pending(&self) -> &str {
        &self.pending
    }

    /// Every queue name in this namespace (declare / cleanup order).
    pub fn all(&self) -> [&str; 1] {
        [self.pending()]
    }
}

impl Default for QueueNamespace {
    fn default() -> Self {
        Self::root()
    }
}

/// Outcome of an RTS attempt, as the RTS Callback hands it to Dequeue's
/// verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The unit completed successfully.
    Done,
    /// The unit failed with a diagnostic.
    Failed(String),
    /// The unit was canceled by the CI/pilot.
    Canceled,
    /// The unit was lost to an RTS failure (does not consume retry budget).
    Lost,
}

/// A task queued for execution (Pending queue message).
pub fn pending_message(task_uid: &str) -> Message {
    Message::new(task_uid.as_bytes().to_vec())
}

/// Extract the task uid from a Pending message.
pub fn parse_pending(msg: &Message) -> String {
    msg.payload_str().into_owned()
}

/// The simulator's reaction credits a component holds while it reacts
/// (DESIGN.md, hpc-sim): the attachments of what it reacts to, each kept
/// once. Opaque here; dropping the last holder of a credit lets the virtual
/// clock move on.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reaction(Vec<Attachment>);

impl Reaction {
    /// A reaction holding `credits` (the RTS callbacks' or a fresh hold).
    pub(crate) fn holding(credits: Vec<hpc_sim::Credit>) -> Self {
        Reaction(vec![Arc::new(credits)])
    }

    fn add(&mut self, a: &Attachment) {
        if !self.0.iter().any(|held| Arc::ptr_eq(held, a)) {
            self.0.push(Arc::clone(a));
        }
    }

    /// Hold `other`'s credits too.
    pub(crate) fn absorb(&mut self, other: Reaction) {
        for a in &other.0 {
            self.add(a);
        }
    }

    /// One attachment that holds all of it, to ride along on messages.
    pub(crate) fn attachment(&self) -> Option<Attachment> {
        match self.0.as_slice() {
            [] => None,
            [one] => Some(Arc::clone(one)),
            many => Some(Arc::new(many.to_vec())),
        }
    }
}

/// `msg` carrying `hold`, if any.
pub(crate) fn attached(msg: Message, hold: &Option<Attachment>) -> Message {
    match hold {
        Some(a) => msg.with_attachment(Arc::clone(a)),
        None => msg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_roundtrip() {
        let m = pending_message("task.0042");
        assert_eq!(parse_pending(&m), "task.0042");
    }

    #[test]
    fn root_namespace_matches_legacy_constants() {
        let ns = QueueNamespace::root();
        assert_eq!(ns.pending(), PENDING);
        assert_eq!(ns.session_id(), "");
        assert_eq!(ns.all(), [PENDING]);
    }

    #[test]
    fn session_namespaces_are_disjoint() {
        let a = QueueNamespace::session("s01");
        let b = QueueNamespace::session("s02");
        let names_a = a.all();
        for name in b.all() {
            assert!(!names_a.contains(&name), "{name} collides");
            assert!(name.starts_with(&b.prefix()));
        }
        assert_eq!(a.pending(), "entk-s01-pending");
        assert_eq!(a.prefix(), "entk-s01-");
    }

    #[test]
    fn reaction_keeps_each_attachment_once_and_releases_with_its_holders() {
        let a: Attachment = Arc::new(());
        let alive = Arc::downgrade(&a);
        let mut r = Reaction(vec![Arc::clone(&a)]);
        r.absorb(Reaction(vec![Arc::clone(&a), a]));
        r.absorb(Reaction::default());
        assert_eq!(r.0.len(), 1);
        let hold = r.attachment();
        drop(r);
        assert_eq!(alive.strong_count(), 1, "the attachment still holds it");
        let m = attached(Message::new("w"), &hold);
        drop(hold);
        assert_eq!(alive.strong_count(), 1);
        drop(m);
        assert_eq!(alive.strong_count(), 0);
        assert!(Reaction::default().attachment().is_none());
    }
}
