//! Queue names and message formats used by EnTK components.
//!
//! Queues (Fig. 2): the Pending queue (arrows 1–2) and the Done queue
//! (arrows 4–5). The paper's synchronization queues into AppManager and its
//! acknowledgement queues (arrows 6–7) are function calls here: a
//! component's `Ctx::sync_tasks` applies its batch under the workflow lock
//! on its own thread (see [`crate::synchronizer`]). The per-run queues are
//! not durable, so a sync queue would carry no durability (the `StateStore`
//! holds it) — only a broker hop whose sender waits for the answer anyway.
//!
//! The data path carries no headers: a message is its payload, plus the
//! trace context (`Message::with_trace`) when one rides along. A Pending
//! message is a uid; a Done message is the outcome's byte, the uid and a
//! failure's reason. PST objects themselves live in the AppManager, the
//! only stateful component.

use entk_mq::{Attachment, Message};
use std::sync::Arc;

/// The Pending queue: tasks tagged for execution.
pub const PENDING: &str = "entk-pending";
/// The Done queue: tasks whose RTS attempt reached a terminal state.
pub const DONE: &str = "entk-done";
/// Fetch timeout of a component loop that owns its queue's consumer side:
/// long enough never to fire, because the wait ends when a message arrives
/// or when tear-down closes the queue (the fetch then fails with
/// `BrokerClosed`), not on a timer.
pub(crate) const UNTIL_CLOSED: std::time::Duration = std::time::Duration::from_secs(86_400 * 365);

/// Session-scoped queue names.
///
/// A standalone `AppManager::run` owns its broker, so the legacy global
/// names ([`PENDING`], [`DONE`]) suffice. When many
/// sessions share one broker (the entk-service case) every session gets a
/// prefix — `entk-{session}-pending` etc. — so their message streams cannot
/// cross. All queue names are precomputed once per session; the hot paths
/// borrow them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueNamespace {
    /// Session id, empty for the root namespace.
    session: String,
    pending: String,
    done: String,
}

impl QueueNamespace {
    /// The root namespace: the legacy global queue names.
    pub fn root() -> Self {
        QueueNamespace {
            session: String::new(),
            pending: PENDING.to_string(),
            done: DONE.to_string(),
        }
    }

    /// A session-scoped namespace: `entk-{session}-pending` and friends.
    pub fn session(id: impl Into<String>) -> Self {
        let id = id.into();
        QueueNamespace {
            pending: format!("entk-{id}-pending"),
            done: format!("entk-{id}-done"),
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

    /// The Done queue name.
    pub fn done(&self) -> &str {
        &self.done
    }

    /// Every queue name in this namespace (declare / cleanup order).
    pub fn all(&self) -> [&str; 2] {
        [self.pending(), self.done()]
    }
}

impl Default for QueueNamespace {
    fn default() -> Self {
        Self::root()
    }
}

/// Outcome of an RTS attempt, as carried on the Done queue.
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

impl AttemptOutcome {
    /// The outcome's byte on the Done queue.
    fn code(&self) -> u8 {
        match self {
            AttemptOutcome::Done => 0,
            AttemptOutcome::Failed(_) => 1,
            AttemptOutcome::Canceled => 2,
            AttemptOutcome::Lost => 3,
        }
    }
}

/// Append `s` to `buf`, prefixed with its length (`u32`, little-endian).
fn put_str(buf: &mut Vec<u8>, s: &str) {
    let len = u32::try_from(s.len()).expect("a uid shorter than 4 GiB");
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// Split the next length-prefixed string off the front of `bytes`; `None`
/// if it is cut short or not UTF-8.
fn take_str<'a>(bytes: &mut &'a [u8]) -> Option<&'a str> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    if rest.len() < len {
        return None;
    }
    let (s, rest) = rest.split_at(len);
    *bytes = rest;
    std::str::from_utf8(s).ok()
}

/// A task queued for execution (Pending queue message).
pub fn pending_message(task_uid: &str) -> Message {
    Message::new(task_uid.as_bytes().to_vec())
}

/// Extract the task uid from a Pending message.
pub fn parse_pending(msg: &Message) -> String {
    msg.payload_str().into_owned()
}

/// A completed-attempt notification (Done queue message): the outcome's
/// byte, the length-prefixed uid and, for a failure, its reason.
pub fn done_message(task_uid: &str, outcome: &AttemptOutcome) -> Message {
    let reason = match outcome {
        AttemptOutcome::Failed(reason) => reason.as_str(),
        _ => "",
    };
    let mut payload = Vec::with_capacity(1 + 4 + task_uid.len() + reason.len());
    payload.push(outcome.code());
    put_str(&mut payload, task_uid);
    payload.extend_from_slice(reason.as_bytes());
    Message::new(payload)
}

/// Parse a Done message into (uid, outcome). A message that does not
/// decode reads as a failed attempt of the uid its payload spells.
pub fn parse_done(msg: &Message) -> (String, AttemptOutcome) {
    let decoded = msg.payload.split_first().and_then(|(code, mut rest)| {
        let uid = take_str(&mut rest)?;
        let outcome = match code {
            0 => AttemptOutcome::Done,
            1 => AttemptOutcome::Failed(String::from_utf8_lossy(rest).into_owned()),
            2 => AttemptOutcome::Canceled,
            3 => AttemptOutcome::Lost,
            _ => return None,
        };
        Some((uid.to_string(), outcome))
    });
    decoded.unwrap_or_else(|| {
        (
            msg.payload_str().into_owned(),
            AttemptOutcome::Failed("malformed done message".into()),
        )
    })
}

/// The simulator's reaction credits a component holds while it reacts
/// (DESIGN.md, hpc-sim): the attachments of the messages it reacts to,
/// each kept once. Opaque here; dropping the last holder of a credit lets
/// the virtual clock move on.
#[derive(Debug, Clone, Default)]
pub(crate) struct Reaction(Vec<Attachment>);

impl Reaction {
    /// A reaction holding `credits` (the RTS callbacks' or a fresh hold).
    pub(crate) fn holding(credits: Vec<hpc_sim::Credit>) -> Self {
        Reaction(vec![Arc::new(credits)])
    }

    /// The attachments of `messages`.
    pub(crate) fn of<'a>(messages: impl IntoIterator<Item = &'a Message>) -> Self {
        let mut r = Reaction::default();
        for a in messages.into_iter().filter_map(|m| m.attachment.as_ref()) {
            r.add(a);
        }
        r
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
    fn done_roundtrip_all_outcomes() {
        for outcome in [
            AttemptOutcome::Done,
            AttemptOutcome::Failed("oom".into()),
            AttemptOutcome::Canceled,
            AttemptOutcome::Lost,
        ] {
            let m = done_message("task.7", &outcome);
            let (uid, parsed) = parse_done(&m);
            assert_eq!(uid, "task.7");
            assert_eq!(parsed, outcome);
        }
    }

    #[test]
    fn malformed_done_becomes_failed() {
        let m = Message::new("task.1");
        let (_, outcome) = parse_done(&m);
        assert!(matches!(outcome, AttemptOutcome::Failed(_)));
    }

    #[test]
    fn root_namespace_matches_legacy_constants() {
        let ns = QueueNamespace::root();
        assert_eq!(ns.pending(), PENDING);
        assert_eq!(ns.done(), DONE);
        assert_eq!(ns.session_id(), "");
        assert_eq!(ns.all(), [PENDING, DONE]);
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
        assert_eq!(a.done(), "entk-s01-done");
        assert_eq!(a.prefix(), "entk-s01-");
    }

    #[test]
    fn reaction_keeps_each_attachment_once_and_releases_with_its_holders() {
        let a: Attachment = Arc::new(());
        let alive = Arc::downgrade(&a);
        let msgs = [
            Message::new("x").with_attachment(Arc::clone(&a)),
            Message::new("y").with_attachment(a),
            Message::new("z"),
        ];
        let mut r = Reaction::of(&msgs);
        r.absorb(Reaction::of(&msgs));
        assert_eq!(r.0.len(), 1);
        drop(msgs);
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
