//! Queue names and message formats used by EnTK components.
//!
//! Queues (Fig. 2): the Pending queue (arrows 1–2), the Done queue (arrows
//! 4–5), the synchronization queue from every component to AppManager's
//! Synchronizer (arrow 6) and one acknowledgement queue per subcomponent
//! (arrow 7). Messages carry uids in the payload and metadata in headers —
//! PST objects themselves live in the AppManager, the only stateful
//! component.

use crate::uid::Kind;
use entk_mq::{Attachment, Message};
use std::sync::Arc;

/// The Pending queue: tasks tagged for execution.
pub const PENDING: &str = "entk-pending";
/// The Done queue: tasks whose RTS attempt reached a terminal state.
pub const DONE: &str = "entk-done";
/// Base name of the synchronization queues into AppManager. The sync plane
/// is sharded per requesting component ([`sync_queue`]): ordering was only
/// ever guaranteed *within* a component (each component publishes its
/// requests in order and waits for acks), so per-component FIFOs preserve
/// every documented invariant while letting the Synchronizer drain the
/// shards in parallel — and letting the sharded broker hash them onto
/// different shards.
pub const SYNC: &str = "entk-sync";

/// Fetch timeout of a component loop that owns its queue's consumer side:
/// long enough never to fire, because the wait ends when a message arrives
/// or when tear-down closes the queue (the fetch then fails with
/// `BrokerClosed`), not on a timer.
pub(crate) const UNTIL_CLOSED: std::time::Duration = std::time::Duration::from_secs(86_400 * 365);

/// Acknowledgement queue for a subcomponent.
pub fn ack_queue(component: &str) -> String {
    format!("entk-ack-{component}")
}

/// Synchronization queue shard for a subcomponent (arrow 6, sharded).
pub fn sync_queue(component: &str) -> String {
    format!("{SYNC}-{component}")
}

/// Session-scoped queue names.
///
/// A standalone `AppManager::run` owns its broker, so the legacy global
/// names ([`PENDING`], [`DONE`], [`SYNC`], `entk-ack-*`) suffice. When many
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
    sync_shards: [String; component::ALL.len()],
    acks: [String; component::ALL.len()],
}

impl QueueNamespace {
    /// The root namespace: the legacy global queue names.
    pub fn root() -> Self {
        QueueNamespace {
            session: String::new(),
            pending: PENDING.to_string(),
            done: DONE.to_string(),
            sync_shards: component::ALL.map(sync_queue),
            acks: component::ALL.map(ack_queue),
        }
    }

    /// A session-scoped namespace: `entk-{session}-pending` and friends.
    pub fn session(id: impl Into<String>) -> Self {
        let id = id.into();
        QueueNamespace {
            pending: format!("entk-{id}-pending"),
            done: format!("entk-{id}-done"),
            sync_shards: component::ALL.map(|c| format!("entk-{id}-sync-{c}")),
            acks: component::ALL.map(|c| format!("entk-{id}-ack-{c}")),
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

    /// The synchronization queue shard for a subcomponent (arrow 6). One
    /// FIFO per component: requests from a single component stay strictly
    /// ordered, while different components' shards drain in parallel.
    /// `component` must be one of [`component::ALL`]; unknown names fall
    /// back to a freshly formatted name (correct but allocating).
    pub fn sync_shard(&self, comp: &str) -> std::borrow::Cow<'_, str> {
        match component::ALL.iter().position(|c| *c == comp) {
            Some(i) => std::borrow::Cow::Borrowed(&self.sync_shards[i]),
            None if self.session.is_empty() => std::borrow::Cow::Owned(sync_queue(comp)),
            None => std::borrow::Cow::Owned(format!("entk-{}-sync-{comp}", self.session)),
        }
    }

    /// All synchronization queue shards, indexed like [`component::ALL`].
    pub fn sync_shards(&self) -> &[String] {
        &self.sync_shards
    }

    /// The acknowledgement queue for a subcomponent. `component` must be one
    /// of [`component::ALL`]; unknown names fall back to a freshly formatted
    /// name (correct but allocating).
    pub fn ack(&self, comp: &str) -> std::borrow::Cow<'_, str> {
        match component::ALL.iter().position(|c| *c == comp) {
            Some(i) => std::borrow::Cow::Borrowed(&self.acks[i]),
            None if self.session.is_empty() => std::borrow::Cow::Owned(ack_queue(comp)),
            None => std::borrow::Cow::Owned(format!("entk-{}-ack-{comp}", self.session)),
        }
    }

    /// Every queue name in this namespace (declare / cleanup order).
    pub fn all(&self) -> Vec<&str> {
        let mut names = vec![self.pending(), self.done()];
        names.extend(self.sync_shards.iter().map(String::as_str));
        names.extend(self.acks.iter().map(String::as_str));
        names
    }
}

impl Default for QueueNamespace {
    fn default() -> Self {
        Self::root()
    }
}

/// Subcomponent names (used for ack-queue routing and profiling).
pub mod component {
    /// WFProcessor's Enqueue.
    pub const ENQUEUE: &str = "enqueue";
    /// WFProcessor's Dequeue.
    pub const DEQUEUE: &str = "dequeue";
    /// ExecManager's Emgr.
    pub const EMGR: &str = "emgr";
    /// ExecManager's RTS Callback.
    pub const CALLBACK: &str = "callback";
    /// ExecManager's Heartbeat.
    pub const HEARTBEAT: &str = "heartbeat";

    /// All subcomponents that own an ack queue.
    pub const ALL: [&str; 5] = [ENQUEUE, DEQUEUE, EMGR, CALLBACK, HEARTBEAT];
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
    fn tag(&self) -> &'static str {
        match self {
            AttemptOutcome::Done => "done",
            AttemptOutcome::Failed(_) => "failed",
            AttemptOutcome::Canceled => "canceled",
            AttemptOutcome::Lost => "lost",
        }
    }
}

/// A task queued for execution (Pending queue message).
pub fn pending_message(task_uid: &str) -> Message {
    Message::new(task_uid.as_bytes().to_vec())
}

/// Extract the task uid from a Pending message.
pub fn parse_pending(msg: &Message) -> String {
    msg.payload_str().into_owned()
}

/// A completed-attempt notification (Done queue message).
pub fn done_message(task_uid: &str, outcome: &AttemptOutcome) -> Message {
    let mut m = Message::new(task_uid.as_bytes().to_vec()).with_header("outcome", outcome.tag());
    if let AttemptOutcome::Failed(reason) = outcome {
        m = m.with_header("reason", reason.clone());
    }
    m
}

/// Parse a Done message into (uid, outcome).
pub fn parse_done(msg: &Message) -> (String, AttemptOutcome) {
    let uid = msg.payload_str().into_owned();
    let outcome = match msg.headers.get("outcome").map(String::as_str) {
        Some("done") => AttemptOutcome::Done,
        Some("failed") => AttemptOutcome::Failed(
            msg.headers
                .get("reason")
                .cloned()
                .unwrap_or_else(|| "unknown".into()),
        ),
        Some("canceled") => AttemptOutcome::Canceled,
        Some("lost") => AttemptOutcome::Lost,
        other => AttemptOutcome::Failed(format!("malformed outcome header: {other:?}")),
    };
    (uid, outcome)
}

/// A state-transition request pushed to the Synchronizer (arrow 6).
pub fn sync_message(component: &str, kind: Kind, uid: &str, state: &str) -> Message {
    Message::new(uid.as_bytes().to_vec())
        .with_header("component", component)
        .with_header("kind", kind.name())
        .with_header("state", state)
}

/// Parsed synchronization request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRequest {
    /// Requesting subcomponent (ack routing).
    pub component: String,
    /// Object kind.
    pub kind: Kind,
    /// Object uid.
    pub uid: String,
    /// Requested state name.
    pub state: String,
}

/// Parse a sync message; `None` if malformed.
pub fn parse_sync(msg: &Message) -> Option<SyncRequest> {
    Some(SyncRequest {
        component: msg.headers.get("component")?.clone(),
        kind: Kind::parse(msg.headers.get("kind")?)?,
        uid: msg.payload_str().into_owned(),
        state: msg.headers.get("state")?.clone(),
    })
}

/// Acknowledgement of a sync request (arrow 7). The payload is the uid; the
/// `ok` header reports whether the transition was applied.
pub fn ack_message(uid: &str, ok: bool) -> Message {
    Message::new(uid.as_bytes().to_vec()).with_header("ok", if ok { "1" } else { "0" })
}

/// Parse an ack into (uid, ok).
pub fn parse_ack(msg: &Message) -> (String, bool) {
    (
        msg.payload_str().into_owned(),
        msg.headers.get("ok").map(String::as_str) == Some("1"),
    )
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
    fn sync_roundtrip() {
        let m = sync_message(component::ENQUEUE, Kind::Task, "task.3", "scheduling");
        let req = parse_sync(&m).unwrap();
        assert_eq!(req.component, "enqueue");
        assert_eq!(req.kind, Kind::Task);
        assert_eq!(req.uid, "task.3");
        assert_eq!(req.state, "scheduling");
    }

    #[test]
    fn sync_missing_headers_is_none() {
        assert!(parse_sync(&Message::new("task.3")).is_none());
    }

    #[test]
    fn ack_roundtrip() {
        let (uid, ok) = parse_ack(&ack_message("task.5", true));
        assert_eq!(uid, "task.5");
        assert!(ok);
        let (_, ok) = parse_ack(&ack_message("task.5", false));
        assert!(!ok);
    }

    #[test]
    fn root_namespace_matches_legacy_constants() {
        let ns = QueueNamespace::root();
        assert_eq!(ns.pending(), PENDING);
        assert_eq!(ns.done(), DONE);
        for comp in component::ALL {
            assert_eq!(ns.ack(comp), ack_queue(comp));
            assert_eq!(ns.sync_shard(comp), sync_queue(comp));
            assert_eq!(ns.sync_shard(comp), format!("{SYNC}-{comp}"));
        }
        assert_eq!(ns.session_id(), "");
        assert_eq!(ns.all().len(), 2 + 2 * component::ALL.len());
    }

    #[test]
    fn sync_shards_are_per_component_and_namespaced() {
        let ns = QueueNamespace::session("s07");
        assert_eq!(ns.sync_shard(component::EMGR), "entk-s07-sync-emgr");
        assert_eq!(ns.sync_shard("weird"), "entk-s07-sync-weird");
        assert_eq!(
            QueueNamespace::root().sync_shard("weird"),
            "entk-sync-weird"
        );
        // Indexed like component::ALL, unique, and inside the session prefix
        // so delete_matching sweeps them with the rest of the namespace.
        let shards = ns.sync_shards();
        assert_eq!(shards.len(), component::ALL.len());
        for (i, comp) in component::ALL.iter().enumerate() {
            assert_eq!(shards[i], ns.sync_shard(comp).as_ref());
            assert!(shards[i].starts_with(&ns.prefix()));
        }
        let mut unique: Vec<&String> = shards.iter().collect();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), shards.len());
    }

    #[test]
    fn session_namespaces_are_disjoint() {
        let a = QueueNamespace::session("s01");
        let b = QueueNamespace::session("s02");
        let names_a: Vec<&str> = a.all();
        for name in b.all() {
            assert!(!names_a.contains(&name), "{name} collides");
            assert!(name.starts_with(&b.prefix()));
        }
        assert_eq!(a.pending(), "entk-s01-pending");
        assert_eq!(a.ack(component::EMGR), "entk-s01-ack-emgr");
        assert_eq!(a.prefix(), "entk-s01-");
    }

    #[test]
    fn unknown_component_ack_still_namespaced() {
        let ns = QueueNamespace::session("x");
        assert_eq!(ns.ack("weird"), "entk-x-ack-weird");
        assert_eq!(QueueNamespace::root().ack("weird"), "entk-ack-weird");
    }

    #[test]
    fn ack_queue_names_unique() {
        let mut names: Vec<String> = component::ALL.iter().map(|c| ack_queue(c)).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), component::ALL.len());
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
