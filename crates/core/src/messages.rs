//! Queue names and message formats used by EnTK components.
//!
//! Queues (Fig. 2): the Pending queue (arrows 1–2), the Done queue (arrows
//! 4–5) and the synchronization queues from every component to AppManager's
//! Synchronizer (arrow 6). The paper's Synchronizer "acknowledges the
//! updates via dedicated queues" (arrow 7); here the acknowledgement is an
//! in-process `Reply` that rides on the requests themselves. The per-run
//! queues are not durable, so an ack message would carry no durability (the
//! `StateStore` holds it) — only a second broker hop. Messages carry uids in
//! the payload and metadata in headers — PST objects themselves live in the
//! AppManager, the only stateful component.

use entk_mq::{Attachment, Message};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

/// The Pending queue: tasks tagged for execution.
pub const PENDING: &str = "entk-pending";
/// The Done queue: tasks whose RTS attempt reached a terminal state.
pub const DONE: &str = "entk-done";
/// Base name of the synchronization queues into AppManager. The sync plane
/// is sharded per requesting component ([`sync_queue`]): ordering was only
/// ever guaranteed *within* a component (each component publishes its
/// requests in order and waits for their reply), so per-component FIFOs
/// preserve every documented invariant while letting the Synchronizer drain
/// the shards in parallel — and letting the sharded broker hash them onto
/// different shards.
pub const SYNC: &str = "entk-sync";

/// Fetch timeout of a component loop that owns its queue's consumer side:
/// long enough never to fire, because the wait ends when a message arrives
/// or when tear-down closes the queue (the fetch then fails with
/// `BrokerClosed`), not on a timer.
pub(crate) const UNTIL_CLOSED: std::time::Duration = std::time::Duration::from_secs(86_400 * 365);

/// Synchronization queue shard for a subcomponent (arrow 6, sharded).
pub fn sync_queue(component: &str) -> String {
    format!("{SYNC}-{component}")
}

/// Session-scoped queue names.
///
/// A standalone `AppManager::run` owns its broker, so the legacy global
/// names ([`PENDING`], [`DONE`], the [`SYNC`] shards) suffice. When many
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
}

impl QueueNamespace {
    /// The root namespace: the legacy global queue names.
    pub fn root() -> Self {
        QueueNamespace {
            session: String::new(),
            pending: PENDING.to_string(),
            done: DONE.to_string(),
            sync_shards: component::ALL.map(sync_queue),
        }
    }

    /// A session-scoped namespace: `entk-{session}-pending` and friends.
    pub fn session(id: impl Into<String>) -> Self {
        let id = id.into();
        QueueNamespace {
            pending: format!("entk-{id}-pending"),
            done: format!("entk-{id}-done"),
            sync_shards: component::ALL.map(|c| format!("entk-{id}-sync-{c}")),
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

    /// The synchronization queue shard of a subcomponent, one of
    /// [`component::ALL`] (arrow 6). One FIFO per component: requests from a
    /// single component stay strictly ordered, while different components'
    /// shards drain in parallel.
    pub fn sync_shard(&self, comp: &str) -> &str {
        let i = component::ALL.iter().position(|c| *c == comp);
        &self.sync_shards[i.expect("a subcomponent of component::ALL")]
    }

    /// All synchronization queue shards, indexed like [`component::ALL`].
    pub fn sync_shards(&self) -> &[String] {
        &self.sync_shards
    }

    /// Every queue name in this namespace (declare / cleanup order).
    pub fn all(&self) -> Vec<&str> {
        let mut names = vec![self.pending(), self.done()];
        names.extend(self.sync_shards.iter().map(String::as_str));
        names
    }
}

impl Default for QueueNamespace {
    fn default() -> Self {
        Self::root()
    }
}

/// Subcomponent names (used for sync-shard routing and profiling).
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

    /// All subcomponents that own a sync shard.
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

/// A state-transition request pushed to the Synchronizer (arrow 6). The
/// requester attaches its batch's reply.
pub fn sync_message(uid: &str, state: &str) -> Message {
    Message::new(uid.as_bytes().to_vec()).with_header("state", state)
}

/// Parsed synchronization request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncRequest {
    /// Task uid.
    pub uid: String,
    /// Requested state name.
    pub state: String,
}

/// Parse a sync message; `None` if malformed.
pub fn parse_sync(msg: &Message) -> Option<SyncRequest> {
    Some(SyncRequest {
        uid: msg.payload_str().into_owned(),
        state: msg.headers.get("state")?.clone(),
    })
}

/// The Synchronizer's answer to one sync batch (arrow 7, in process): the
/// applied flag of each request, in request order. The requester keeps the
/// `Reply`; its requests share one [`ReplyTo`] as their attachment.
#[derive(Debug, Default)]
pub(crate) struct Reply {
    requests: usize,
    answer: Mutex<Answer>,
    moved: Condvar,
}

#[derive(Debug, Default)]
struct Answer {
    applied: Vec<bool>,
    /// The last request let go of the reply: nothing more will be written.
    closed: bool,
}

impl Reply {
    /// A reply to `requests` requests, and the attachment they carry.
    pub(crate) fn new(requests: usize) -> (Arc<Reply>, Attachment) {
        let reply = Arc::new(Reply {
            requests,
            ..Reply::default()
        });
        (Arc::clone(&reply), Arc::new(ReplyTo(reply)))
    }

    /// Block until every request is answered or no request is left to
    /// answer; a request that went unanswered reads refused.
    pub(crate) fn wait(&self) -> Vec<bool> {
        let mut answer = self.answer.lock();
        while answer.applied.len() < self.requests && !answer.closed {
            self.moved.wait(&mut answer);
        }
        let mut applied = std::mem::take(&mut answer.applied);
        applied.resize(self.requests, false);
        applied
    }
}

/// What the requests of one sync batch carry. The broker lets go of it
/// with the messages — once they are answered and acked, or when they are
/// purged or deleted with their shard — and the last one to go closes the
/// reply, so the requester cannot outwait a request nobody will answer.
#[derive(Debug)]
pub(crate) struct ReplyTo(Arc<Reply>);

impl ReplyTo {
    /// Answer the batch's next request.
    pub(crate) fn answer(&self, applied: bool) {
        let mut answer = self.0.answer.lock();
        answer.applied.push(applied);
        if answer.applied.len() == self.0.requests {
            self.0.moved.notify_all();
        }
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        self.0.answer.lock().closed = true;
        self.0.moved.notify_all();
    }
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
        let req = parse_sync(&sync_message("task.3", "scheduling")).unwrap();
        assert_eq!(req.uid, "task.3");
        assert_eq!(req.state, "scheduling");
    }

    #[test]
    fn sync_missing_headers_is_none() {
        assert!(parse_sync(&Message::new("task.3")).is_none());
    }

    #[test]
    fn root_namespace_matches_legacy_constants() {
        let ns = QueueNamespace::root();
        assert_eq!(ns.pending(), PENDING);
        assert_eq!(ns.done(), DONE);
        for comp in component::ALL {
            assert_eq!(ns.sync_shard(comp), sync_queue(comp));
            assert_eq!(ns.sync_shard(comp), format!("{SYNC}-{comp}"));
        }
        assert_eq!(ns.session_id(), "");
        assert_eq!(ns.all().len(), 2 + component::ALL.len());
    }

    #[test]
    fn sync_shards_are_per_component_and_namespaced() {
        let ns = QueueNamespace::session("s07");
        assert_eq!(ns.sync_shard(component::EMGR), "entk-s07-sync-emgr");
        // Indexed like component::ALL, unique, and inside the session prefix
        // so delete_matching sweeps them with the rest of the namespace.
        let shards = ns.sync_shards();
        assert_eq!(shards.len(), component::ALL.len());
        for (i, comp) in component::ALL.iter().enumerate() {
            assert_eq!(shards[i], ns.sync_shard(comp));
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
        assert_eq!(a.sync_shard(component::EMGR), "entk-s01-sync-emgr");
        assert_eq!(a.prefix(), "entk-s01-");
    }

    #[test]
    fn a_reply_refuses_what_its_requests_took_away_unanswered() {
        let (reply, reply_to) = Reply::new(3);
        let requests: Vec<Message> = ["t.0", "t.1", "t.2"]
            .iter()
            .map(|uid| sync_message(uid, "scheduling").with_attachment(Arc::clone(&reply_to)))
            .collect();
        drop(reply_to);
        let carried = requests[0].attachment.as_deref();
        carried
            .and_then(|a| a.downcast_ref::<ReplyTo>())
            .expect("every request carries its batch's reply")
            .answer(true);
        drop(requests); // purged, or deleted with the shard
        assert_eq!(reply.wait(), [true, false, false]);
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
