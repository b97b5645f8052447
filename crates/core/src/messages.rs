//! Queue names and message formats used by EnTK components.
//!
//! Queues (Fig. 2): the Pending queue (arrows 1–2), the Done queue (arrows
//! 4–5) and the synchronization queues from every component to AppManager's
//! Synchronizer (arrow 6). The paper's Synchronizer "acknowledges the
//! updates via dedicated queues" (arrow 7); here the acknowledgement is an
//! in-process `Reply` that rides on the request itself. The per-run
//! queues are not durable, so an ack message would carry no durability (the
//! `StateStore` holds it) — only a second broker hop.
//!
//! The data path carries no headers: a message is its payload, plus the
//! trace context (`Message::with_trace`) when one rides along. A Pending
//! message is a uid; a Done message is the outcome's byte, the uid and a
//! failure's reason; a sync message is one *batch* — a state byte and the
//! length-prefixed uids of every task that should take it — so a component
//! pays one broker message per `Ctx::sync_tasks` call, not one per task.
//! PST objects themselves live in the AppManager, the only stateful
//! component.

use crate::states::TaskState;
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

/// One sync batch pushed to the Synchronizer (arrow 6): the same
/// transition requested for every uid, in one message with no headers —
/// the state's byte (its index in [`TaskState::ALL`]) followed by the
/// length-prefixed uids. The requester attaches the batch's reply.
pub fn sync_message(state: TaskState, uids: &[String]) -> Message {
    let len = 1 + uids.iter().map(|uid| 4 + uid.len()).sum::<usize>();
    let mut payload = Vec::with_capacity(len);
    let index = TaskState::ALL.iter().position(|s| *s == state);
    payload.push(index.expect("a state of TaskState::ALL") as u8);
    for uid in uids {
        put_str(&mut payload, uid);
    }
    Message::new(payload)
}

/// A decoded sync batch; the uids borrow the message's payload.
#[derive(Debug)]
pub struct SyncBatch<'a> {
    /// Requested state.
    pub state: TaskState,
    /// Task uids, in request order.
    pub uids: Vec<&'a str>,
}

/// Decode a sync message; `None` if malformed.
pub fn parse_sync(msg: &Message) -> Option<SyncBatch<'_>> {
    let (index, mut rest) = msg.payload.split_first()?;
    let state = *TaskState::ALL.get(usize::from(*index))?;
    let mut uids = Vec::new();
    while !rest.is_empty() {
        uids.push(take_str(&mut rest)?);
    }
    Some(SyncBatch { state, uids })
}

/// The Synchronizer's answer to one sync batch (arrow 7, in process): the
/// applied flag of each request, in request order. The requester keeps the
/// `Reply`; the batch's message carries its [`ReplyTo`] as the attachment.
#[derive(Debug, Default)]
pub(crate) struct Reply {
    requests: usize,
    /// The batch's flags once it is answered, or none (read refused) once
    /// its message let go of the reply unanswered.
    answer: Mutex<Option<Vec<bool>>>,
    moved: Condvar,
}

impl Reply {
    /// A reply to `requests` requests, and the attachment their message
    /// carries.
    pub(crate) fn new(requests: usize) -> (Arc<Reply>, Attachment) {
        let reply = Arc::new(Reply {
            requests,
            ..Reply::default()
        });
        (Arc::clone(&reply), Arc::new(ReplyTo(reply)))
    }

    /// Block until the batch is answered or nothing is left to answer it;
    /// a request that went unanswered reads refused.
    pub(crate) fn wait(&self) -> Vec<bool> {
        let mut answer = self.answer.lock();
        while answer.is_none() {
            self.moved.wait(&mut answer);
        }
        let mut applied = answer.take().unwrap_or_default();
        applied.resize(self.requests, false);
        applied
    }
}

/// What the message of one sync batch carries. The broker lets go of it
/// with the message — once it is answered and acked, or when it is purged
/// or deleted with its shard — and letting go closes the reply, so the
/// requester cannot outwait a batch nobody will answer.
#[derive(Debug)]
pub(crate) struct ReplyTo(Arc<Reply>);

impl ReplyTo {
    /// Answer the whole batch: one flag per request, in request order
    /// (missing flags read refused).
    pub(crate) fn answer(&self, applied: Vec<bool>) {
        *self.0.answer.lock() = Some(applied);
        self.0.moved.notify_all();
    }
}

impl Drop for ReplyTo {
    fn drop(&mut self) {
        self.0.answer.lock().get_or_insert_with(Vec::new);
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
        for state in TaskState::ALL {
            for uids in [vec![], vec!["task.3".to_string()], uid_batch(64)] {
                let msg = sync_message(state, &uids);
                assert!(msg.headers.is_empty(), "the data path carries no headers");
                let batch = parse_sync(&msg).unwrap();
                assert_eq!(batch.state, state);
                assert_eq!(batch.uids, uids);
            }
        }
    }

    #[test]
    fn malformed_sync_is_none() {
        // An unknown state byte, a uid cut short, a prefix cut short.
        let whole = sync_message(TaskState::Scheduling, &uid_batch(3)).payload;
        let mut bad_state = whole.to_vec();
        bad_state[0] = TaskState::ALL.len() as u8;
        for payload in [
            bad_state,
            whole[..whole.len() - 1].to_vec(),
            whole[..3].to_vec(),
            Vec::new(),
            b"task.3".to_vec(),
        ] {
            assert!(parse_sync(&Message::new(payload)).is_none());
        }
        let mut not_utf8 = vec![1];
        put_str(&mut not_utf8, "t.0");
        *not_utf8.last_mut().unwrap() = 0xff;
        assert!(parse_sync(&Message::new(not_utf8)).is_none());
    }

    fn uid_batch(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("task.{i:06}")).collect()
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
        let batch = sync_message(TaskState::Scheduling, &uid_batch(3)).with_attachment(reply_to);
        drop(batch); // purged, or deleted with the shard
        assert_eq!(reply.wait(), [false, false, false]);

        // A short answer pads with refusals; the requester reads it whole.
        let (reply, reply_to) = Reply::new(3);
        let batch = sync_message(TaskState::Scheduling, &uid_batch(3)).with_attachment(reply_to);
        batch
            .attachment
            .as_deref()
            .and_then(|a| a.downcast_ref::<ReplyTo>())
            .expect("the batch carries its reply")
            .answer(vec![true]);
        assert_eq!(reply.wait(), [true, false, false]);
        drop(batch);
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
