//! The DB module: RP's MongoDB stand-in.
//!
//! In RADICAL-Pilot, "the UnitManager schedules each task to an Agent via a
//! queue on a MongoDB instance. Each Agent pulls its tasks from the DB
//! module" (paper Fig. 3, arrows 4–5). RP's overheads are dominated in part
//! by these remote round trips ("at runtime, RP initiates communications
//! between the CI and a remote database"), so the store charges a
//! configurable latency per operation.

use crate::api::{UnitId, UnitState};
use hpc_sim::IdMap;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// Store configuration.
#[derive(Debug, Clone)]
pub struct DbConfig {
    /// Real-time latency charged on every store operation, modeling the
    /// network round trip to a remote MongoDB. Zero by default (tests).
    pub op_latency: Duration,
    /// First free-pull window after a charged empty pull (agent-side
    /// backoff). Doubles on every consecutive empty probe.
    pub backoff_base: Duration,
    /// Ceiling the doubling backoff window never exceeds.
    pub backoff_cap: Duration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            op_latency: Duration::ZERO,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(1),
        }
    }
}

/// Per-agent empty-pull backoff: consecutive empty probes and the end of
/// the current free-pull window.
struct AgentBackoff {
    strikes: u32,
    until: Instant,
}

/// A unit document as persisted in the store.
#[derive(Debug, Clone)]
pub struct UnitDoc {
    /// Unit id.
    pub unit: UnitId,
    /// Client tag.
    pub tag: String,
    /// Latest recorded state.
    pub state: UnitState,
    /// State history (state, order index).
    pub history: Vec<UnitState>,
    /// Encoded causal trace ([`entk_observe::TraceCtx`] wire format)
    /// carried from the submitting client, so an operator reading the
    /// document sees where the unit has been.
    pub trace: Option<String>,
}

struct Store {
    docs: IdMap<UnitId, UnitDoc>,
    /// Per-agent unit queues (keyed by pilot index).
    queues: HashMap<u64, VecDeque<UnitId>>,
    /// Pilot documents: state history keyed by pilot index.
    pilots: HashMap<u64, Vec<String>>,
    /// Network round trips to the store. Bulk operations count one round
    /// trip regardless of batch size (modeling MongoDB `bulk_write`).
    round_trips: u64,
    /// Documents touched across all operations; with `round_trips` this
    /// splits the old flat op counter into its two cost components.
    documents: u64,
    /// Agents inside an empty-pull backoff window: pulls while the queue is
    /// still empty and the window is open are served without a round-trip
    /// charge. The window expires (the agent probes again, doubling it) and
    /// is reset by a successful pull, so the stragglers at the tail of a
    /// workflow never wait out a stale interval.
    backoff: HashMap<u64, AgentBackoff>,
}

/// The document store. Thread-safe; clone-free (wrap in `Arc`).
pub struct DocDb {
    config: DbConfig,
    store: Mutex<Store>,
}

impl DocDb {
    /// Open an empty store.
    pub fn new(config: DbConfig) -> Self {
        DocDb {
            config,
            store: Mutex::new(Store {
                docs: IdMap::default(),
                queues: HashMap::new(),
                pilots: HashMap::new(),
                round_trips: 0,
                documents: 0,
                backoff: HashMap::new(),
            }),
        }
    }

    fn charge(&self) {
        if !self.config.op_latency.is_zero() {
            std::thread::sleep(self.config.op_latency);
        }
    }

    fn insert_unit_locked(
        st: &mut Store,
        agent: u64,
        unit: UnitId,
        tag: String,
        trace: Option<String>,
    ) {
        st.docs.insert(
            unit,
            UnitDoc {
                unit,
                tag,
                state: UnitState::New,
                history: vec![UnitState::New],
                trace,
            },
        );
        st.queues.entry(agent).or_default().push_back(unit);
        st.documents += 1;
    }

    /// Bulk-insert unit documents for an agent in **one** round trip,
    /// modeling a MongoDB `bulk_write` of N inserts: one `op_latency`
    /// charge, N documents. Each entry is `(unit, tag, encoded trace)`.
    pub fn insert_units(&self, agent: u64, units: Vec<(UnitId, String, Option<String>)>) {
        if units.is_empty() {
            return;
        }
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        for (unit, tag, trace) in units {
            Self::insert_unit_locked(&mut st, agent, unit, tag, trace);
        }
    }

    /// Agent-side: pull up to `max` units from this agent's queue.
    ///
    /// An idle agent backs off: a charged empty pull opens a free-pull
    /// window ([`DbConfig::backoff_base`], doubling per consecutive empty
    /// probe up to [`DbConfig::backoff_cap`]) during which further pulls
    /// against a still-empty queue return immediately without charging
    /// another round trip. Work arriving bypasses the window at once, and a
    /// successful pull resets the backoff entirely, so the first empty pull
    /// after draining a burst is a fresh base-interval probe — the tail of a
    /// workflow never waits out a stale, fully-doubled window.
    pub fn pull_units(&self, agent: u64, max: usize) -> Vec<UnitId> {
        {
            let st = self.store.lock();
            let still_empty = st.queues.get(&agent).is_none_or(VecDeque::is_empty);
            if still_empty
                && st
                    .backoff
                    .get(&agent)
                    .is_some_and(|b| Instant::now() < b.until)
            {
                return Vec::new();
            }
        }
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        let queue = st.queues.entry(agent).or_default();
        let n = queue.len().min(max);
        let pulled: Vec<UnitId> = queue.drain(..n).collect();
        if pulled.is_empty() {
            let base = self.config.backoff_base;
            let cap = self.config.backoff_cap;
            let entry = st.backoff.entry(agent).or_insert(AgentBackoff {
                strikes: 0,
                until: Instant::now(),
            });
            entry.strikes += 1;
            let window = base
                .checked_mul(1u32 << (entry.strikes - 1).min(16))
                .map_or(cap, |w| w.min(cap));
            entry.until = Instant::now() + window;
        } else {
            st.backoff.remove(&agent);
            st.documents += pulled.len() as u64;
        }
        pulled
    }

    fn update_state_locked(st: &mut Store, unit: UnitId, state: UnitState) {
        if let Some(doc) = st.docs.get_mut(&unit) {
            doc.state = state;
            doc.history.push(state);
            st.documents += 1;
        }
    }

    /// Bulk-record state transitions in **one** round trip (MongoDB
    /// `bulk_write` of N updates). Unknown units are ignored (they may
    /// belong to a previous, failed RTS incarnation).
    pub fn update_states(&self, updates: &[(UnitId, UnitState)]) {
        if updates.is_empty() {
            return;
        }
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        for (unit, state) in updates {
            Self::update_state_locked(&mut st, *unit, *state);
        }
    }

    /// Drop the documents of units a departing session takes with it, and
    /// whatever of them still sits in an agent queue. Session close-out is
    /// housekeeping nobody waits on, so unlike the unit-path operations it
    /// charges no latency and counts no round trip.
    pub fn remove_units(&self, units: &[UnitId]) {
        if units.is_empty() {
            return;
        }
        let mut st = self.store.lock();
        for unit in units {
            st.docs.remove(unit);
        }
        let gone: std::collections::HashSet<&UnitId> = units.iter().collect();
        for queue in st.queues.values_mut() {
            queue.retain(|unit| !gone.contains(unit));
        }
    }

    /// Unit documents currently held.
    pub fn unit_docs(&self) -> usize {
        self.store.lock().docs.len()
    }

    /// PilotManager: register a pilot document. In RP every pilot is
    /// synchronized through MongoDB like units are; this is a large share of
    /// the bootstrap cost a warm pilot pool amortizes away.
    pub fn insert_pilot(&self, pilot: u64) {
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        st.documents += 1;
        st.pilots.insert(pilot, vec!["Queued".to_string()]);
    }

    /// Record a pilot state transition. Unknown pilots are ignored.
    pub fn update_pilot_state(&self, pilot: u64, state: &str) {
        self.charge();
        let mut st = self.store.lock();
        st.round_trips += 1;
        if let Some(hist) = st.pilots.get_mut(&pilot) {
            hist.push(state.to_string());
            st.documents += 1;
        }
    }

    /// One pilot's latest recorded state.
    pub fn pilot_state(&self, pilot: u64) -> Option<String> {
        self.store
            .lock()
            .pilots
            .get(&pilot)
            .and_then(|h| h.last().cloned())
    }

    /// Read one unit's document.
    pub fn get(&self, unit: UnitId) -> Option<UnitDoc> {
        let st = self.store.lock();
        st.docs.get(&unit).cloned()
    }

    /// Number of network round trips performed (for overhead accounting).
    /// Each single-document operation is one round trip; each bulk
    /// operation is one round trip regardless of batch size.
    pub fn op_count(&self) -> u64 {
        self.store.lock().round_trips
    }

    /// Number of documents touched across all operations. With
    /// [`DocDb::op_count`] this splits the cost model: latency scales with
    /// round trips, payload with documents.
    pub fn doc_count(&self) -> u64 {
        self.store.lock().documents
    }

    /// Units currently queued for an agent.
    pub fn queued_for(&self, agent: u64) -> usize {
        self.store
            .lock()
            .queues
            .get(&agent)
            .map_or(0, VecDeque::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One unit, as `insert_units` takes it.
    fn unit(i: u64, tag: &str) -> Vec<(UnitId, String, Option<String>)> {
        vec![(UnitId(i), tag.into(), None)]
    }

    #[test]
    fn insert_pull_roundtrip() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(
            0,
            vec![
                (UnitId(1), "t1".into(), None),
                (UnitId(2), "t2".into(), None),
            ],
        );
        db.insert_units(1, unit(3, "t3"));
        assert_eq!(db.queued_for(0), 2);
        let pulled = db.pull_units(0, 10);
        assert_eq!(pulled, vec![UnitId(1), UnitId(2)]);
        assert_eq!(db.queued_for(0), 0);
        assert_eq!(db.pull_units(1, 1), vec![UnitId(3)]);
    }

    #[test]
    fn pull_respects_max() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(
            0,
            (0..5).map(|i| (UnitId(i), format!("t{i}"), None)).collect(),
        );
        assert_eq!(db.pull_units(0, 2).len(), 2);
        assert_eq!(db.queued_for(0), 3);
    }

    #[test]
    fn state_history_accumulates() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(0, unit(7, "x"));
        for state in [
            UnitState::StagingInput,
            UnitState::Executing,
            UnitState::Done,
        ] {
            db.update_states(&[(UnitId(7), state)]);
        }
        let doc = db.get(UnitId(7)).unwrap();
        assert_eq!(doc.state, UnitState::Done);
        assert_eq!(
            doc.history,
            vec![
                UnitState::New,
                UnitState::StagingInput,
                UnitState::Executing,
                UnitState::Done
            ]
        );
    }

    #[test]
    fn unknown_unit_update_is_ignored() {
        let db = DocDb::new(DbConfig::default());
        db.update_states(&[(UnitId(99), UnitState::Done)]);
        assert!(db.get(UnitId(99)).is_none());
    }

    #[test]
    fn remove_units_drops_documents_and_queue_entries() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(
            0,
            (1..=4)
                .map(|i| (UnitId(i), format!("t{i}"), None))
                .collect(),
        );
        let ops = db.op_count();
        db.remove_units(&[UnitId(1), UnitId(3), UnitId(99)]);
        assert_eq!(db.op_count(), ops, "close-out is not a charged round trip");
        assert_eq!(db.unit_docs(), 2);
        assert!(db.get(UnitId(1)).is_none() && db.get(UnitId(2)).is_some());
        assert_eq!(db.pull_units(0, 10), vec![UnitId(2), UnitId(4)]);
    }

    #[test]
    fn pilot_docs_track_state_history() {
        let db = DocDb::new(DbConfig::default());
        db.insert_pilot(0);
        db.update_pilot_state(0, "Active");
        db.update_pilot_state(0, "Ready");
        assert_eq!(db.pilot_state(0).as_deref(), Some("Ready"));
        db.update_pilot_state(9, "Active"); // unknown: ignored
        assert!(db.pilot_state(9).is_none());
        assert_eq!(db.op_count(), 4);
    }

    #[test]
    fn bulk_insert_charges_one_round_trip() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(
            0,
            (1..=50)
                .map(|i| (UnitId(i), format!("t{i}"), None))
                .collect(),
        );
        assert_eq!(db.op_count(), 1, "one bulk_write round trip");
        assert_eq!(db.doc_count(), 50, "fifty documents inserted");
        assert_eq!(db.queued_for(0), 50);
        assert_eq!(db.pull_units(0, 100).len(), 50);
        db.insert_units(0, Vec::new()); // empty bulk is free
        assert_eq!(db.op_count(), 2);
    }

    #[test]
    fn bulk_update_states_charges_one_round_trip() {
        let db = DocDb::new(DbConfig::default());
        db.insert_units(
            0,
            vec![(UnitId(1), "a".into(), None), (UnitId(2), "b".into(), None)],
        );
        let before = db.op_count();
        db.update_states(&[
            (UnitId(1), UnitState::Executing),
            (UnitId(2), UnitState::Executing),
            (UnitId(99), UnitState::Done), // unknown: ignored
        ]);
        assert_eq!(db.op_count(), before + 1);
        assert_eq!(db.get(UnitId(1)).unwrap().state, UnitState::Executing);
        assert_eq!(db.get(UnitId(2)).unwrap().state, UnitState::Executing);
        assert!(db.get(UnitId(99)).is_none());
    }

    #[test]
    fn bulk_latency_amortized_over_batch() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::from_millis(5),
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        db.insert_units(0, (1..=20).map(|i| (UnitId(i), "t".into(), None)).collect());
        let elapsed = t0.elapsed();
        assert!(elapsed >= Duration::from_millis(5), "one charge applies");
        assert!(
            elapsed < Duration::from_millis(50),
            "20 inserts must not pay 20 round trips, took {elapsed:?}"
        );
    }

    #[test]
    fn idle_agent_empty_pulls_stop_charging() {
        let db = DocDb::new(DbConfig::default());
        assert!(db.pull_units(0, 8).is_empty());
        let after_first = db.op_count();
        for _ in 0..10 {
            assert!(db.pull_units(0, 8).is_empty());
        }
        assert_eq!(
            db.op_count(),
            after_first,
            "repeated empty pulls are served from agent-side backoff"
        );
        // New work resets the backoff: the next pull charges and delivers.
        db.insert_units(0, unit(1, "t"));
        assert_eq!(db.pull_units(0, 8), vec![UnitId(1)]);
        assert_eq!(db.op_count(), after_first + 2, "insert + productive pull");
        // Draining again re-enters backoff after one charged empty pull.
        assert!(db.pull_units(0, 8).is_empty());
        let re_emptied = db.op_count();
        assert!(db.pull_units(0, 8).is_empty());
        assert_eq!(db.op_count(), re_emptied);
    }

    /// Regression (empty-pull backoff tail latency): the old backoff was a
    /// sticky boolean — once an agent went idle it was never probed again,
    /// and there was no bound on how stale the "nothing there" verdict
    /// could get. The window must (a) expire so the agent re-probes, and
    /// (b) reset on a successful pull, so the stragglers at the end of a
    /// workflow get a fresh base-interval probe instead of waiting out a
    /// fully doubled window.
    #[test]
    fn backoff_window_expires_and_resets_on_success() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::ZERO,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(80),
        });
        // First empty pull: charged probe, opens the base window.
        assert!(db.pull_units(0, 8).is_empty());
        let probes = db.op_count();
        // Inside the window: free.
        assert!(db.pull_units(0, 8).is_empty());
        assert_eq!(db.op_count(), probes, "pull inside the window is free");
        // After the window expires the agent probes (and is charged) again —
        // the old sticky-boolean backoff never did.
        std::thread::sleep(Duration::from_millis(30));
        assert!(db.pull_units(0, 8).is_empty());
        assert_eq!(db.op_count(), probes + 1, "expired window re-probes");
        // Work arriving bypasses any open window immediately.
        db.insert_units(0, unit(1, "t"));
        assert_eq!(db.pull_units(0, 8), vec![UnitId(1)]);
        // The successful pull reset the backoff: the next empty pull is a
        // fresh charged probe whose window is back to the base interval —
        // after sleeping just past `backoff_base` (but well under the
        // doubled window the agent had reached), the agent probes again.
        let drained = db.op_count();
        assert!(db.pull_units(0, 8).is_empty());
        assert_eq!(db.op_count(), drained + 1, "fresh probe after reset");
        std::thread::sleep(Duration::from_millis(30));
        assert!(db.pull_units(0, 8).is_empty());
        assert_eq!(
            db.op_count(),
            drained + 2,
            "post-reset window is the base interval, not the doubled one"
        );
    }

    #[test]
    fn backoff_window_doubles_up_to_the_cap() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::ZERO,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(40),
        });
        // Strikes 1..: windows 10, 20, 40, 40, ... ms. Sleep past each
        // window and verify exactly one charged probe per expiry.
        for expect_window_ms in [10u64, 20, 40, 40] {
            let before = db.op_count();
            assert!(db.pull_units(0, 8).is_empty());
            assert_eq!(db.op_count(), before + 1, "expiry triggers one probe");
            assert!(db.pull_units(0, 8).is_empty(), "still inside new window");
            assert_eq!(db.op_count(), before + 1);
            std::thread::sleep(Duration::from_millis(expect_window_ms + 10));
        }
    }

    #[test]
    fn op_latency_is_charged() {
        let db = DocDb::new(DbConfig {
            op_latency: Duration::from_millis(5),
            ..Default::default()
        });
        let t0 = std::time::Instant::now();
        db.insert_units(0, unit(1, "a"));
        db.update_states(&[(UnitId(1), UnitState::Done)]);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(db.op_count(), 2);
    }
}
