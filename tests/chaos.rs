//! Chaos matrix: the batched data path driven under every armed failpoint.
//!
//! Each scenario arms one of the `entk-fail` failpoints threaded through the
//! stack (see DESIGN.md §3f for the registry) with a deterministic trigger
//! and runs a 2048-task batched workload through the layer that owns the
//! seam — the journaled broker for the `mq.*` points, a full simulated
//! AppManager run for the `rts.*` and `core.*` points, and the ensemble
//! service for the pool seam. The invariants are the same everywhere:
//!
//! * **no task lost** — every task settles `Done` and `tasks_done` counts
//!   each exactly once;
//! * **no task executed twice past Done** — exactly-once execution counters
//!   where the backend can host them;
//! * **journal recovery yields the exact unacked set** — what recovery
//!   restores is precisely the durable-and-unacknowledged messages;
//! * **restart budget respected** — `rts_restarts` never exceeds
//!   `max_rts_restarts` even while failpoints keep killing the RTS.
//!
//! Every test holds the [`entk_fail::scenario`] guard: the failpoint
//! registry is process-global, so scenarios serialize against each other and
//! disarm everything on exit.

use entk::mq::{Broker, BrokerConfig, Message, MqError, QueueConfig};
use entk::prelude::*;
use entk_fail::{InjectedAction, Trigger};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// The tentpole workload size: the batched-path benchmark scale.
const TASKS: usize = 2048;
/// Fixed seed shared by the simulator and every seeded trigger.
const SEED: u64 = 0xC0FFEE;

fn timeout() -> Duration {
    Duration::from_secs(300)
}

fn tmp_journal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "entk-chaos-{name}-{}-{:?}.journal",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

/// One 2048-task batched AppManager run on the simulated TestRig. Asserts
/// the cross-cutting invariants (run succeeded, every task Done exactly
/// once, restart budget respected) and returns the report for per-scenario
/// assertions.
fn chaos_sim_run(max_rts_restarts: u32) -> RunReport {
    let wf = entk::apps::synthetic::sleep_workflow(1, 1, TASKS, 1.0);
    let mut cfg = AppManagerConfig::new(
        ResourceDescription::sim(PlatformId::TestRig, 4, 4 * 3600).with_seed(SEED),
    )
    .with_run_timeout(timeout());
    cfg.max_rts_restarts = max_rts_restarts;
    let report = AppManager::new(cfg).run(wf).expect("chaos run completes");
    assert!(
        report.succeeded,
        "no task may be lost under injected faults: {:?}",
        report.overheads
    );
    assert_eq!(
        report.overheads.tasks_done, TASKS as u64,
        "every task must settle Done exactly once"
    );
    assert!(
        report.rts_restarts <= max_rts_restarts,
        "restart budget exceeded: {} > {}",
        report.rts_restarts,
        max_rts_restarts
    );
    report
}

// ---------------------------------------------------------------------------
// mq.journal.torn_tail — seeded tear matrix over the full workload.
// ---------------------------------------------------------------------------

/// 2048 persistent messages published in 64 batches with a seeded torn-tail
/// trigger armed throughout. Every tear is a crash: the broker is dropped
/// and recovered, and publishing continues. `Partial(1)` tears inside the
/// first record of the batch, so a failed `publish_batch` is known to have
/// persisted nothing — the exact durable-and-unacked set stays computable on
/// the test side and must match what the final recovery restores.
#[test]
fn seeded_torn_tail_matrix_recovers_exact_unacked_set() {
    let _g = entk_fail::scenario();
    // Live-telemetry sink: every fire must surface as a `fail.<name>.trips`
    // counter increment. Installed after `scenario()`, which clears the sink.
    let metrics = Arc::new(entk::observe::Metrics::default());
    entk_fail::set_metrics_sink(Arc::clone(&metrics));
    let path = tmp_journal("torn-matrix");
    entk_fail::arm(
        "mq.journal.torn_tail",
        Trigger::Seeded {
            seed: SEED,
            one_in: 7,
        },
        InjectedAction::Partial(1),
        None,
    );

    let mut b = Broker::with_config(BrokerConfig {
        journal_path: Some(path.clone()),
        ..Default::default()
    })
    .unwrap();
    b.declare_queue("tasks", QueueConfig::durable()).unwrap();

    let mut expected: BTreeSet<String> = BTreeSet::new();
    let mut crashes = 0u64;
    let batch_size = TASKS / 64;
    for batch_no in 0..64 {
        let ids: Vec<String> = (batch_no * batch_size..(batch_no + 1) * batch_size)
            .map(|i| i.to_string())
            .collect();
        let msgs: Vec<Message> = ids
            .iter()
            .map(|id| Message::persistent(id.clone().into_bytes()))
            .collect();
        match b.publish_batch("tasks", msgs) {
            Ok(_) => expected.extend(ids),
            Err(MqError::FaultInjected(_)) => {
                // The batch tore mid-append: nothing from it is durable.
                // Crash and recover, then keep going on the repaired journal.
                crashes += 1;
                b = Broker::recover(&path).expect("recovery after torn batch");
            }
            Err(e) => panic!("unexpected publish error: {e}"),
        }
        // Periodically settle a window with per-tag acks, shrinking the
        // expected unacked set.
        if batch_no % 8 == 7 {
            for d in b
                .get_batch("tasks", batch_size + batch_size / 2, Duration::ZERO)
                .unwrap()
            {
                b.ack("tasks", d.tag).unwrap();
                expected.remove(d.message.payload_str().as_ref());
            }
        }
    }
    assert_eq!(
        entk_fail::fires("mq.journal.torn_tail"),
        crashes,
        "every fire must have surfaced as a failed publish"
    );
    assert_eq!(
        metrics.counter("fail.mq.journal.torn_tail.trips").get(),
        crashes,
        "every fire must have tripped the telemetry counter"
    );
    assert!(
        crashes >= 1,
        "one_in=7 over 64 batches must tear at least once"
    );

    // Final crash: the recovered state must be exactly the durable-and-
    // unacked set, nothing more, nothing less.
    drop(b);
    let b = Broker::recover(&path).expect("final recovery");
    let mut recovered = BTreeSet::new();
    loop {
        let batch = b.get_batch("tasks", TASKS, Duration::ZERO).unwrap();
        if batch.is_empty() {
            break;
        }
        for d in batch {
            assert!(
                recovered.insert(d.message.payload_str().to_string()),
                "duplicate recovery of {}",
                d.message.payload_str()
            );
        }
    }
    assert_eq!(
        recovered, expected,
        "recovery must yield the exact unacked set"
    );
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// mq.journal.flush_crash — ambiguous publish failure resolves to durable.
// ---------------------------------------------------------------------------

/// A crash after the flush leaves the publisher with an error but the
/// records on disk — the classic ambiguous outcome. Recovery must resolve it
/// toward at-least-once: the flushed batch is there.
#[test]
fn flush_crash_publish_failure_is_durable_on_recovery() {
    let _g = entk_fail::scenario();
    let path = tmp_journal("flush-crash");
    {
        let b = Broker::with_config(BrokerConfig {
            journal_path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        b.declare_queue("q", QueueConfig::durable()).unwrap();
        b.publish("q", Message::persistent("settled")).unwrap();
        entk_fail::arm_once("mq.journal.flush_crash", InjectedAction::Fail);
        let err = b
            .publish_batch(
                "q",
                vec![
                    Message::persistent("ambiguous-1"),
                    Message::persistent("ambiguous-2"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, MqError::FaultInjected(_)));
        // Crash: broker dropped without close.
    }
    let b = Broker::recover(&path).unwrap();
    assert_eq!(
        b.depth("q").unwrap(),
        3,
        "the flushed-then-crashed batch is durable and must be recovered"
    );
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// mq.broker.recover_mid_replay — repeated recovery crashes converge.
// ---------------------------------------------------------------------------

/// Recovery itself dies three times mid-replay over a 2048-message journal
/// with a partially-acked prefix. Replay never mutates the journal, so each
/// retry starts from the same bytes and the fourth attempt must restore the
/// exact unacked suffix.
#[test]
fn repeated_mid_replay_crashes_converge_on_exact_unacked_set() {
    let _g = entk_fail::scenario();
    let path = tmp_journal("mid-replay-matrix");
    const ACKED: usize = 1000;
    {
        let b = Broker::with_config(BrokerConfig {
            journal_path: Some(path.clone()),
            ..Default::default()
        })
        .unwrap();
        b.declare_queue("tasks", QueueConfig::durable()).unwrap();
        for batch_no in 0..64 {
            let msgs: Vec<Message> = (batch_no * 32..(batch_no + 1) * 32)
                .map(|i: usize| Message::persistent(i.to_string().into_bytes()))
                .collect();
            b.publish_batch("tasks", msgs).unwrap();
        }
        let drained = b.get_batch("tasks", ACKED, Duration::ZERO).unwrap();
        assert_eq!(drained.len(), ACKED);
        b.ack_multiple("tasks", drained.last().unwrap().tag)
            .unwrap();
        // Crash with TASKS - ACKED unacked messages on the journal.
    }

    entk_fail::arm(
        "mq.broker.recover_mid_replay",
        Trigger::EveryNth(1),
        InjectedAction::Fail,
        Some(3),
    );
    let mut failed_attempts = 0;
    let b = loop {
        match Broker::recover(&path) {
            Ok(b) => break b,
            Err(MqError::FaultInjected(_)) => failed_attempts += 1,
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    };
    assert_eq!(failed_attempts, 3, "exactly the budgeted crashes fired");
    assert_eq!(b.depth("tasks").unwrap(), TASKS - ACKED);
    let ids: BTreeSet<usize> = b
        .get_batch("tasks", TASKS, Duration::ZERO)
        .unwrap()
        .iter()
        .map(|d| d.message.payload_str().parse().unwrap())
        .collect();
    let want: BTreeSet<usize> = (ACKED..TASKS).collect();
    assert_eq!(ids, want, "the exact unacked suffix, in full");
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// mq.broker.recover_mid_replay × sharded broker — merged replay killed
// repeatedly, in both settlement modes.
// ---------------------------------------------------------------------------

/// Expand one `fn(batched: bool)` scenario into `<name>::batched` and
/// `<name>::per_task` test cases. The flag picks the broker's settlement
/// APIs — `publish_batch`/`get_batch`/`ack_multiple` against per-message
/// `publish`/`get`/`ack` — both of which the broker keeps.
macro_rules! both_settlement_modes {
    ($($name:ident),+ $(,)?) => {
        $(
            mod $name {
                #[test]
                fn batched() {
                    super::$name(true);
                }
                #[test]
                fn per_task() {
                    super::$name(false);
                }
            }
        )+
    };
}

both_settlement_modes!(sharded_mid_replay_crashes_recover_every_shard_exactly_once);

/// A 4-shard durable broker with 8 queues takes the full 2048-task workload,
/// settles a prefix of every queue (cumulative acks on the batched path,
/// per-tag acks on the per-task path), and crashes. Recovery — a merged
/// replay over all four journal segments — is then killed three times
/// mid-restore. Each retry rescans the same segments, so the fourth attempt
/// must restore, on every shard, exactly the unacked suffix of every queue:
/// settled messages stay settled (no resurrection = no double settlement)
/// and no surviving message is lost or duplicated.
fn sharded_mid_replay_crashes_recover_every_shard_exactly_once(batched: bool) {
    let _g = entk_fail::scenario();
    const SHARDS: usize = 4;
    const QUEUES: usize = 8;
    const PER_QUEUE: usize = TASKS / QUEUES;
    const ACKED: usize = 100;
    let mode = if batched { "batched" } else { "per-task" };
    let path = tmp_journal(&format!("shard-replay-{mode}"));
    let queue_name = |q: usize| format!("q{q}");
    let payload = |q: usize, i: usize| format!("{q}:{i}");

    let mut expected: BTreeSet<String> = BTreeSet::new();
    let mut max_tag = [0u64; QUEUES];
    {
        let b = Broker::with_config(
            BrokerConfig {
                journal_path: Some(path.clone()),
                ..Default::default()
            }
            .with_shards(SHARDS),
        )
        .unwrap();
        assert_eq!(b.shard_count(), SHARDS);
        for q in 0..QUEUES {
            b.declare_queue(&queue_name(q), QueueConfig::durable())
                .unwrap();
        }
        for (q, qmax) in max_tag.iter_mut().enumerate() {
            let name = queue_name(q);
            if batched {
                for chunk in 0..PER_QUEUE / 64 {
                    let msgs: Vec<Message> = (chunk * 64..(chunk + 1) * 64)
                        .map(|i| Message::persistent(payload(q, i).into_bytes()))
                        .collect();
                    let tags = b.publish_batch(&name, msgs).unwrap();
                    *qmax = (*qmax).max(*tags.last().unwrap());
                }
            } else {
                for i in 0..PER_QUEUE {
                    b.publish(&name, Message::persistent(payload(q, i).into_bytes()))
                        .unwrap();
                }
                *qmax = PER_QUEUE as u64;
            }
            expected.extend((ACKED..PER_QUEUE).map(|i| payload(q, i)));
            // Settle the first ACKED deliveries of each queue.
            if batched {
                let drained = b.get_batch(&name, ACKED, Duration::ZERO).unwrap();
                assert_eq!(drained.len(), ACKED);
                let n = b.ack_multiple(&name, drained.last().unwrap().tag).unwrap();
                assert_eq!(n, ACKED);
            } else {
                for _ in 0..ACKED {
                    let d = b.get(&name).unwrap().expect("message present");
                    b.ack(&name, d.tag).unwrap();
                }
            }
        }
        // Crash: dropped without close, unacked suffixes on 4 segments.
    }

    entk_fail::arm(
        "mq.broker.recover_mid_replay",
        Trigger::EveryNth(293), // deep enough to land mid-shard, not on the first restore
        InjectedAction::Fail,
        Some(3),
    );
    let recover_cfg = || {
        BrokerConfig {
            journal_path: Some(path.clone()),
            ..Default::default()
        }
        .with_shards(SHARDS)
    };
    let mut failed_attempts = 0;
    let b = loop {
        match Broker::recover_with_config(recover_cfg()) {
            Ok(b) => break b,
            Err(MqError::FaultInjected(_)) => failed_attempts += 1,
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    };
    assert_eq!(failed_attempts, 3, "exactly the budgeted crashes fired");
    assert_eq!(b.shard_count(), SHARDS);

    let mut recovered: BTreeSet<String> = BTreeSet::new();
    for (q, &qmax) in max_tag.iter().enumerate() {
        let name = queue_name(q);
        assert_eq!(
            b.depth(&name).unwrap(),
            PER_QUEUE - ACKED,
            "queue {name} must hold exactly its unacked suffix"
        );
        let batch = b.get_batch(&name, PER_QUEUE, Duration::ZERO).unwrap();
        for d in &batch {
            assert!(
                recovered.insert(d.message.payload_str().to_string()),
                "duplicate recovery of {}",
                d.message.payload_str()
            );
        }
        // Tag-floor invariant across the merged replay: a fresh publish on
        // the recovered broker must never reuse a journaled tag.
        let fresh = b
            .publish(&name, Message::persistent("fresh"))
            .map(|_| b.get(&name).unwrap().expect("fresh delivery"))
            .unwrap();
        assert!(
            fresh.tag > qmax,
            "queue {name}: fresh tag {} must exceed journaled max {qmax}",
            fresh.tag
        );
    }
    assert_eq!(
        recovered, expected,
        "merged replay must yield the exact unacked set across all shards"
    );

    // All four segments exist on disk (queues hash across every shard).
    let stem = path.file_stem().unwrap().to_string_lossy().to_string();
    for i in 1..SHARDS {
        let seg = path.with_file_name(format!("{stem}-{i}.journal"));
        assert!(seg.exists(), "journal segment {} must exist", seg.display());
        std::fs::remove_file(&seg).unwrap();
    }
    std::fs::remove_file(&path).unwrap();
}

// ---------------------------------------------------------------------------
// rts.db.insert_units — RTS death partway through a bulk insert.
// ---------------------------------------------------------------------------

#[test]
fn rts_death_mid_bulk_insert_loses_no_tasks() {
    let _g = entk_fail::scenario();
    let metrics = Arc::new(entk::observe::Metrics::default());
    entk_fail::set_metrics_sink(Arc::clone(&metrics));
    entk_fail::arm_once("rts.db.insert_units", InjectedAction::Partial(100));
    let report = chaos_sim_run(3);
    assert_eq!(
        entk_fail::fires("rts.db.insert_units"),
        1,
        "failpoint must fire"
    );
    assert_eq!(
        metrics.counter("fail.rts.db.insert_units.trips").get(),
        1,
        "the fire must trip the telemetry counter"
    );
    assert!(
        report.rts_restarts >= 1,
        "the heartbeat must have restarted the killed RTS"
    );
}

// ---------------------------------------------------------------------------
// rts.db.update_states — RTS death partway through a bulk state update.
// ---------------------------------------------------------------------------

#[test]
fn rts_death_mid_bulk_state_update_loses_no_tasks() {
    let _g = entk_fail::scenario();
    entk_fail::arm_once("rts.db.update_states", InjectedAction::Partial(64));
    let report = chaos_sim_run(3);
    assert_eq!(
        entk_fail::fires("rts.db.update_states"),
        1,
        "failpoint must fire"
    );
    assert!(report.rts_restarts >= 1);
}

// ---------------------------------------------------------------------------
// rts.submit.partial — repeated partial submissions within restart budget.
// ---------------------------------------------------------------------------

/// The RTS registers only a prefix of each submitted batch and dies, twice
/// in a row (the first submission of two consecutive incarnations). Both
/// deaths are swept, both restarts stay inside the budget, and the ensemble
/// still completes in full.
#[test]
fn repeated_partial_submissions_stay_within_restart_budget() {
    let _g = entk_fail::scenario();
    let metrics = Arc::new(entk::observe::Metrics::default());
    entk_fail::set_metrics_sink(Arc::clone(&metrics));
    entk_fail::arm(
        "rts.submit.partial",
        Trigger::EveryNth(1),
        InjectedAction::Partial(64),
        Some(2),
    );
    let report = chaos_sim_run(8);
    assert_eq!(
        entk_fail::fires("rts.submit.partial"),
        2,
        "both kills fired"
    );
    assert_eq!(
        metrics.counter("fail.rts.submit.partial.trips").get(),
        2,
        "both fires must trip the telemetry counter"
    );
    assert!(
        report.rts_restarts >= 2,
        "each injected death must cost one restart"
    );
}

// ---------------------------------------------------------------------------
// core.emgr.before_settle — heartbeat sweep over a half-settled batch.
// ---------------------------------------------------------------------------

/// The ExecManager's pool RTS dies after the batch was synced `Submitted`
/// but before the cumulative ack settles the pending window, and the
/// ExecManager stalls long enough for several heartbeat sweeps to run over
/// the half-settled batch. The sweep must re-drive exactly the lost tasks —
/// over-sweeping double-executes them, under-sweeping loses them; either
/// breaks the `tasks_done == TASKS` invariant.
#[test]
fn heartbeat_sweep_over_half_settled_batch_loses_no_tasks() {
    let _g = entk_fail::scenario();
    entk_fail::arm_once("core.emgr.before_settle", InjectedAction::Delay(150));
    let report = chaos_sim_run(3);
    assert_eq!(
        entk_fail::fires("core.emgr.before_settle"),
        1,
        "failpoint must fire"
    );
    assert!(report.rts_restarts >= 1);
}

// ---------------------------------------------------------------------------
// rts.pool.dead_lease_return — the service survives corpses at pool return.
// ---------------------------------------------------------------------------

/// Every second pilot returned to the service's warm pool dies at the
/// return instant (twice). The health check must discard the corpses, cold
/// boots must replace them, and every submission still completes.
#[test]
fn service_discards_dead_lease_returns_and_completes_everything() {
    let _g = entk_fail::scenario();
    entk_fail::arm(
        "rts.pool.dead_lease_return",
        Trigger::EveryNth(2),
        InjectedAction::Fail,
        Some(2),
    );

    let resource = ResourceDescription::sim(PlatformId::TestRig, 2, 1_000_000_000);
    let service = EnsembleService::start(
        ServiceConfig::new(resource)
            .with_warm_pilots(1)
            .with_max_active(2)
            .with_max_pending(16)
            .with_run_timeout(timeout()),
    );
    let client = service.client();

    let wf = |label: &str| {
        let mut stage = Stage::new(format!("{label}-s"));
        for t in 0..2 {
            stage.add_task(Task::new(
                format!("{label}-t{t}"),
                Executable::Sleep { secs: 50.0 },
            ));
        }
        Workflow::new().with_pipeline(Pipeline::new(format!("{label}-p")).with_stage(stage))
    };

    let ids: Vec<_> = (0..6)
        .map(|i| {
            client
                .submit("chaos", wf(&format!("w{i}")))
                .expect("admitted")
        })
        .collect();
    for id in &ids {
        let result = client.wait(*id, timeout()).expect("submission settles");
        assert!(
            result.outcome.is_success(),
            "submission {id} failed: {:?}",
            result.outcome
        );
    }

    let fires = entk_fail::fires("rts.pool.dead_lease_return");
    assert_eq!(fires, 2, "both injected corpse returns fired");
    let stats = client.stats();
    assert_eq!(stats.completed, 6);
    assert!(
        stats.pool.discarded >= fires,
        "every corpse return must be discarded, not parked warm: {:?}",
        stats.pool
    );
    service.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite: the critical path stays exact under chaos and cancellation.
// ---------------------------------------------------------------------------

/// Recorder-enabled chaos run: the RTS is killed twice mid-submission and
/// restarted, so some attempts die partway through their hop timeline. The
/// per-stage critical path must fold exactly one complete timeline per Done
/// task — killed attempts contribute nothing partial.
#[test]
fn critical_path_stays_exact_under_injected_rts_deaths() {
    let _g = entk_fail::scenario();
    entk_fail::arm(
        "rts.submit.partial",
        Trigger::EveryNth(1),
        InjectedAction::Partial(64),
        Some(2),
    );
    let wf = entk::apps::synthetic::sleep_workflow(1, 1, TASKS, 1.0);
    let mut cfg = AppManagerConfig::new(
        ResourceDescription::sim(PlatformId::TestRig, 4, 4 * 3600).with_seed(SEED),
    )
    .with_run_timeout(timeout())
    .with_recorder(Recorder::new());
    cfg.max_rts_restarts = 8;
    let report = AppManager::new(cfg).run(wf).expect("chaos run completes");
    assert!(
        report.succeeded,
        "no task may be lost under injected faults"
    );
    assert_eq!(report.overheads.tasks_done, TASKS as u64);
    assert_eq!(
        entk_fail::fires("rts.submit.partial"),
        2,
        "both kills fired"
    );
    assert!(report.rts_restarts >= 2);
    assert_eq!(
        report.critical_path.tasks(),
        TASKS as u64,
        "exactly one complete timeline per Done task: killed attempts must not leak partials"
    );
    assert!(report.critical_path.total_ns() > 0);
}

/// Mid-run cancellation with tracing live: tasks that settle `Canceled`
/// never complete a hop timeline, so the critical path folds exactly the
/// Done subset and nothing else.
#[test]
fn critical_path_excludes_canceled_tasks() {
    // Serializes against the other chaos tests (process-global failpoint
    // registry and metrics sink) even though nothing is armed here.
    let _g = entk_fail::scenario();
    let token = entk::core::CancelToken::new();
    let wf = entk::apps::synthetic::sleep_workflow(1, 1, TASKS, 1.0);
    let cfg = AppManagerConfig::new(
        ResourceDescription::sim(PlatformId::TestRig, 4, 4 * 3600).with_seed(SEED),
    )
    .with_run_timeout(timeout())
    .with_recorder(Recorder::new())
    .with_cancel_token(token.clone());
    let canceler = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(40));
        token.cancel();
    });
    let report = AppManager::new(cfg).run(wf).expect("canceled run settles");
    canceler.join().expect("canceler thread");
    assert!(report.canceled, "cancellation must land before completion");
    let done = report.overheads.tasks_done;
    assert!(
        done < TASKS as u64,
        "cancellation must leave work unfinished"
    );
    assert_eq!(
        report.critical_path.tasks(),
        done,
        "canceled tasks must not contribute partial timelines"
    );
}

// ---------------------------------------------------------------------------
// Tentpole: the durable gateway journal under crash-before-append chaos.
//
// Every `gateway.journal.*` failpoint fires BEFORE its record is written,
// so an armed point models a crash at the worst instant of each journal
// append. The matrix kills the service (SIGKILL-equivalent: the journal is
// frozen so teardown writes nothing a real crash would not have) at each
// seam and asserts `EnsembleService::recover` restores exactly-once
// submission accounting: nothing lost, nothing duplicated.
// ---------------------------------------------------------------------------

fn tmp_journal_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "entk-chaos-gwj-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn durable_service(dir: &std::path::Path, max_active: usize) -> EnsembleService {
    EnsembleService::start(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(max_active)
        .with_max_pending(64)
        .with_run_timeout(timeout())
        .with_journal_dir(dir),
    )
}

fn recover_service(dir: &std::path::Path) -> entk::mq::MqResult<EnsembleService> {
    EnsembleService::recover(
        ServiceConfig::new(ResourceDescription::sim(
            PlatformId::TestRig,
            2,
            1_000_000_000,
        ))
        .with_warm_pilots(1)
        .with_max_active(2)
        .with_max_pending(64)
        .with_run_timeout(timeout())
        .with_journal_dir(dir),
    )
}

fn spec_wf(label: &str, tasks: usize) -> entk::service::WorkflowSpec {
    use entk::service::{ExecSpec, PipelineSpec, StageSpec, TaskSpec, WorkflowSpec};
    let mut stage = StageSpec::new(format!("{label}-s"));
    for t in 0..tasks {
        stage = stage.with_task(TaskSpec::new(
            format!("{label}-t{t}"),
            ExecSpec::Sleep { secs: 50.0 },
        ));
    }
    WorkflowSpec::new().with_pipeline(PipelineSpec::new(format!("{label}-p")).with_stage(stage))
}

/// Crash at the `Submitted` append: the submission must be REJECTED (the
/// client knows to retry), and recovery must not replay a half-admitted
/// entry — crash-before-append means no duplicate is possible.
#[test]
fn gateway_journal_submitted_crash_rejects_then_recovers_exactly_once() {
    let _g = entk_fail::scenario();
    let dir = tmp_journal_dir("submitted");
    let service = durable_service(&dir, 2);
    let client = service.client();

    entk_fail::arm_once("gateway.journal.submitted", InjectedAction::Fail);
    match client.submit_spec("alice", spec_wf("w0", 2), None) {
        Err(SubmitError::Journal(_)) => {}
        other => panic!("journal crash must reject the submission, got {other:?}"),
    }
    assert_eq!(entk_fail::fires("gateway.journal.submitted"), 1);

    // The client retries; this one lands and is journaled.
    let id = client
        .submit_spec("alice", spec_wf("w0", 2), None)
        .expect("retry admitted");
    client.wait(id, timeout()).expect("settles");
    service.kill();

    let recovered = recover_service(&dir).expect("recovery succeeds");
    let rc = recovered.client();
    let sessions = rc.list();
    assert_eq!(
        sessions.len(),
        1,
        "the rejected submission must not reappear: {sessions:?}"
    );
    let result = rc.wait(sessions[0].id, timeout()).expect("restored result");
    assert!(result.outcome.is_success());
    let stats = recovered.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash at the `Settled` append: the run finished but its settlement
/// watermark is lost, so recovery re-drives it. The per-submission task
/// journal dedups at task granularity — every task settled before the
/// crash is skipped by name, and the ledger still counts the submission
/// exactly once.
#[test]
fn gateway_journal_settled_crash_redrive_is_exactly_once() {
    let _g = entk_fail::scenario();
    let dir = tmp_journal_dir("settled");
    let service = durable_service(&dir, 2);
    let client = service.client();

    entk_fail::arm_once("gateway.journal.settled", InjectedAction::Fail);
    let id = client
        .submit_spec("alice", spec_wf("w0", 4), None)
        .expect("admitted");
    let result = client.wait(id, timeout()).expect("settles in epoch 1");
    assert!(result.outcome.is_success());
    assert_eq!(
        entk_fail::fires("gateway.journal.settled"),
        1,
        "the settlement append crashed"
    );
    service.kill();

    let recovered = recover_service(&dir).expect("recovery succeeds");
    let rc = recovered.client();
    // The lost watermark means the sub re-drives; the task journal skips
    // all four Done tasks, so it settles Done again without re-execution.
    let result = rc.wait(id, timeout()).expect("settles after recovery");
    assert!(result.outcome.is_success());
    if let SubmissionOutcome::Completed(rep) = &result.outcome {
        assert_eq!(rep.workflow.count_in(TaskState::Done), 4);
        assert_eq!(
            rep.overheads.tasks_done, 0,
            "journal-recovered tasks must not re-execute"
        );
    } else {
        panic!("re-driven run must complete with a report");
    }
    let stats = recovered.shutdown();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `service.recover.*` failpoints: a recovery that dies scanning or
/// replaying the journal consumed nothing and must succeed when simply
/// called again.
#[test]
fn service_recover_failpoints_are_retryable() {
    let _g = entk_fail::scenario();
    let dir = tmp_journal_dir("retry");
    let service = durable_service(&dir, 1);
    let client = service.client();
    let ids: Vec<_> = (0..2)
        .map(|i| {
            client
                .submit_spec("alice", spec_wf(&format!("w{i}"), 2), None)
                .expect("admitted")
        })
        .collect();
    service.kill();

    for point in ["service.recover.scan", "service.recover.replay"] {
        entk_fail::arm_once(point, InjectedAction::Fail);
        match recover_service(&dir) {
            Err(MqError::FaultInjected(name)) => assert_eq!(name, point),
            other => panic!("{point} must abort recovery, got {:?}", other.is_ok()),
        }
    }
    // Third time lucky: nothing was consumed by the failed attempts.
    let recovered = recover_service(&dir).expect("retry succeeds");
    let rc = recovered.client();
    for id in &ids {
        let result = rc.wait(*id, timeout()).expect("settles after recovery");
        assert!(result.outcome.is_success());
    }
    let stats = recovered.shutdown();
    assert_eq!((stats.submitted, stats.completed), (2, 2));
    let _ = std::fs::remove_dir_all(&dir);
}
