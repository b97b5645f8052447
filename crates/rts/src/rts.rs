//! The client-facing runtime system facade.
//!
//! EnTK's ExecManager only ever talks to this type, keeping the RTS a black
//! box (paper §II-B2): "this enables composability of EnTK with diverse RTS
//! and, depending on capabilities, multiple types of CIs." Swapping the
//! backend — simulated CI vs local thread pool — requires no change above.

use crate::api::{
    PilotDescription, PilotEnd, PilotId, PilotState, RtsDown, UnitCallback, UnitDescription, UnitId,
};
use crate::db::DbConfig;
use crate::local_runtime::{LocalRuntime, LocalRuntimeConfig};
use crate::profile::{RtsProfile, UnitRecord};
use crate::sim_runtime::{SimRuntime, SimRuntimeConfig};
use crossbeam::channel::Receiver;
use entk_observe::Recorder;
use hpc_sim::{Platform, PlatformId};
use std::time::Duration;

/// Re-export: configuration of the local backend.
pub type LocalConfig = LocalRuntimeConfig;

/// Which execution backend to use.
#[derive(Debug, Clone)]
pub enum BackendConfig {
    /// Simulated CI from the platform catalogue.
    Sim {
        /// Which machine.
        platform: PlatformId,
    },
    /// Simulated CI with a custom platform profile.
    SimCustom {
        /// The profile.
        platform: Platform,
    },
    /// Local thread pool running real work.
    Local(LocalConfig),
}

/// Runtime system configuration.
#[derive(Debug, Clone)]
pub struct RtsConfig {
    /// Backend selection.
    pub backend: BackendConfig,
    /// Staging workers for the simulated backend (RP default: 1).
    pub stagers: usize,
    /// DB (MongoDB stand-in) configuration.
    pub db: DbConfig,
    /// Simulation RNG seed.
    pub seed: u64,
    /// If set, unit/pilot state transitions enter the trace and submission
    /// throughput is measured (see entk-observe).
    pub recorder: Option<Recorder>,
}

impl RtsConfig {
    /// Simulated backend on a catalogued platform, defaults elsewhere.
    pub fn sim(platform: PlatformId) -> Self {
        RtsConfig {
            backend: BackendConfig::Sim { platform },
            stagers: 1,
            db: DbConfig::default(),
            seed: 0,
            recorder: None,
        }
    }

    /// Local backend with the given worker count (time-based executables
    /// complete instantly unless a time scale is configured).
    pub fn local(workers: usize) -> Self {
        RtsConfig {
            backend: BackendConfig::Local(LocalConfig {
                workers,
                time_scale: 0.0,
                recorder: None,
            }),
            stagers: 1,
            db: DbConfig::default(),
            seed: 0,
            recorder: None,
        }
    }

    /// Builder: set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: attach a trace recorder.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Builder: set the number of staging workers.
    pub fn with_stagers(mut self, stagers: usize) -> Self {
        self.stagers = stagers;
        self
    }
}

enum Backend {
    Sim(SimRuntime),
    Local(LocalRuntime),
}

/// The runtime system: RADICAL-Pilot's client-side surface.
pub struct RuntimeSystem {
    backend: Backend,
}

impl RuntimeSystem {
    /// Start a runtime system.
    pub fn start(config: RtsConfig) -> Self {
        let recorder = config.recorder;
        let backend = match config.backend {
            BackendConfig::Sim { platform } => Backend::Sim(SimRuntime::start(SimRuntimeConfig {
                platform: Platform::catalog(platform),
                seed: config.seed,
                stagers: config.stagers,
                db: config.db,
                recorder,
            })),
            BackendConfig::SimCustom { platform } => {
                Backend::Sim(SimRuntime::start(SimRuntimeConfig {
                    platform,
                    seed: config.seed,
                    stagers: config.stagers,
                    db: config.db,
                    recorder,
                }))
            }
            BackendConfig::Local(mut local) => {
                // The RtsConfig-level recorder wins over one set directly on
                // the backend config.
                if recorder.is_some() {
                    local.recorder = recorder;
                }
                Backend::Local(LocalRuntime::start(local))
            }
        };
        RuntimeSystem { backend }
    }

    /// Submit a pilot. On the local backend the "pilot" is the local machine
    /// and is immediately Ready.
    pub fn submit_pilot(&self, desc: &PilotDescription) -> PilotId {
        match &self.backend {
            Backend::Sim(rt) => rt.submit_pilot(desc),
            Backend::Local(_) => PilotId(0),
        }
    }

    /// Wait until a pilot can accept units.
    pub fn wait_pilot_ready(&self, pilot: PilotId, timeout: Duration) -> bool {
        match &self.backend {
            Backend::Sim(rt) => rt.wait_pilot_ready(pilot, timeout),
            Backend::Local(rt) => rt.is_alive(),
        }
    }

    /// Pilot state snapshot.
    pub fn pilot_state(&self, pilot: PilotId) -> Option<PilotState> {
        match &self.backend {
            Backend::Sim(rt) => rt.pilot_state(pilot),
            Backend::Local(rt) => Some(if rt.is_alive() {
                PilotState::Ready
            } else {
                PilotState::Done
            }),
        }
    }

    /// Submit units to a pilot; returns ids in order, or [`RtsDown`] if the
    /// RTS died (EnTK's Heartbeat restarts it and recovers the units).
    pub fn submit_units(
        &self,
        pilot: PilotId,
        descs: Vec<UnitDescription>,
    ) -> Result<Vec<UnitId>, RtsDown> {
        match &self.backend {
            Backend::Sim(rt) => rt.submit_units(pilot, descs),
            Backend::Local(rt) => rt.submit_units(descs),
        }
    }

    /// Cancel a pilot; its units are lost.
    pub fn cancel_pilot(&self, pilot: PilotId) {
        match &self.backend {
            Backend::Sim(rt) => rt.cancel_pilot(pilot),
            Backend::Local(rt) => rt.kill(),
        }
    }

    /// A reaction credit of the backend's simulator: its virtual clock
    /// stays where it is until the credit is dropped. Inert on the local
    /// backend, whose time is real.
    pub fn hold(&self) -> hpc_sim::Credit {
        match &self.backend {
            Backend::Sim(rt) => rt.hold(),
            Backend::Local(_) => hpc_sim::Credit::default(),
        }
    }

    /// Terminal unit callbacks, one per unit.
    pub fn callbacks(&self) -> &Receiver<UnitCallback> {
        match &self.backend {
            Backend::Sim(rt) => rt.callbacks(),
            Backend::Local(rt) => rt.callbacks(),
        }
    }

    /// Pilot ends, one per pilot, each sent after the terminal callbacks of
    /// the units that ended with it. Disconnects when the RTS dies (`kill`,
    /// `teardown`): the client learns of an RTS failure as an event.
    pub fn pilot_ends(&self) -> &Receiver<PilotEnd> {
        match &self.backend {
            Backend::Sim(rt) => rt.pilot_ends(),
            Backend::Local(rt) => rt.pilot_ends(),
        }
    }

    /// Whether the RTS is responsive.
    pub fn is_alive(&self) -> bool {
        match &self.backend {
            Backend::Sim(rt) => rt.is_alive(),
            Backend::Local(rt) => rt.is_alive(),
        }
    }

    /// Abrupt failure injection: the RTS dies, in-flight units are lost.
    pub fn kill(&self) {
        match &self.backend {
            Backend::Sim(rt) => rt.kill(),
            Backend::Local(rt) => rt.kill(),
        }
    }

    /// Graceful teardown; returns wall time (the paper's "RTS Tear-Down
    /// Overhead").
    pub fn teardown(&self) -> Duration {
        match &self.backend {
            Backend::Sim(rt) => rt.teardown(),
            Backend::Local(rt) => rt.teardown(),
        }
    }

    /// Per-unit timeline records.
    pub fn records(&self) -> Vec<UnitRecord> {
        match &self.backend {
            Backend::Sim(rt) => rt.records(),
            Backend::Local(rt) => rt.records(),
        }
    }

    /// Per-unit timeline records, handing over the units that have ended:
    /// the runtime forgets them. A session calls this once when it leaves,
    /// so a runtime leased from a warm pool holds only units in flight and
    /// its memory does not grow with the workflows it has served.
    pub fn take_records(&self) -> Vec<UnitRecord> {
        match &self.backend {
            Backend::Sim(rt) => rt.take_records(),
            Backend::Local(rt) => rt.take_records(),
        }
    }

    /// Per-unit entries held anywhere in the runtime (unit table, DB
    /// documents, simulator tasks); 0 once every session has left.
    pub fn resident_units(&self) -> usize {
        match &self.backend {
            Backend::Sim(rt) => rt.resident_units(),
            Backend::Local(rt) => rt.resident_units(),
        }
    }

    /// Aggregate profile over all units.
    pub fn profile(&self) -> RtsProfile {
        RtsProfile::from_records(&self.records())
    }

    /// DocDb cost counters as `(round_trips, documents)`, for the telemetry
    /// sampler. `None` for backends without a document store (local).
    pub fn db_stats(&self) -> Option<(u64, u64)> {
        match &self.backend {
            Backend::Sim(rt) => {
                let db = rt.db();
                Some((db.op_count(), db.doc_count()))
            }
            Backend::Local(_) => None,
        }
    }

    /// Current time on the backend's timeline, seconds.
    pub fn now_secs(&self) -> f64 {
        match &self.backend {
            Backend::Sim(rt) => rt.now_secs(),
            Backend::Local(rt) => rt.now_secs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::UnitOutcome;
    use crate::executable::Executable;
    use std::collections::HashMap;

    fn drain_terminal(rts: &RuntimeSystem, n: usize) -> HashMap<String, UnitOutcome> {
        let mut out = HashMap::new();
        while out.len() < n {
            let cb = rts
                .callbacks()
                .recv_timeout(Duration::from_secs(10))
                .expect("callback");
            if let Some(o) = cb.outcome {
                out.insert(cb.tag, o);
            }
        }
        out
    }

    #[test]
    fn facade_over_sim_backend() {
        let rts = RuntimeSystem::start(RtsConfig::sim(PlatformId::TestRig).with_seed(1));
        let pilot = rts.submit_pilot(&PilotDescription::test_rig());
        assert!(rts.wait_pilot_ready(pilot, Duration::from_secs(5)));
        rts.submit_units(
            pilot,
            vec![UnitDescription::new("s", Executable::Sleep { secs: 300.0 })],
        )
        .unwrap();
        let out = drain_terminal(&rts, 1);
        assert_eq!(out["s"], UnitOutcome::Done);
        let prof = rts.profile();
        assert_eq!(prof.completed, 1);
        // One 300 s task: makespan = its own runtime.
        assert!((prof.exec_makespan_secs - 300.0).abs() < 1.0);
    }

    #[test]
    fn facade_over_local_backend() {
        let rts = RuntimeSystem::start(RtsConfig::local(2));
        let pilot = rts.submit_pilot(&PilotDescription::test_rig());
        assert!(rts.wait_pilot_ready(pilot, Duration::from_secs(1)));
        rts.submit_units(
            pilot,
            vec![UnitDescription::new(
                "c",
                Executable::compute(1.0, || Ok(())),
            )],
        )
        .unwrap();
        let out = drain_terminal(&rts, 1);
        assert_eq!(out["c"], UnitOutcome::Done);
    }

    #[test]
    fn kill_then_not_alive_on_both_backends() {
        for cfg in [RtsConfig::sim(PlatformId::TestRig), RtsConfig::local(1)] {
            let rts = RuntimeSystem::start(cfg);
            assert!(rts.is_alive());
            rts.kill();
            assert!(!rts.is_alive());
        }
    }

    /// An RTS death is an event: after `kill`, the pilot-end stream is
    /// disconnected on both backends, with no pilot end announced.
    #[test]
    fn kill_disconnects_the_pilot_end_stream_on_both_backends() {
        use crossbeam::channel::TryRecvError;
        for cfg in [RtsConfig::sim(PlatformId::TestRig), RtsConfig::local(1)] {
            let rts = RuntimeSystem::start(cfg);
            let pilot = rts.submit_pilot(&PilotDescription::test_rig());
            assert!(rts.wait_pilot_ready(pilot, Duration::from_secs(5)));
            assert!(matches!(
                rts.pilot_ends().try_recv(),
                Err(TryRecvError::Empty)
            ));
            rts.kill();
            assert!(matches!(
                rts.pilot_ends().try_recv(),
                Err(TryRecvError::Disconnected)
            ));
        }
    }

    #[test]
    fn teardown_reports_duration() {
        let rts = RuntimeSystem::start(RtsConfig::sim(PlatformId::TestRig));
        let d = rts.teardown();
        assert!(d < Duration::from_secs(5));
        assert!(!rts.is_alive());
    }
}
