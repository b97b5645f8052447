//! The overhead decomposition of §IV-A2.
//!
//! [`OverheadReport`] splits a run the way the paper's Fig. 7 does:
//!
//! * **EnTK Setup Overhead** — messaging infrastructure + component
//!   instantiation + description validation;
//! * **EnTK Management Overhead** — active processing time spent by the
//!   Enqueue/Dequeue/Emgr/Callback/Synchronizer subcomponents translating
//!   and communicating tasks (blocking waits excluded);
//! * **EnTK Tear-Down Overhead** — canceling components and shutting the
//!   messaging infrastructure down;
//!
//! and takes **RTS Overhead**, **RTS Tear-Down**, **Data Staging Time** and
//! **Task Execution Time** from the runtime system's profile.
//!
//! Each EnTK interval is timed once, by the recorder span around it: the
//! AppManager folds every span's duration into the run's report as the
//! span closes, whether tracing is on or off. [`OverheadReport::from_trace`]
//! re-derives the same numbers afterwards from one run's exported trace,
//! the way the paper reads RADICAL `.prof` files.
//!
//! Because the paper's absolute overheads are dominated by CPython process
//! management (its own conclusion: "EnTK and RP should be coded, at least
//! partially, in a different language"), a Rust reimplementation is orders
//! of magnitude faster. To also reproduce the paper's absolute *scale* and
//! its host-performance dependence (Fig. 7c), [`PythonEmulation`] adds a
//! calibrated model of the interpreter costs on top of the measured values.
//! Benchmarks report both columns; EXPERIMENTS.md documents the calibration.

/// The paper's overhead decomposition for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverheadReport {
    /// EnTK Setup Overhead, seconds.
    pub entk_setup_secs: f64,
    /// EnTK Management Overhead, seconds.
    pub entk_management_secs: f64,
    /// EnTK Tear-Down Overhead, seconds.
    pub entk_teardown_secs: f64,
    /// RTS Overhead (submission/launch path), seconds.
    pub rts_overhead_secs: f64,
    /// RTS Tear-Down Overhead, seconds.
    pub rts_teardown_secs: f64,
    /// Data Staging Time, seconds.
    pub data_staging_secs: f64,
    /// Task Execution Time (makespan of the execution phase), seconds.
    pub task_execution_secs: f64,
    /// Total tasks that completed successfully.
    pub tasks_done: u64,
    /// Failed/lost attempts observed (before resubmission succeeded).
    pub failed_attempts: u64,
    /// State transitions applied by the Synchronizer.
    pub transitions: u64,
}

impl OverheadReport {
    /// Re-derive the paper's overhead decomposition from one run's trace
    /// alone (§IV-A2) — the same way the paper derives its overheads from
    /// RADICAL `.prof` files. Durations are summed in integer nanoseconds,
    /// as the run's live report sums them, so the EnTK columns and the
    /// counts equal [`crate::RunReport::overheads`] exactly.
    ///
    /// * setup / tear-down / RTS-teardown come from the AppManager's phase
    ///   spans;
    /// * management sums the duration of every component processing span
    ///   (Enqueue batch, Emgr submit, RTS-callback handling, which
    ///   encloses Dequeue's verdicts); the Synchronizer's `apply` spans run
    ///   inside them and are not counted again;
    /// * RTS overhead is the Rmgr acquisition span (the client-side wall
    ///   share; the virtual submission→first-start share lives only in the
    ///   RTS profile and is not wall-clock traceable);
    /// * transition / attempt counts come from instant events;
    /// * task execution is the wall span from the first `unit_started` to
    ///   the last `unit_ended` (on simulated CIs the live report uses the
    ///   *virtual* makespan instead, so the two columns differ there by
    ///   design);
    /// * data staging is not traced per-operation and stays zero.
    ///
    /// The events must be one run's: a recorder that several runs share
    /// mixes their spans.
    pub fn from_trace(events: &[entk_observe::Event]) -> OverheadReport {
        use entk_observe::components as c;
        let secs = |ns: u64| ns as f64 / 1e9;
        let mut r = OverheadReport::default();
        let (mut setup, mut teardown, mut rts_teardown) = (0u64, 0u64, 0u64);
        let (mut rmgr, mut management) = (0u64, 0u64);
        let mut first_start: Option<u64> = None;
        let mut last_end: Option<u64> = None;
        for e in events {
            let dur = e.dur_ns.unwrap_or(0);
            match (e.component, e.kind) {
                (c::AMGR, "setup") => setup = dur,
                (c::AMGR, "teardown") => teardown = dur,
                (c::AMGR, "rts_teardown") => rts_teardown = dur,
                (c::AMGR, "rmgr_acquire") => rmgr += dur,
                (c::ENQ, "batch") | (c::EMGR, "submit_batch") | (c::EMGR, "callback") => {
                    management += dur
                }
                (c::SYNC, "transition") => r.transitions += 1,
                (c::DEQ, "attempt_done") => r.tasks_done += 1,
                (c::DEQ, "attempt_failed") => r.failed_attempts += 1,
                (c::RTS, "unit_started") => {
                    first_start = Some(first_start.map_or(e.ts_ns, |v| v.min(e.ts_ns)));
                }
                (c::RTS, "unit_ended") => {
                    last_end = Some(last_end.map_or(e.ts_ns, |v| v.max(e.ts_ns)));
                }
                _ => {}
            }
        }
        r.entk_setup_secs = secs(setup);
        r.entk_management_secs = secs(management);
        r.entk_teardown_secs = secs(teardown);
        r.rts_overhead_secs = secs(rmgr);
        r.rts_teardown_secs = secs(rts_teardown);
        if let (Some(s), Some(e)) = (first_start, last_end) {
            r.task_execution_secs = secs(e.saturating_sub(s));
        }
        r
    }
}

/// Calibrated model of the CPython implementation's overheads, used to
/// report paper-scale numbers next to the measured Rust ones.
///
/// Calibration targets (paper Fig. 7, TACC VM = `cpu_factor` 1.0; ORNL login
/// node = 0.4): setup ≈ 0.1 s / 0.05 s; management ≈ 10 s / 3 s for ~16-task
/// applications, roughly flat in task count until the host strains beyond
/// ~2,048 concurrent tasks (Fig. 8's management uptick at 4,096); tear-down
/// seconds; RTS tear-down tens of seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PythonEmulation {
    /// Host speed factor: 1.0 = TACC VM, 0.4 = ORNL login node.
    pub host_cpu_factor: f64,
}

impl PythonEmulation {
    /// The TACC VM host (XSEDE experiments).
    pub fn tacc_vm() -> Self {
        PythonEmulation {
            host_cpu_factor: 1.0,
        }
    }

    /// The ORNL login node host (Titan experiments).
    pub fn ornl_login() -> Self {
        PythonEmulation {
            host_cpu_factor: 0.4,
        }
    }

    /// Modeled interpreter overheads for a run of `tasks` total tasks with
    /// at most `max_concurrent` managed concurrently, *added* to the
    /// measured report.
    pub fn emulate(
        &self,
        measured: &OverheadReport,
        tasks: usize,
        max_concurrent: usize,
    ) -> OverheadReport {
        let f = self.host_cpu_factor;
        let strain = 0.0012 * (max_concurrent.saturating_sub(2048)) as f64;
        let mut r = measured.clone();
        r.entk_setup_secs += 0.1 * f;
        r.entk_management_secs += f * (9.0 + 0.0004 * tasks as f64 + strain);
        r.entk_teardown_secs += f * (1.5 + 0.001 * tasks as f64).min(10.0);
        r.rts_overhead_secs += f * (8.0 + 0.002 * tasks as f64);
        r.rts_teardown_secs += f * (30.0 + 0.004 * tasks as f64).min(80.0);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emulation_scales_with_host() {
        let measured = OverheadReport::default();
        let vm = PythonEmulation::tacc_vm().emulate(&measured, 16, 16);
        let login = PythonEmulation::ornl_login().emulate(&measured, 16, 16);
        assert!(vm.entk_setup_secs > login.entk_setup_secs);
        assert!((vm.entk_setup_secs - 0.1).abs() < 1e-9);
        assert!((login.entk_setup_secs - 0.04).abs() < 1e-9);
        // Management ≈ 10 s on the VM, ≈ 3.6 s on the login node.
        assert!((8.0..12.0).contains(&vm.entk_management_secs));
        assert!((2.0..5.0).contains(&login.entk_management_secs));
    }

    #[test]
    fn emulation_strain_kicks_in_beyond_2048() {
        let measured = OverheadReport::default();
        let em = PythonEmulation::ornl_login();
        let at_2048 = em.emulate(&measured, 2048, 2048).entk_management_secs;
        let at_4096 = em.emulate(&measured, 4096, 4096).entk_management_secs;
        assert!(
            at_4096 > at_2048 + 0.5,
            "management must rise beyond 2048 concurrent ({at_2048} -> {at_4096})"
        );
    }

    #[test]
    fn emulation_preserves_measured_base() {
        let measured = OverheadReport {
            task_execution_secs: 600.0,
            data_staging_secs: 11.0,
            ..Default::default()
        };
        let r = PythonEmulation::tacc_vm().emulate(&measured, 512, 512);
        // Execution and staging are CI-side: the interpreter model must not
        // touch them.
        assert_eq!(r.task_execution_secs, 600.0);
        assert_eq!(r.data_staging_secs, 11.0);
    }
}
