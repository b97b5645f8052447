//! # entk-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of §IV:
//!
//! | target | reproduces |
//! |---|---|
//! | `table1_params`      | Table I — experiment parameters |
//! | `fig06_prototype`    | Fig. 6 — prototype producers/consumers over the broker |
//! | `fig07_overheads`    | Fig. 7a–d — overheads vs executable, duration, CI, structure |
//! | `fig08_weak_scaling` | Fig. 8 — weak scaling on (simulated) Titan |
//! | `fig09_strong_scaling` | Fig. 9 — strong scaling on (simulated) Titan |
//! | `fig10_seismic`      | Fig. 10 — seismic forward simulations vs concurrency |
//! | `fig11_anen`         | Fig. 11 — AUA vs random analog location selection |
//!
//! Criterion micro-benchmarks (`cargo bench`) cover the broker, the state
//! machines, the simulation engine and the AnEn similarity search.
//!
//! Every binary accepts `--quick` for a reduced-scale run (used by CI and
//! the `run_all` smoke target) and prints machine-readable rows so the
//! numbers can be diffed against EXPERIMENTS.md.

use entk_core::{
    AppManager, AppManagerConfig, OverheadReport, PythonEmulation, ResourceDescription, RunReport,
    Workflow,
};
use hpc_sim::PlatformId;
use std::time::Duration;

/// Minimal flag parsing: `has_flag(&args, "--quick")`.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Value-flag parsing: `--tasks 1000`.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parse a numeric flag with a default.
pub fn flag_num<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    flag_value(args, flag)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Collected argv (without the binary name).
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Print a two-column overhead table (measured Rust + interpreter-emulated).
pub fn print_overheads(label: &str, measured: &OverheadReport, emulated: Option<&OverheadReport>) {
    println!("## {label}");
    println!(
        "{:<28} {:>14} {:>18}",
        "component", "measured (s)", "py-emulated (s)"
    );
    let rows: Vec<(&str, f64, Option<f64>)> = vec![
        (
            "EnTK Setup Overhead",
            measured.entk_setup_secs,
            emulated.map(|e| e.entk_setup_secs),
        ),
        (
            "EnTK Management Overhead",
            measured.entk_management_secs,
            emulated.map(|e| e.entk_management_secs),
        ),
        (
            "EnTK Tear-Down Overhead",
            measured.entk_teardown_secs,
            emulated.map(|e| e.entk_teardown_secs),
        ),
        (
            "RTS Overhead",
            measured.rts_overhead_secs,
            emulated.map(|e| e.rts_overhead_secs),
        ),
        (
            "RTS Tear-Down Overhead",
            measured.rts_teardown_secs,
            emulated.map(|e| e.rts_teardown_secs),
        ),
        (
            "Data Staging Time",
            measured.data_staging_secs,
            emulated.map(|e| e.data_staging_secs),
        ),
        (
            "Task Execution Time",
            measured.task_execution_secs,
            emulated.map(|e| e.task_execution_secs),
        ),
    ];
    for (name, m, e) in rows {
        match e {
            Some(e) => println!("{name:<28} {m:>14.4} {e:>18.4}"),
            None => println!("{name:<28} {m:>14.4} {:>18}", "-"),
        }
    }
    println!(
        "tasks done {}   failed attempts {}   transitions {}",
        measured.tasks_done, measured.failed_attempts, measured.transitions
    );
    println!();
}

/// Run one workflow through EnTK on a simulated CI and return the report.
/// `host_emulation` selects the interpreter-cost model for the CI's host.
pub fn run_on_sim(
    workflow: Workflow,
    platform: PlatformId,
    nodes: u32,
    walltime_secs: u64,
    seed: u64,
    timeout: Duration,
) -> RunReport {
    let emulation = match platform {
        PlatformId::Titan => PythonEmulation::ornl_login(),
        _ => PythonEmulation::tacc_vm(),
    };
    let mut amgr = AppManager::new(
        AppManagerConfig::new(
            ResourceDescription::sim(platform, nodes, walltime_secs).with_seed(seed),
        )
        .with_python_emulation(emulation)
        .with_run_timeout(timeout),
    );
    // Tracing rides along when ENTK_TRACE=<prefix> is exported: AppManager
    // enables the recorder and dumps <prefix>.prof.jsonl / .chrome.json /
    // .report.txt.
    amgr.run(workflow).expect("experiment run completes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        let args: Vec<String> = ["--quick", "--tasks", "512"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(has_flag(&args, "--quick"));
        assert!(!has_flag(&args, "--verbose"));
        assert_eq!(flag_num(&args, "--tasks", 0usize), 512);
        assert_eq!(flag_num(&args, "--other", 7usize), 7);
    }

    #[test]
    fn print_overheads_smoke() {
        let m = OverheadReport::default();
        print_overheads("smoke", &m, None);
        print_overheads("smoke-em", &m, Some(&m));
    }
}
