//! `BENCHMARK.json` as the single source of names, directions and bounds:
//! `--check` holds the benchmark's output against it, `compare` judges two
//! ledgers by it.

use crate::stats::{median, quartiles, relative_spread};
use crate::surface::{parse_json, Json};
use std::collections::BTreeMap;

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen; absent
    /// for per-layer metrics.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Declared>,
    pub per_layer: Vec<Declared>,
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or(format!("BENCHMARK.json: missing string \"{key}\""))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json: missing array \"{key}\""))
}

impl Contract {
    pub fn parse(source: &str) -> Result<Contract, String> {
        let doc = parse_json(source).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let declared = |key: &str| -> Result<Vec<Declared>, String> {
            list(&doc, key)?
                .iter()
                .map(|m| {
                    Ok(Declared {
                        name: text(m, "name")?,
                        unit: text(m, "unit")?,
                        higher_is_better: text(m, "better")? == "higher",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Contract {
            workloads: list(&doc, "workloads")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: declared("end_to_end")?,
            per_layer: declared("per_layer")?,
        })
    }

    /// Read `BENCHMARK.json` from the current directory, where the driver
    /// and the README's commands run the benchmark from.
    pub fn load() -> Result<Contract, String> {
        let source = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("cannot read BENCHMARK.json in the current directory: {e}"))?;
        Contract::parse(&source)
    }

    /// Names (with units) that differ between a run's output and the
    /// declaration for its kind of run; empty when they agree.
    pub fn mismatches(&self, traced: bool, printed: &[(String, String)]) -> Vec<String> {
        let declared = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut out = Vec::new();
        for d in declared {
            match printed.iter().find(|(name, _)| *name == d.name) {
                None => out.push(format!("{} is declared but was not printed", d.name)),
                Some((_, unit)) if *unit != d.unit => out.push(format!(
                    "{} is declared in {} but was printed in {unit}",
                    d.name, d.unit
                )),
                Some(_) => {}
            }
        }
        for (name, _) in printed {
            if !declared.iter().any(|d| d.name == *name) {
                out.push(format!("{name} was printed but is not declared"));
            }
        }
        out
    }
}

/// One run as a ledger file records it.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub traced: bool,
    pub failed: u64,
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
}

/// The `runs` of a ledger file written by the all-workloads mode.
pub fn parse_ledger(source: &str) -> Result<Vec<Run>, String> {
    let doc = parse_json(source)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_array)
        .ok_or("ledger without \"runs\"")?;
    runs.iter()
        .map(|r| {
            let result = r.get("result").ok_or("run without \"result\"")?;
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err("result without \"metrics\"".to_string());
            };
            Ok(Run {
                workload: text(r, "workload")?,
                traced: r.get("trace").and_then(Json::as_f64) == Some(1.0),
                failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
                correct: result.get("correct").and_then(Json::as_bool) == Some(true),
                metrics: metrics
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                    .collect(),
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    /// The run-to-run spread of either side is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

/// Judge candidate `b` against baseline `a` on one (metric, workload) pair,
/// using nothing but the metric's declared direction and bound.
pub fn verdict(metric: &Declared, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let too_wide = |v: &[f64]| relative_spread(v).is_some_and(|s| s > bound);
    if too_wide(a) || too_wide(b) {
        return Verdict::Unresolved;
    }
    let (base, cand) = (median(a), median(b));
    let worsening = if metric.higher_is_better {
        base - cand
    } else {
        cand - base
    };
    if base != 0.0 && worsening / base.abs() > bound {
        Verdict::Worse
    } else {
        Verdict::Same
    }
}

fn summary(values: &[f64]) -> String {
    let med = median(values);
    match (quartiles(values), relative_spread(values)) {
        (Some([q1, _, q3]), Some(spread)) => {
            format!("{med:>12.4} [{q1:.4} .. {q3:.4}] ±{:.1}%", spread * 100.0)
        }
        _ => format!("{med:>12.4}"),
    }
}

/// `perf_ledger compare <a.json> <b.json>`: returns whether every pair is
/// `same` and no run of either file had a failed operation.
pub fn compare(contract: &Contract, a: &[Run], b: &[Run]) -> bool {
    let values = |runs: &[Run], workload: &str, metric: &str| -> Vec<f64> {
        runs.iter()
            .filter(|r| !r.traced && r.workload == workload)
            .filter_map(|r| r.metrics.get(metric).copied())
            .collect()
    };
    let mut agree = true;
    println!(
        "{:<16} {:<20} {:<42} {:<42} {:>8}  verdict",
        "workload", "metric", "a: median [q1 .. q3] spread", "b: median [q1 .. q3] spread", "bound"
    );
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let (va, vb) = (
                values(a, workload, &metric.name),
                values(b, workload, &metric.name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("{workload:<16} {:<20} missing from a ledger", metric.name);
                agree = false;
                continue;
            }
            let v = verdict(metric, &va, &vb);
            agree &= v == Verdict::Same;
            println!(
                "{workload:<16} {:<20} {:<42} {:<42} {:>7.0}%  {}",
                metric.name,
                summary(&va),
                summary(&vb),
                metric.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Same => "same",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for (label, runs) in [("a", a), ("b", b)] {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let incorrect = runs.iter().filter(|r| !r.correct).count();
        println!(
            "{label}: {} runs, {failed} failed operations, {incorrect} incorrect runs",
            runs.len()
        );
        agree &= failed == 0 && incorrect == 0;
    }
    agree
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTRACT: &str = r#"{
        "command": ["x"], "paths": ["perf_ledger"], "run_seconds": 20,
        "workloads": [{"name": "wide", "why": "w"}, {"name": "deep", "why": "d"}],
        "end_to_end": [
            {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
        ],
        "per_layer": [{"name": "mq.wakeup_us", "unit": "us", "better": "lower"}]
    }"#;

    fn metric(higher: bool) -> Declared {
        Declared {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(0.1),
        }
    }

    #[test]
    fn contract_parses_names_directions_and_bounds() {
        let c = Contract::parse(CONTRACT).unwrap();
        assert_eq!(c.workloads, ["wide", "deep"]);
        assert!(c.end_to_end[0].higher_is_better);
        assert_eq!(c.end_to_end[1].bound, Some(0.25));
        assert_eq!(c.per_layer[0].bound, None);
        assert!(Contract::parse("{}").is_err());
    }

    #[test]
    fn check_reports_both_directions_and_units() {
        let c = Contract::parse(CONTRACT).unwrap();
        let ok = [
            ("tasks_per_s".to_string(), "1/s".to_string()),
            ("setup_s".to_string(), "s".to_string()),
        ];
        assert!(c.mismatches(false, &ok).is_empty());
        let off = [
            ("tasks_per_s".to_string(), "1/min".to_string()),
            ("extra".to_string(), "s".to_string()),
        ];
        let found = c.mismatches(false, &off);
        assert_eq!(found.len(), 3, "{found:?}");
        assert_eq!(c.mismatches(true, &ok).len(), 3);
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        assert_eq!(verdict(&metric(true), &[100.0], &[91.0]), Verdict::Same);
        assert_eq!(verdict(&metric(true), &[100.0], &[89.0]), Verdict::Worse);
        assert_eq!(verdict(&metric(true), &[100.0], &[150.0]), Verdict::Same);
        assert_eq!(verdict(&metric(false), &[100.0], &[109.0]), Verdict::Same);
        assert_eq!(verdict(&metric(false), &[100.0], &[111.0]), Verdict::Worse);
        assert_eq!(verdict(&metric(false), &[100.0], &[50.0]), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_not_same() {
        let noisy = [80.0, 90.0, 100.0, 110.0, 120.0];
        let tight = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(verdict(&metric(true), &noisy, &tight), Verdict::Unresolved);
        assert_eq!(verdict(&metric(true), &tight, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(&metric(true), &tight, &tight), Verdict::Same);
    }

    #[test]
    fn ledger_round_trip() {
        let ledger = r#"{"host":"h","runs":[
            {"workload":"wide","trace":0,"seed":1,"result":{"correct":true,"attempted":4,"failed":0,
             "metrics":{"tasks_per_s":{"value":6800.5,"unit":"1/s"}}}},
            {"workload":"wide","trace":1,"seed":1,"result":{"correct":false,"attempted":4,"failed":1,
             "metrics":{}}}]}"#;
        let runs = parse_ledger(ledger).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].metrics["tasks_per_s"], 6800.5);
        assert!(!runs[0].traced && runs[0].correct);
        assert!(runs[1].traced && !runs[1].correct && runs[1].failed == 1);
    }
}
