//! The whole set: every workload in its own process, `--repeat` times on
//! the same build, then the spread of every end-to-end metric against its
//! bound and the counts that must repeat exactly.

use crate::{Args, END_TO_END, WORKLOADS};
use serde::Deserialize;
use std::collections::BTreeMap;
use std::process::Command;

#[derive(Deserialize)]
struct Metric {
    value: f64,
    unit: String,
}

#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, Metric>,
}

/// One child run: its result line and its count lines (`layer.name value`).
struct Child {
    result: ResultLine,
    counts: BTreeMap<String, String>,
}

fn run_child(args: &Args, workload: &str, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result: ResultLine =
        serde_json::from_str(last).map_err(|e| format!("{workload}: no result line ({e})"))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{workload}: {} of {} operations failed",
            result.failed, result.attempted
        ));
    }
    // Count lines are `workload.name value`; they must repeat exactly.
    let counts = stdout
        .lines()
        .filter_map(|l| l.split_once(char::is_whitespace))
        .filter(|(name, _)| name.starts_with(workload) && name.contains('.'))
        .map(|(name, value)| (name.to_string(), value.trim().to_string()))
        .collect();
    Ok(Child { result, counts })
}

pub fn run(args: &Args) -> i32 {
    let mut failures = Vec::new();
    let mut rounds: BTreeMap<&str, Vec<Child>> = BTreeMap::new();
    for round in 0..args.repeat.max(1) {
        println!("# round {} of {}", round + 1, args.repeat.max(1));
        for w in WORKLOADS {
            match run_child(args, w, false) {
                Ok(child) => rounds.entry(w).or_default().push(child),
                Err(e) => failures.push(e),
            }
        }
    }
    if args.trace {
        for w in WORKLOADS {
            if let Err(e) = run_child(args, w, true) {
                failures.push(e);
            }
        }
    }

    println!(
        "# spread of each end-to-end metric over {} rounds, against its bound",
        args.repeat
    );
    let mut outside = 0;
    for w in WORKLOADS {
        let Some(children) = rounds.get(w) else {
            continue;
        };
        for m in &END_TO_END {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.result.metrics.get(m.name).map(|v| v.value))
                .collect();
            if values.len() < 2 {
                continue;
            }
            // The driver's own acceptance statistic.
            let spread = crate::stats::quartile_spread(&values);
            let flag = if spread > m.bound {
                outside += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            let unit = children[0]
                .result
                .metrics
                .get(m.name)
                .map_or("", |v| v.unit.as_str());
            println!(
                "{w:<12} {:<15} median {:>14.4} {unit:<4} spread {:>6.2} %  bound {:>4.0} %{flag}",
                m.name,
                crate::stats::median(&values),
                100.0 * spread,
                100.0 * m.bound,
            );
        }
        let first = &children[0].counts;
        for (i, c) in children.iter().enumerate().skip(1) {
            if c.counts != *first {
                failures.push(format!(
                    "{w}: counts of round {} differ from round 1",
                    i + 1
                ));
            }
        }
    }
    println!("# {outside} metric/workload pairs outside their bound");
    for f in &failures {
        println!("FAILED {f}");
    }
    i32::from(!failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let line = crate::result_line(true, 7, 0, &[("setup_s".into(), 0.5, "s".into())]);
        let parsed: ResultLine = serde_json::from_str(&line).expect("parse");
        assert!(parsed.correct && parsed.attempted == 7 && parsed.failed == 0);
        assert_eq!(parsed.metrics["setup_s"].value, 0.5);
        assert_eq!(parsed.metrics["setup_s"].unit, "s");
    }
}
