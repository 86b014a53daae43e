//! `autotune-benchmark`: one command for the served path and the tuning
//! path. See `benchmark/README.md` for the workload and metric
//! definitions; `BENCHMARK.json` at the repository root declares them.

mod cache;
mod calib;
mod gen;
mod layers;
mod serve;
mod stats;
mod stream;
mod suite;
mod tune;

use stats::median;
use std::collections::BTreeMap;
use std::time::Instant;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

impl EndToEnd {
    /// One value from the samples of a run's repetitions: the median, or
    /// for a tail percentile the lower quartile.
    fn reduce(&self, samples: &[f64]) -> f64 {
        if matches!(self.name, "lookup_p99_us" | "step_p95_ms") {
            stats::lower_quartile(samples)
        } else {
            median(samples)
        }
    }
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// The bounds are what ten runs with ten seeds on a shared two-vCPU box
/// support (README, "Noise floor"), not what one would like them to be.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("lookups_per_s", "1/s", true, 0.25),
    e2e("lookup_p50_us", "us", false, 0.25),
    e2e("lookup_p99_us", "us", false, 0.25),
    e2e("warm_s", "s", false, 0.25),
    e2e("trials_per_s", "1/s", true, 0.25),
    e2e("step_p95_ms", "ms", false, 0.25),
    e2e("recovery_s", "s", false, 0.25),
    e2e("ops_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MB", false, 0.2),
];

pub const WORKLOADS: [&str; 6] = [
    "serve_hit",
    "serve_cold",
    "tune_bo",
    "tune_fleet",
    "cache_read",
    "cache_churn",
];

/// How long and how often a run measures.
pub struct Budget {
    /// `--seconds`: the measured phase repeats until this has passed
    /// (and at least its fixed minimum of repetitions).
    pub seconds: f64,
    /// Scales every timed interval to the reference machine.
    pub pace: calib::Pace,
}

impl Budget {
    fn new(seconds: f64) -> Self {
        Budget {
            seconds,
            pace: calib::Pace::new(),
        }
    }

    pub fn spent(&self, since: Instant) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds
    }

    /// Sets up at least three times and for about 0.4 s, each time
    /// between two calibration runs. Returns the seconds each set-up took
    /// on the reference machine, and the set-ups.
    pub fn time_setups<T>(&self, mut setup: impl FnMut() -> T) -> (Vec<f64>, Vec<T>) {
        let mut samples = Vec::new();
        let mut made = Vec::new();
        let all = Instant::now();
        while samples.len() < 3 || all.elapsed().as_secs_f64() < 0.4 {
            let (secs, speed) = self.pace.around(|| {
                let start = Instant::now();
                made.push(setup());
                start.elapsed().as_secs_f64()
            });
            samples.push(speed.time(secs));
        }
        (samples, made)
    }
}

/// What one workload run produced: per-repetition samples of the
/// end-to-end metrics it measures itself, and exact counts.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    /// Measured repetitions (segments or full runs) behind the medians.
    pub reps: usize,
    values: BTreeMap<&'static str, Vec<f64>>,
    /// Which metrics came from the workload's own script.
    native: Vec<&'static str>,
    counts: BTreeMap<String, f64>,
}

impl Run {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Run {
            attempted,
            failed,
            reps: 0,
            values: BTreeMap::new(),
            native: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Records the workload's own samples of an end-to-end metric.
    pub fn put(&mut self, name: &'static str, samples: Vec<f64>) {
        self.native.push(name);
        self.values.insert(name, samples);
    }

    /// Records probe samples for a metric the workload did not measure.
    pub fn put_missing(&mut self, name: &'static str, samples: Vec<f64>) {
        self.values.entry(name).or_insert(samples);
    }

    /// Records a count that must repeat exactly for a seed.
    pub fn count(&mut self, name: &str, value: f64) {
        self.counts.insert(name.to_string(), value);
    }
}

/// The fewest streams a probe runs: enough rounds for one batch of its
/// `step_p95_ms` whatever `--seconds` is.
const PROBE_MIN_REPS: usize = 20;

/// The contract wants every end-to-end metric from every workload. A
/// metric the workload's own script does not produce is measured on the
/// *probe*: short `serve_cold` streams in the same process, which exercise
/// lookups, steps, trials and recovery alike, for the rest of `--seconds`.
/// Probe cells exist for the contract's sake; no claim may cite one
/// (README, "Probe cells").
fn probe(seed: u64, budget: &Budget, run: &mut Run) {
    let mut cold = serve::ColdMetrics::default();
    let started = Instant::now();
    let mut rep = 0;
    while rep < PROBE_MIN_REPS || !budget.spent(started) {
        let fleet_seed = serve::cold_seed(seed, 1_000 + rep);
        let reopen = rep < serve::COLD_MIN_REPS;
        cold.absorb(serve::cold_rep(
            &serve::PROBE,
            fleet_seed,
            reopen,
            None,
            &budget.pace,
        ));
        rep += 1;
    }
    run.attempted += cold.attempted;
    run.failed += cold.failed;
    let mut short = 0;
    for (name, samples) in cold.into_samples(&mut short) {
        run.put_missing(name, samples);
    }
    run.failed += short;
}

/// Share of `--seconds` the probe measures for, where one is needed.
const PROBE_SHARE: f64 = 0.3;

fn run_workload(name: &str, seed: u64, seconds: f64) -> Option<Run> {
    let native_share = if name == "serve_cold" {
        1.0
    } else {
        1.0 - PROBE_SHARE
    };
    let budget = &Budget::new(seconds * native_share);
    let mut run = match name {
        "serve_hit" => serve::run_hit(seed, budget),
        "serve_cold" => serve::run_cold(seed, budget),
        "tune_bo" => tune::run_tune(&tune::TUNE_BO, seed, budget),
        "tune_fleet" => tune::run_tune(&tune::TUNE_FLEET, seed, budget),
        "cache_read" => cache::run_read(seed, budget),
        "cache_churn" => cache::run_churn(seed, budget),
        _ => return None,
    };
    if END_TO_END.iter().any(|m| !run.values.contains_key(m.name)) {
        probe(seed, &Budget::new(seconds * PROBE_SHARE), &mut run);
    }
    Some(run)
}

/// A JSON number with all its digits; a value that is not finite is a
/// failed measurement and reads as 0 with the run marked incorrect.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, String)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: usize,
}

fn usage() -> String {
    format!(
        "usage: autotune-benchmark --seed <u64> [--workload <{}>] [--seconds <n>] [--trace [0|1]] [--repeat <k>]\n\
         without --workload: runs every workload, each in its own process, --repeat times (default 2)\n\
         and prints the spread of every end-to-end metric against its bound",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: 18.0,
        trace: false,
        repeat: 2,
    };
    let mut seed = None;
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?.clone()),
            "--seed" => {
                seed = Some(
                    value("a u64")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
            }
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if let Some(w) = &args.workload {
        if !WORKLOADS.contains(&w.as_str()) {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

fn header(args: &Args, workload: &str) {
    println!(
        "# autotune-benchmark workload={workload} seed={} seconds={} trace={} nproc={} registry_workers={} reader_threads=1 scaling_threads={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        gen::WORKERS,
        cache::reader_threads(),
    );
}

/// Runs one workload in this process; returns the exit code.
fn run_one(args: &Args, workload: &str) -> i32 {
    header(args, workload);
    if args.trace {
        return layers::run_traced(workload, args.seed);
    }
    let run = run_workload(workload, args.seed, args.seconds).expect("workload name was validated");
    println!(
        "# repetitions={} (median over repetitions, lower quartile for lookup_p99_us and step_p95_ms; min and max shown)",
        run.reps
    );
    let mut metrics = Vec::new();
    let mut failed = run.failed;
    for m in &END_TO_END {
        let samples = &run.values[m.name];
        let value = m.reduce(samples);
        if !(value.is_finite() && value > 0.0) {
            failed += 1;
        }
        let (lo, hi) = samples
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        println!(
            "{:<15} {:>14.4} {:<4} n={:<3} min {:.4} max {:.4}  {}",
            m.name,
            value,
            m.unit,
            samples.len(),
            lo,
            hi,
            if run.native.contains(&m.name) {
                "native"
            } else {
                "probe"
            },
        );
        metrics.push((m.name.to_string(), value, m.unit.to_string()));
    }
    for (name, value) in &run.counts {
        println!("{name:<40} {value}");
    }
    println!("ops_attempted {}", run.attempted);
    println!("ops_failed {failed}");
    println!(
        "{}",
        result_line(failed == 0, run.attempted, failed, &metrics)
    );
    i32::from(failed != 0)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            std::process::exit(2);
        }
    };
    // Every scratch directory is removed by its owner's destructor before
    // the exit code is handed over.
    let code = match &args.workload {
        Some(w) => run_one(&args, w),
        None => suite::run(&args),
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn seed_is_required_and_trace_takes_both_forms() {
        assert!(parse("--workload serve_hit").is_err());
        assert!(parse("--seed 1 --workload nope").is_err());
        let a = parse("--workload tune_bo --seed 7 --seconds 3 --trace 1").expect("driver form");
        assert!(a.trace && a.seed == 7 && a.seconds == 3.0);
        assert!(!parse("--seed 7 --trace 0").expect("off").trace);
        assert!(parse("--seed 7 --trace").expect("bare flag").trace);
        assert_eq!(parse("--seed 7").expect("defaults").repeat, 2);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 0, 0, &[("setup_s".into(), 0.25, "s".into())]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` and the tables in this file must not drift apart.
    #[test]
    fn benchmark_json_declares_the_same_workloads_and_metrics() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\":")),
                "workload {w}"
            );
        }
        for m in &END_TO_END {
            let better = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(text.contains(&entry), "end-to-end entry {entry}");
        }
        for (name, unit, _) in layers::PER_LAYER {
            assert!(
                text.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\",")),
                "per-layer metric {name}"
            );
        }
    }
}
