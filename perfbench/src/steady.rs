//! `perfbench steady`: the steadiness report.
//!
//! Runs each workload in two sets of `RUNS` untraced runs, each run of a
//! set with another seed and the second set with the same seeds as the
//! first, then `TRACED_RUNS` traced runs. For every end-to-end metric of
//! `BENCHMARK.json` it prints per set the median, the quartiles and the
//! spread (interquartile distance over the median), and how much worse
//! the second set's median is than the first's, next to the metric's
//! bound; then the median tracing overhead. The report passes when every
//! run is correct, every spread is within its bound and no median got
//! worse by more than its bound.

use crate::measure;
use crate::WORKLOADS;
use betze::json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

/// Untraced runs per set and workload.
const RUNS: u64 = 10;
/// Sets of untraced runs per workload, with the same seeds.
const SETS: usize = 2;
/// Traced runs per workload.
const TRACED_RUNS: u64 = 3;
/// Seed of each set's first run; run `i` of a set uses `SEED_BASE + i`.
const SEED_BASE: u64 = 1_000;

/// An end-to-end metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// `BENCHMARK.json` beside the benchmark's directory: its run length and
/// end-to-end metrics.
fn benchmark_json() -> Result<(String, Vec<Declared>), String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let bench = betze::json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let seconds = bench
        .get("run_seconds")
        .and_then(Value::as_i64)
        .ok_or("BENCHMARK.json has no run_seconds")?
        .to_string();
    let declared = bench
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end metrics")?
        .iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_owned(),
                higher_is_better: m.get("better")?.as_str()? == "higher",
                bound: m.get("bound")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("BENCHMARK.json has a malformed end_to_end metric")?;
    Ok((seconds, declared))
}

/// Runs one benchmark process and returns its result line's metrics.
fn run_once(
    workload: &str,
    seed: u64,
    seconds: &str,
    trace: bool,
) -> Result<(bool, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let result = betze::json::parse(last).map_err(|_| {
        format!(
            "{workload} seed {seed} printed no result ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        )
    })?;
    let correct = result.get("correct").and_then(Value::as_bool) == Some(true);
    let mut metrics = BTreeMap::new();
    if let Some(object) = result.get("metrics").and_then(Value::as_object) {
        for (name, m) in object.iter() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                metrics.insert(name.to_owned(), v);
            }
        }
    }
    Ok((correct && output.status.success(), metrics))
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let change = (second - first) / first.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

pub fn main(args: &[String]) -> Result<bool, String> {
    if let Some(arg) = args.first() {
        return Err(format!("steady takes no arguments, got '{arg}'"));
    }
    let (seconds, declared) = benchmark_json()?;
    let mut steady = true;
    for workload in WORKLOADS {
        let mut sets: Vec<BTreeMap<String, Vec<f64>>> = vec![BTreeMap::new(); SETS];
        let mut incorrect = Vec::new();
        for (set, values) in sets.iter_mut().enumerate() {
            for seed in SEED_BASE..SEED_BASE + RUNS {
                let (correct, metrics) = run_once(workload, seed, &seconds, false)?;
                if !correct {
                    incorrect.push(seed);
                }
                let line: Vec<String> =
                    metrics.iter().map(|(k, v)| format!("{k} {v:.4}")).collect();
                println!(
                    "{workload} set {} seed {seed}: {}",
                    set + 1,
                    line.join(", ")
                );
                for (name, v) in metrics {
                    values.entry(name).or_default().push(v);
                }
            }
        }
        let mut overhead = Vec::new();
        for seed in SEED_BASE..SEED_BASE + TRACED_RUNS {
            let (correct, metrics) = run_once(workload, seed, &seconds, true)?;
            if !correct {
                incorrect.push(seed);
            }
            overhead.extend(metrics.get("trace.overhead_frac").copied());
        }
        println!(
            "\n### {workload}: {SETS} sets of {RUNS} untraced runs, seeds {SEED_BASE}..{}, {seconds} s each; incorrect runs: {incorrect:?}",
            SEED_BASE + RUNS - 1
        );
        println!("| metric | bound | set | median | q1 | q3 | spread | worse than set 1 |");
        println!("|---|---|---|---|---|---|---|---|");
        for metric in &declared {
            let mut first_median = None;
            for (set, values) in sets.iter().enumerate() {
                let v = values.get(&metric.name).map_or(&[][..], Vec::as_slice);
                let med = measure::median(v);
                let (q1, q3) = measure::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
                let spread = measure::spread(v);
                let worse = match (first_median, med) {
                    (Some(a), Some(b)) => Some(worsening(a, b, metric.higher_is_better)),
                    _ => None,
                };
                first_median = first_median.or(med);
                steady &= spread.is_some_and(|s| s <= metric.bound)
                    && worse.is_none_or(|w| w <= metric.bound);
                println!(
                    "| {} | {} | {} | {:.4} | {q1:.4} | {q3:.4} | {:.4} | {} |",
                    metric.name,
                    metric.bound,
                    set + 1,
                    med.unwrap_or(f64::NAN),
                    spread.unwrap_or(f64::NAN),
                    worse.map_or("-".to_owned(), |w| format!("{w:.4}"))
                );
            }
        }
        if let Some(med) = measure::median(&overhead) {
            println!(
                "\ntrace.overhead_frac over {} traced runs: median {med:.4}, values {overhead:.4?}",
                overhead.len()
            );
        }
        steady &= incorrect.is_empty();
    }
    Ok(steady)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_better_direction() {
        assert_eq!(worsening(100.0, 110.0, false), 0.1);
        assert_eq!(worsening(100.0, 110.0, true), -0.1);
        assert_eq!(worsening(100.0, 90.0, true), 0.1);
    }
}
