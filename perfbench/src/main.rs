//! `perfbench`: the host-clock benchmark of the betze workspace.
//!
//! ```text
//! perfbench --workload <generate|execute|serve> --seed <n> --seconds <s> --trace <0|1>
//! perfbench steady
//! ```
//!
//! A run sets its workload up several times (reporting the median
//! set-up time), measures it for `--seconds`, checks that the program's
//! outputs are correct, and prints as its last stdout line one JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. A run whose correctness gate fails exits 1.
//! See README.md in this directory.

mod execute;
mod generate;
mod measure;
mod serve;
mod steady;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

/// A run sets its workload up once untimed, so that the process's heap
/// and lazily built statics exist, then at least `MIN_SETUPS` times and
/// until the timed set-ups have taken `SETUP_SECONDS` (at most
/// `MAX_SETUPS` times); `setup_s` is the median of the timed ones. Cheap
/// set-ups are repeated more often, so that their median is as steady as
/// that of costly ones.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 50;
const SETUP_SECONDS: f64 = 2.0;

/// Share of `--seconds` spent warming up, untimed, before measuring.
const WARMUP_SHARE: f64 = 0.1;

/// The workload names, in the order `steady` runs them.
pub const WORKLOADS: [&str; 3] = ["generate", "execute", "serve"];

/// The engine legs of the `execute` workload, in run order.
pub const LEGS: [&str; 6] = ["joda", "vm", "mongo", "pg", "jq", "joda-paged"];

/// Every per-layer metric a traced run prints, with its unit, in order.
/// A layer a workload leaves idle reads 0.
pub fn layer_catalog() -> Vec<(String, &'static str)> {
    let fixed = |names: &[(&str, &'static str)]| {
        names
            .iter()
            .map(|&(n, u)| (n.to_owned(), u))
            .collect::<Vec<_>>()
    };
    let mut out = fixed(&[
        ("json.parse_mb_per_s", "MB/s"),
        ("stats.analyze_ms", "ms"),
        ("store.write_mb_per_s", "MB/s"),
        ("store.open_ms", "ms"),
        ("generator.verify_ms", "ms/op"),
        ("generator.verify_calls", "count/op"),
        ("generator.docs_verified", "count/op"),
        ("generator.derive_ms", "ms/op"),
        ("stats.reanalyze_ms", "ms/op"),
        ("generator.self_ms", "ms/op"),
        ("generator.accept_ratio", "ratio"),
        ("lint.ms", "ms/op"),
        ("langs.translate_ms", "ms/op"),
        ("harness.self_ms", "ms/op"),
    ]);
    for leg in LEGS {
        for (field, unit) in [
            ("import_ms", "ms/import"),
            ("execute_ms", "ms/op"),
            ("docs_scanned", "count/op"),
            ("bytes_parsed", "count/op"),
            ("docs_output", "count/op"),
            ("cache_hits", "count/op"),
        ] {
            out.push((format!("engines.{leg}.{field}"), unit));
        }
    }
    out.extend(fixed(&[
        ("serve.executed", "count"),
        ("serve.shed", "count"),
        ("serve.failed", "count"),
        ("serve.client_retries", "count"),
        ("serve.journal_bytes_per_req", "B/req"),
        ("error_rate", "ratio"),
        ("trace.overhead_frac", "ratio"),
    ]));
    out
}

/// Orders `measured` by the catalog, filling idle layers with 0.
fn complete_layers(measured: Vec<Metric>) -> Result<Vec<Metric>, String> {
    let catalog = layer_catalog();
    for m in &measured {
        if !catalog
            .iter()
            .any(|(name, unit)| *name == m.name && *unit == m.unit)
        {
            return Err(format!(
                "layer metric {} ({}) is not in the catalog",
                m.name, m.unit
            ));
        }
    }
    Ok(catalog
        .into_iter()
        .map(|(name, unit)| {
            let value = measured
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect())
}

/// When a phase ends: once it has completed at least `units` units (ops
/// for `generate`, sessions for `execute`, loadgen batches for `serve`)
/// and run for at least `seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    pub units: u64,
    pub seconds: f64,
}

impl Stop {
    /// Exactly `units` units, however long they take.
    pub fn units(units: u64) -> Self {
        Stop {
            units,
            seconds: 0.0,
        }
    }

    /// Whether a phase that has completed `done` units since `started`
    /// is over.
    pub fn reached(&self, done: u64, started: Instant) -> bool {
        done >= self.units && started.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Run parameters shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Scratch directory inside the checkout, removed when the run ends.
    pub work: PathBuf,
    /// Host parallelism (`available_parallelism`).
    pub threads: usize,
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Set-up work timed around the calls into the json, stats and store
/// layers (zero where a workload does not use the layer).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupLayers {
    pub parse_bytes: u64,
    pub parse_s: f64,
    pub analyze_s: f64,
    pub write_bytes: u64,
    pub write_s: f64,
    pub open_s: f64,
}

impl SetupLayers {
    /// Times `f` into one of the fields.
    pub fn time<T>(field: &mut f64, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        *field += started.elapsed().as_secs_f64();
        out
    }
}

/// One measured phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Units completed (see [`Stop`]).
    pub units: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed (query status, generation error, lint error,
    /// unresolved request).
    pub failed: u64,
    /// Per-op latency in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall time of the phase.
    pub wall_s: f64,
    /// Process CPU time spent in the phase.
    pub cpu_ms: f64,
    /// Correctness-gate violations.
    pub mismatches: Vec<String>,
    /// Digests of the units numbered below the workload's digest
    /// prefix (only a phase that starts at unit 0 sees them all).
    pub digests: Vec<(&'static str, u64)>,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<Metric>,
}

impl Phase {
    /// Ops completed per second of the phase.
    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }
}

/// A benchmark workload. Its units form a cycle fixed by the seed:
/// unit `n` of a run is always the same work, whichever phase runs it.
pub trait Workload: Sized {
    /// Units every phase bounded by time completes at least: the digest
    /// prefix, and for `generate` the whole session pool, so that the
    /// gate's verdict depends on the seed alone.
    const MIN_UNITS: u64;

    /// Whether the workload records spans. One that does not has no
    /// tracing overhead to measure.
    const SPANS: bool = true;

    /// Builds the inputs and warms caches.
    fn setup(opts: &Opts, layers: &mut SetupLayers) -> Result<Self, String>;

    /// Runs units `from`, `from + 1`, … until `stop`, recording spans
    /// into `trace`.
    fn measure(
        &mut self,
        opts: &Opts,
        trace: &Trace,
        from: u64,
        stop: Stop,
    ) -> Result<Phase, String>;

    /// Stops whatever the set-up started.
    fn teardown(self) -> Result<(), String> {
        Ok(())
    }
}

/// Runs `f` and records the process CPU time and wall time it took into
/// `phase`.
pub fn timed_phase(
    phase: &mut Phase,
    f: impl FnOnce(&mut Phase) -> Result<(), String>,
) -> Result<(), String> {
    let cpu0 = measure::process_cpu_ms()?;
    let started = Instant::now();
    f(phase)?;
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_ms = measure::process_cpu_ms()? - cpu0;
    Ok(())
}

/// What a run prints.
struct Report {
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn run_workload<W: Workload>(opts: &Opts, traced: bool) -> Result<Report, String> {
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_layers = Vec::new();
    let mut notes = Vec::new();
    let mut state = Some(W::setup(opts, &mut SetupLayers::default())?);
    while setup_s.len() < MIN_SETUPS
        || (setup_s.iter().sum::<f64>() < SETUP_SECONDS && setup_s.len() < MAX_SETUPS)
    {
        if let Some(old) = state.take() {
            old.teardown()?;
        }
        let mut layers = SetupLayers::default();
        let started = Instant::now();
        state = Some(W::setup(opts, &mut layers)?);
        setup_s.push(started.elapsed().as_secs_f64());
        setup_layers.push(layers);
    }
    let mut state = state.expect("MIN_SETUPS > 0");
    notes.push(format!("{} timed set-ups", setup_s.len()));
    notes.push(format!(
        "peak RSS after set-up {:.1} MB",
        measure::peak_rss_mb()?
    ));
    let timed = |seconds: f64| Stop {
        units: W::MIN_UNITS,
        seconds,
    };
    // Let allocator arenas, page tables and engine caches settle before
    // anything is timed. The warm-up starts the unit cycle, so its
    // digests repeat for a seed; the gate covers its ops too.
    let warmup = state.measure(
        opts,
        &Trace::new(false),
        0,
        timed(opts.seconds * WARMUP_SHARE),
    )?;
    let from = warmup.units;
    let (mut report, mut phases) = if traced {
        let (measured, overhead, mut phases) = if W::SPANS {
            // Untraced, traced, untraced over the same units: the first
            // untraced phase runs units [from, from + a), the traced one
            // [from, from + b) with b >= a, the last untraced one
            // [from + a, from + b). The two untraced phases together run
            // exactly the traced units, one before and one after them,
            // which cancels a linear drift of the host.
            let before =
                state.measure(opts, &Trace::new(false), from, timed(opts.seconds / 4.0))?;
            let trace = Trace::new(true);
            let spanned = state.measure(
                opts,
                &trace,
                from,
                Stop {
                    units: before.units,
                    seconds: opts.seconds / 2.0,
                },
            )?;
            let after = state.measure(
                opts,
                &Trace::new(false),
                from + before.units,
                Stop::units(spanned.units - before.units),
            )?;
            let untraced_ops_per_s = (before.attempted - before.failed + after.attempted
                - after.failed) as f64
                / (before.wall_s + after.wall_s);
            notes.push(format!(
                "{} units untraced at {untraced_ops_per_s:.3} ops/s, traced at {:.3} ops/s",
                spanned.units,
                spanned.ops_per_s()
            ));
            let overhead = 1.0 - spanned.ops_per_s() / untraced_ops_per_s;
            (spanned, overhead, vec![before, after])
        } else {
            let phase = state.measure(opts, &Trace::new(true), from, timed(opts.seconds))?;
            (phase, 0.0, Vec::new())
        };
        let mut metrics = setup_metrics(&setup_layers);
        metrics.extend(measured.layers.iter().cloned());
        metrics.push(Metric::new(
            "error_rate",
            error_rate(measured.attempted, measured.failed),
            "ratio",
        ));
        metrics.push(Metric::new("trace.overhead_frac", overhead, "ratio"));
        describe_phase(&measured, &mut notes);
        phases.push(measured);
        (metrics_report(complete_layers(metrics)?, notes), phases)
    } else {
        let phase = state.measure(opts, &Trace::new(false), from, timed(opts.seconds))?;
        let p50 = measure::median(&phase.latencies_ms).ok_or("no op completed")?;
        let tail = measure::tail(&phase.latencies_ms).ok_or("no op completed")?;
        notes.push(format!(
            "op_tail_ms is p{:.2}: {} samples beyond it, {} samples in all",
            tail.percentile, tail.beyond, tail.samples
        ));
        notes.push(format!(
            "error_rate {} ({} failed of {} attempted)",
            error_rate(phase.attempted, phase.failed),
            phase.failed,
            phase.attempted
        ));
        describe_phase(&phase, &mut notes);
        let metrics = vec![
            Metric::new(
                "setup_s",
                measure::median(&setup_s).expect("MIN_SETUPS > 0"),
                "s",
            ),
            Metric::new("ops_per_s", phase.ops_per_s(), "1/s"),
            Metric::new("op_p50_ms", p50, "ms"),
            Metric::new("op_tail_ms", tail.value, "ms"),
            Metric::new("cpu_ms_per_op", phase.cpu_ms / phase.attempted as f64, "ms"),
            Metric::new("peak_rss_mb", measure::peak_rss_mb()?, "MB"),
        ];
        (metrics_report(metrics, notes), vec![phase])
    };
    for (name, digest) in &warmup.digests {
        report.notes.push(format!("digest {name} {digest:016x}"));
    }
    // The verdict covers every op the run made, the warm-up's too.
    phases.push(warmup);
    for phase in phases {
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        report.mismatches.extend(phase.mismatches);
    }
    state.teardown()?;
    Ok(report)
}

fn describe_phase(phase: &Phase, notes: &mut Vec<String>) {
    notes.push(format!(
        "{} ops in {} units attempted in {:.3} s",
        phase.attempted, phase.units, phase.wall_s
    ));
}

/// A report of `metrics` whose totals the phases fill in.
fn metrics_report(metrics: Vec<Metric>, notes: Vec<String>) -> Report {
    Report {
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        metrics,
        notes,
    }
}

/// Failed ops over attempted ops.
pub fn error_rate(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The set-up layer metrics: medians over the repeated set-ups.
fn setup_metrics(runs: &[SetupLayers]) -> Vec<Metric> {
    let med = |f: &dyn Fn(&SetupLayers) -> f64| {
        let values: Vec<f64> = runs.iter().map(f).collect();
        measure::median(&values).unwrap_or(0.0)
    };
    let rate = |bytes: u64, s: f64| {
        if s > 0.0 {
            bytes as f64 / 1e6 / s
        } else {
            0.0
        }
    };
    vec![
        Metric::new(
            "json.parse_mb_per_s",
            med(&|l| rate(l.parse_bytes, l.parse_s)),
            "MB/s",
        ),
        Metric::new("stats.analyze_ms", med(&|l| l.analyze_s * 1e3), "ms"),
        Metric::new(
            "store.write_mb_per_s",
            med(&|l| rate(l.write_bytes, l.write_s)),
            "MB/s",
        ),
        Metric::new("store.open_ms", med(&|l| l.open_s * 1e3), "ms"),
    ]
}

fn render(report: &Report) -> Result<String, String> {
    let mut metrics = Vec::new();
    for m in &report.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.mismatches.is_empty() && report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    ))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("seconds"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                });
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Scratch space for one run, inside the benchmark's own directory.
fn work_dir(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!("{workload}-{}", std::process::id()))
}

fn run(args: &Args) -> Result<bool, String> {
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload '{}' (expected one of {})",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    let work = work_dir(&args.workload);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    // Engines that spill to temporary files (jq) write into the run's
    // scratch directory, inside the checkout.
    std::env::set_var("TMPDIR", &work);
    let opts = Opts {
        seed: args.seed,
        seconds: args.seconds,
        work: work.clone(),
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let result = match args.workload.as_str() {
        "generate" => run_workload::<generate::Generate>(&opts, args.trace),
        "execute" => run_workload::<execute::Execute>(&opts, args.trace),
        _ => run_workload::<serve::Serve>(&opts, args.trace),
    };
    let cleanup = std::fs::remove_dir_all(&work);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = result?;
    cleanup.map_err(|e| format!("removing {}: {e}", work.display()))?;
    println!(
        "# workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        opts.threads
    );
    for m in &report.metrics {
        println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for mismatch in report.mismatches.iter().take(20) {
        println!("# MISMATCH {mismatch}");
    }
    println!(
        "# correctness gate: {}",
        if report.mismatches.is_empty() && report.failed == 0 {
            "pass".to_owned()
        } else {
            format!(
                "FAIL ({} mismatches, {} failed ops)",
                report.mismatches.len(),
                report.failed
            )
        }
    );
    println!("{}", render(&report)?);
    Ok(report.mismatches.is_empty() && report.failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("steady") {
        steady::main(&args[1..])
    } else {
        parse_args(&args).and_then(|a| run(&a))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_the_contract_keys() {
        let report = Report {
            attempted: 3,
            failed: 1,
            mismatches: Vec::new(),
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            notes: Vec::new(),
        };
        let line = render(&report).unwrap();
        let value = betze::json::parse(&line).unwrap();
        assert_eq!(value.get("correct").and_then(|v| v.as_bool()), Some(false));
        assert_eq!(value.get("attempted").and_then(|v| v.as_i64()), Some(3));
        assert_eq!(value.get("failed").and_then(|v| v.as_i64()), Some(1));
        let setup = value.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.5));
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
    }

    #[test]
    fn idle_layers_read_zero_and_unknown_layers_are_refused() {
        let full = complete_layers(vec![Metric::new("lint.ms", 2.5, "ms/op")]).unwrap();
        assert_eq!(full.len(), layer_catalog().len());
        assert_eq!(
            full.iter().find(|m| m.name == "lint.ms").unwrap().value,
            2.5
        );
        assert_eq!(
            full.iter().find(|m| m.name == "serve.shed").unwrap().value,
            0.0
        );
        assert!(complete_layers(vec![Metric::new("nope", 1.0, "ms")]).is_err());
    }

    #[test]
    fn the_layer_catalog_is_the_per_layer_list_of_benchmark_json() {
        let bench = betze::json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared: Vec<(String, String)> = bench
            .get("per_layer")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let catalog: Vec<(String, String)> = layer_catalog()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_owned()))
            .collect();
        assert_eq!(catalog, declared);
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let report = Report {
            attempted: 1,
            failed: 0,
            mismatches: Vec::new(),
            metrics: vec![Metric::new("ops_per_s", f64::NAN, "1/s")],
            notes: Vec::new(),
        };
        assert!(render(&report).is_err());
    }

    #[test]
    fn arguments_parse_and_validate() {
        let args: Vec<String> = [
            "--workload",
            "execute",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.workload, "execute");
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 3.0, true));
        let bad: Vec<String> = ["--seed", "x"].iter().map(|s| s.to_string()).collect();
        assert!(parse_args(&bad).is_err());
    }
}
