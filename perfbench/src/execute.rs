//! The `execute` workload: `betze run --session` on Twitter-like
//! corpora.
//!
//! Set-up parses and analyzes each corpus draw, generates the sessions,
//! and seals each draw to a `.bcorp`. Each session then runs through
//! `run_session_from_source` with the `RunOptions` that `betze run`
//! builds by default, on six legs: JODA, the bytecode VM, MongoDB,
//! PostgreSQL and jq over the corpus in RAM, and JODA over the sealed
//! corpus. One op is one query execution on one leg.

use crate::generate::{mix, Corpus, CORPUS_DRAWS};
use crate::measure::Digest;
use crate::trace::{Executed, TimedEngine, Trace};
use crate::{timed_phase, Metric, Opts, Phase, SetupLayers, Stop, Workload, LEGS};
use betze::datagen::{Dataset, TwitterLike};
use betze::engines::{
    Engine, EngineError, JodaSim, JqSim, MongoSim, PgSim, VmEngine, WorkCounters,
};
use betze::explorer::Preset;
use betze::generator::{generate_session, GeneratorConfig, InMemoryBackend};
use betze::harness::{
    run_session_from_source, CorpusSource, RetryPolicy, RunOptions, SessionOutcome,
};
use betze::lint::Severity;
use betze::model::{DatasetId, Session};
use betze::store::{CorpusWriter, PagedCorpus, DEFAULT_PAGE_SIZE};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Documents in each corpus draw. Small, so that a run gets through many
/// sessions: the median op latency moves with the sessions a run sees.
pub const EXECUTE_DOCS: usize = 150;
/// Sessions generated at set-up: session `k` explores corpus draw
/// `k % CORPUS_DRAWS` with preset `k % 3`, so the first 24 cover every
/// pairing. Unit `n` of a run is session `n % SESSIONS` on all six legs,
/// so a run works through them in order and starts over if time remains.
/// Query costs differ widely between sessions, so a run must see many of
/// them for its figures to hold from one seed to the next.
pub const SESSIONS: usize = 96;
/// Sessions whose results go into the digest.
const DIGEST_SESSIONS: u64 = 2;
/// Index of the leg that reads the sealed corpus.
const PAGED_LEG: usize = 5;
/// Legs whose work counters and modeled times must equal JODA's.
const JODA_FAMILY: [usize; 2] = [1, PAGED_LEG];

/// One corpus draw, in RAM and sealed on disk.
struct Draw {
    dataset: Dataset,
    paged: Arc<PagedCorpus>,
    path: PathBuf,
}

/// The workload state.
pub struct Execute {
    draws: Vec<Draw>,
    /// Each session with the index of the draw it runs on.
    sessions: Vec<(usize, Session)>,
}

impl Workload for Execute {
    const MIN_UNITS: u64 = DIGEST_SESSIONS;

    fn setup(opts: &Opts, layers: &mut SetupLayers) -> Result<Self, String> {
        let mut corpora = Vec::with_capacity(CORPUS_DRAWS);
        for draw in 0..CORPUS_DRAWS as u64 {
            corpora.push(Corpus::build(
                &TwitterLike::default(),
                mix(opts.seed, 10 + draw),
                EXECUTE_DOCS,
                layers,
            )?);
        }
        let mut sessions = Vec::with_capacity(SESSIONS);
        for k in 0..SESSIONS {
            let draw = k % CORPUS_DRAWS;
            let corpus = &corpora[draw];
            let config = GeneratorConfig::with_explorer(Preset::ALL[k % 3].config());
            let mut backend = InMemoryBackend::new();
            backend.register_base(DatasetId(0), Arc::clone(&corpus.docs));
            let session = generate_session(
                &corpus.analysis,
                &config,
                mix(opts.seed, 100 + k as u64),
                Some(&mut backend),
            )
            .map_err(|e| format!("generating session {k}: {e}"))?
            .session;
            sessions.push((draw, session));
        }
        let mut draws = Vec::with_capacity(CORPUS_DRAWS);
        for (draw, corpus) in corpora.into_iter().enumerate() {
            let path = opts.work.join(format!("twitter-{draw}.bcorp"));
            let sealed = SetupLayers::time(&mut layers.write_s, || {
                let mut writer = CorpusWriter::create(&path, corpus.name, DEFAULT_PAGE_SIZE)?;
                for doc in corpus.docs.iter() {
                    writer.append(doc.clone())?;
                }
                writer.seal()
            })
            .map_err(|e| format!("sealing {}: {e}", path.display()))?;
            layers.write_bytes += sealed.json_bytes;
            let paged = SetupLayers::time(&mut layers.open_s, || PagedCorpus::open(&path))
                .map_err(|e| format!("opening {}: {e}", path.display()))?;
            draws.push(Draw {
                dataset: Dataset::new(corpus.name, corpus.docs),
                paged: Arc::new(paged),
                path,
            });
        }
        Ok(Execute { draws, sessions })
    }

    fn measure(
        &mut self,
        opts: &Opts,
        trace: &Trace,
        from: u64,
        stop: Stop,
    ) -> Result<Phase, String> {
        let mut legs = engines(opts.threads, trace);
        let options = betze_run_options();
        let mut phase = Phase::default();
        let mut per_leg = [LegTotals::default(); LEGS.len()];
        let mut digest = Digest::default();
        timed_phase(&mut phase, |phase| {
            let started = Instant::now();
            while !stop.reached(phase.units, started) {
                let unit = from + phase.units;
                phase.units += 1;
                let s = (unit % SESSIONS as u64) as usize;
                let (draw, session) = &self.sessions[s];
                let draw = &self.draws[*draw];
                let mut results = Vec::with_capacity(LEGS.len());
                for (leg, engine) in legs.iter_mut().enumerate() {
                    let source = if leg == PAGED_LEG {
                        CorpusSource::Paged(Arc::clone(&draw.paged))
                    } else {
                        CorpusSource::Ram(&draw.dataset)
                    };
                    let open = trace.enter("harness.session", Some(leg));
                    let outcome = run_session_from_source(engine, &source, session, &options);
                    trace.exit(open);
                    let executed = engine.take();
                    let n = session.queries.len() as u64;
                    let failed = failed_queries(&outcome, session.queries.len());
                    phase.attempted += n;
                    phase.failed += failed;
                    per_leg[leg].add(&executed);
                    phase
                        .latencies_ms
                        .extend(executed.iter().map(|e| e.wall.as_secs_f64() * 1e3));
                    if let Err(e) = &outcome {
                        phase
                            .mismatches
                            .push(format!("session {s} on {}: {e}", LEGS[leg]));
                    } else if failed > 0 {
                        phase.mismatches.push(format!(
                            "session {s} on {}: {failed} of {n} queries failed",
                            LEGS[leg]
                        ));
                    }
                    results.push(executed);
                }
                compare_legs(s, &results, &mut phase.mismatches);
                if unit < DIGEST_SESSIONS {
                    for e in results.iter().flatten() {
                        digest.update_u64(e.cardinality.map_or(u64::MAX, |c| c as u64));
                        digest.update_u64(e.modeled.map_or(u64::MAX, |m| m.as_nanos() as u64));
                    }
                }
            }
            Ok(())
        })?;
        phase.digests.push(("modeled", digest.value()));
        if trace.is_on() {
            phase.layers = layers(trace, &phase, &per_leg);
        }
        Ok(phase)
    }

    fn teardown(self) -> Result<(), String> {
        for draw in self.draws {
            drop(draw.paged);
            std::fs::remove_file(&draw.path)
                .map_err(|e| format!("removing {}: {e}", draw.path.display()))?;
        }
        Ok(())
    }
}

/// The six legs, each behind a timing decorator.
fn engines(threads: usize, trace: &Trace) -> Vec<TimedEngine<'_, Box<dyn Engine>>> {
    let mut vm = VmEngine::new(threads);
    // `betze run --engine vm` optimizes unless `--no-vm-opt` is given.
    vm.set_optimize(true);
    let legs: [Box<dyn Engine>; LEGS.len()] = [
        Box::new(JodaSim::new(threads)),
        Box::new(vm),
        Box::new(MongoSim::new()),
        Box::new(PgSim::new()),
        Box::new(JqSim::new()),
        Box::new(JodaSim::new(threads)),
    ];
    legs.into_iter()
        .enumerate()
        .map(|(leg, engine)| TimedEngine::new(engine, leg, trace))
        .collect()
}

/// The options `betze run` builds when given no flags.
pub fn betze_run_options() -> RunOptions {
    RunOptions::reference()
        .retry(RetryPolicy::default())
        .lint(Some(Severity::Error))
        .query_timeout(None)
}

/// Queries of one session run that produced no result: those whose
/// status is not ok, those never reached, and all of them when the run
/// itself failed. An `Ok` outcome alone says nothing.
pub fn failed_queries(outcome: &Result<SessionOutcome, EngineError>, queries: usize) -> u64 {
    match outcome {
        Ok(outcome) => {
            let statuses = &outcome.run().statuses;
            let not_ok = statuses.iter().filter(|s| !s.is_ok()).count();
            (queries.saturating_sub(statuses.len()) + not_ok) as u64
        }
        Err(_) => queries as u64,
    }
}

/// Per query: result cardinality agrees across all legs, and work
/// counters and modeled time are bit-identical across JODA, the VM and
/// paged JODA.
fn compare_legs(session: usize, results: &[Vec<Executed>], mismatches: &mut Vec<String>) {
    let reference = &results[0];
    for (leg, executed) in results.iter().enumerate().skip(1) {
        if executed.len() != reference.len() {
            mismatches.push(format!(
                "session {session}: {} made {} engine calls, joda {}",
                LEGS[leg],
                executed.len(),
                reference.len()
            ));
            continue;
        }
        for (q, (a, b)) in reference.iter().zip(executed).enumerate() {
            if a.cardinality != b.cardinality {
                mismatches.push(format!(
                    "session {session} query {q}: {} returned {:?} docs, joda {:?}",
                    LEGS[leg], b.cardinality, a.cardinality
                ));
            }
            if JODA_FAMILY.contains(&leg) && (a.counters != b.counters || a.modeled != b.modeled) {
                mismatches.push(format!(
                    "session {session} query {q}: {} work counters or modeled time differ from joda",
                    LEGS[leg]
                ));
            }
        }
    }
}

/// Per-leg sums of what the decorator saw.
#[derive(Debug, Default, Clone, Copy)]
struct LegTotals {
    queries: u64,
    counters: WorkCounters,
    docs_returned: u64,
}

impl LegTotals {
    fn add(&mut self, executed: &[Executed]) {
        for e in executed {
            self.queries += 1;
            if let Some(c) = e.counters {
                self.counters += c;
            }
            self.docs_returned += e.cardinality.unwrap_or(0) as u64;
        }
    }
}

fn layers(trace: &Trace, phase: &Phase, per_leg: &[LegTotals]) -> Vec<Metric> {
    let mut out = vec![Metric::new(
        "harness.self_ms",
        trace.self_total("harness.session") as f64 / 1e6 / phase.attempted.max(1) as f64,
        "ms/op",
    )];
    for (leg, totals) in per_leg.iter().enumerate() {
        let name = LEGS[leg];
        let ops = totals.queries.max(1) as f64;
        let per_op = |v: u64| v as f64 / ops;
        let (imports, import_ns) = trace.total("engines.import", Some(leg));
        let (_, execute_ns) = trace.total("engines.execute", Some(leg));
        out.extend([
            Metric::new(
                format!("engines.{name}.import_ms"),
                import_ns as f64 / 1e6 / imports.max(1) as f64,
                "ms/import",
            ),
            Metric::new(
                format!("engines.{name}.execute_ms"),
                execute_ns as f64 / 1e6 / ops,
                "ms/op",
            ),
            Metric::new(
                format!("engines.{name}.docs_scanned"),
                per_op(totals.counters.docs_scanned),
                "count/op",
            ),
            Metric::new(
                format!("engines.{name}.bytes_parsed"),
                per_op(totals.counters.bytes_parsed),
                "count/op",
            ),
            Metric::new(
                format!("engines.{name}.docs_output"),
                per_op(totals.docs_returned),
                "count/op",
            ),
            Metric::new(
                format!("engines.{name}.cache_hits"),
                per_op(totals.counters.cache_hits),
                "count/op",
            ),
        ]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze::json::json;

    /// A session whose base dataset is absent from the corpus: `betze
    /// run` reports `0/N` queries ok and still exits 0, so the benchmark
    /// must count every query as failed.
    #[test]
    fn a_session_over_an_absent_base_has_error_rate_one() {
        let docs: Vec<_> = (0..50).map(|i| json!({ "n": (i as i64) })).collect();
        let dataset = Dataset::new("present", docs.clone());
        let analysis = betze::stats::analyze("absent", &docs);
        let config = GeneratorConfig::with_explorer(Preset::Novice.config());
        let session = generate_session(&analysis, &config, 3, None)
            .unwrap()
            .session;
        assert!(session.queries.iter().all(|q| q.base == "absent"));
        let trace = Trace::new(false);
        let mut engine = TimedEngine::new(JodaSim::new(1), 0, &trace);
        let outcome = run_session_from_source(
            &mut engine,
            &CorpusSource::Ram(&dataset),
            &session,
            &betze_run_options(),
        );
        assert!(outcome.is_ok(), "the runner degrades instead of failing");
        let n = session.queries.len();
        let failed = failed_queries(&outcome, n);
        assert_eq!(crate::error_rate(n as u64, failed), 1.0);
    }

    #[test]
    fn a_failed_run_counts_every_query() {
        let err: Result<SessionOutcome, EngineError> = Err(EngineError::Internal {
            message: "lint".to_owned(),
        });
        assert_eq!(failed_queries(&err, 7), 7);
    }
}
