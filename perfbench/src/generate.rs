//! The `generate` workload: the `betze generate` path.
//!
//! Set-up synthesizes Twitter-like and NoBench corpora, renders them as
//! JSON Lines, parses and analyzes each once. One op is one verified
//! session: `generate_session` over an `InMemoryBackend`, then
//! `Linter::lint`, the four `translate_session` scripts and
//! `Session::to_json`. Ops cycle through a fixed pool of sessions drawn
//! from the seed: they alternate between the two kinds of corpus and
//! rotate through the novice, intermediate and expert presets.

use crate::measure::Digest;
use crate::trace::{BackendCounts, TimedBackend, Trace};
use crate::{timed_phase, Metric, Opts, Phase, SetupLayers, Stop, Workload};
use betze::datagen::{DocGenerator, NoBench, TwitterLike};
use betze::explorer::Preset;
use betze::generator::{generate_session, GeneratorConfig, InMemoryBackend, QueryRecord};
use betze::json::Value;
use betze::langs::{all_languages, translate_session};
use betze::lint::{Linter, Severity};
use betze::model::DatasetId;
use betze::stats::DatasetAnalysis;
use std::sync::Arc;
use std::time::Instant;

/// Documents in the Twitter-like corpus. Its derived datasets stay
/// below the backend's 2 000-document re-analysis sample, so every
/// accepted query re-analyzes its whole result.
pub const TWITTER_DOCS: usize = 500;
/// Documents in the NoBench corpus (narrow documents, so verification
/// scans dominate).
pub const NOBENCH_DOCS: usize = 1_000;
/// Independent draws of each corpus. A run's ops rotate over them, so
/// one unusually cheap or costly corpus does not set a run's figures.
pub const CORPUS_DRAWS: usize = 8;
/// Sessions a run generates. Op `n` generates pool session
/// `n % SESSION_POOL`, so the sessions of a run, and the gate's verdict
/// on them, depend on the seed alone, not on how many ops fit in the
/// run. Session `k` explores corpus draw `(k / 6) % CORPUS_DRAWS`,
/// Twitter-like for even `k` and NoBench for odd, under preset
/// `(k / 2) % 3`: every pairing of draw, corpus and preset appears
/// three times. Every phase bounded by time runs the whole pool at least
/// once.
pub const SESSION_POOL: u64 = 144;
/// Ops whose session JSON goes into the digest: one full cycle of
/// corpora × presets.
const DIGEST_OPS: u64 = 6;

/// SplitMix64: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parsed and analyzed base corpus.
pub struct Corpus {
    pub name: &'static str,
    pub docs: Arc<Vec<Value>>,
    pub analysis: DatasetAnalysis,
}

impl Corpus {
    /// Synthesizes `count` documents, renders them as JSON Lines, then
    /// parses and analyzes the text as `betze generate` does with a file.
    pub fn build(
        generator: &dyn DocGenerator,
        seed: u64,
        count: usize,
        layers: &mut SetupLayers,
    ) -> Result<Corpus, String> {
        let name = generator.corpus_name();
        let synthesized = generator.generate(seed, count);
        let text = betze::json::to_json_lines(synthesized.iter());
        let parsed = SetupLayers::time(&mut layers.parse_s, || betze::json::parse_many(&text))
            .map_err(|e| format!("parsing the {name} corpus: {e}"))?;
        layers.parse_bytes += text.len() as u64;
        if parsed != synthesized {
            return Err(format!(
                "the {name} corpus does not survive a JSON round trip"
            ));
        }
        let analysis = SetupLayers::time(&mut layers.analyze_s, || {
            betze::stats::analyze(name, &parsed)
        });
        Ok(Corpus {
            name,
            docs: Arc::new(parsed),
            analysis,
        })
    }
}

/// The workload state: the corpus draws, Twitter-like and NoBench in
/// turn.
pub struct Generate {
    corpora: Vec<Corpus>,
}

/// What the post-run recount needs from one op.
struct Checked {
    op: u64,
    corpus: usize,
    records: Vec<QueryRecord>,
}

impl Workload for Generate {
    const MIN_UNITS: u64 = SESSION_POOL;

    fn setup(opts: &Opts, layers: &mut SetupLayers) -> Result<Self, String> {
        let mut corpora = Vec::with_capacity(2 * CORPUS_DRAWS);
        for draw in 0..CORPUS_DRAWS as u64 {
            corpora.push(Corpus::build(
                &TwitterLike::default(),
                mix(opts.seed, 10 + draw),
                TWITTER_DOCS,
                layers,
            )?);
            corpora.push(Corpus::build(
                &NoBench::default(),
                mix(opts.seed, 20 + draw),
                NOBENCH_DOCS,
                layers,
            )?);
        }
        Ok(Generate { corpora })
    }

    fn measure(
        &mut self,
        opts: &Opts,
        trace: &Trace,
        from: u64,
        stop: Stop,
    ) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let mut checked = Vec::new();
        let mut digest = Digest::default();
        let mut counts = BackendCounts::default();
        let mut accepted = 0u64;
        let mut discarded = 0u64;
        let languages = all_languages();
        timed_phase(&mut phase, |phase| {
            let started = Instant::now();
            while !stop.reached(phase.units, started) {
                let op = from + phase.units;
                phase.units += 1;
                // Six ops cover both corpora under all three presets, then
                // move on to the next draw.
                let k = op % SESSION_POOL;
                let draw = (k / 6) as usize % CORPUS_DRAWS;
                let corpus_index = 2 * draw + (k % 2) as usize;
                let corpus = &self.corpora[corpus_index];
                let preset = Preset::ALL[((k / 2) % 3) as usize];
                let config = GeneratorConfig::with_explorer(preset.config());
                let session_seed = mix(opts.seed, 1_000 + k);
                let op_started = Instant::now();
                let mut base = InMemoryBackend::new();
                base.register_base(DatasetId(0), Arc::clone(&corpus.docs));
                let mut backend = TimedBackend::new(base, trace);
                let generated = trace.span("generator.session", || {
                    generate_session(&corpus.analysis, &config, session_seed, Some(&mut backend))
                });
                let outcome = match generated {
                    Ok(outcome) => outcome,
                    Err(e) => {
                        phase.attempted += 1;
                        phase.failed += 1;
                        phase
                            .mismatches
                            .push(format!("op {op} (session {k}): generation failed: {e}"));
                        continue;
                    }
                };
                let session = &outcome.session;
                let lint = trace.span("lint", || {
                    Linter::new().with_analysis(&corpus.analysis).lint(session)
                });
                let scripts: Vec<String> = trace.span("langs.translate", || {
                    languages
                        .iter()
                        .map(|l| translate_session(l.as_ref(), session))
                        .collect()
                });
                std::hint::black_box(scripts);
                let json = std::hint::black_box(session.to_json());
                let counted = backend.counts();
                // Freeing the derived datasets is part of the op.
                drop(backend);
                phase
                    .latencies_ms
                    .push(op_started.elapsed().as_secs_f64() * 1e3);
                phase.attempted += 1;
                let errors = lint.count_at_least(Severity::Error);
                if errors > 0 {
                    phase.failed += 1;
                    let first = lint
                        .diagnostics()
                        .iter()
                        .find(|d| d.severity() >= Severity::Error)
                        .map_or_else(String::new, ToString::to_string);
                    phase.mismatches.push(format!(
                        "op {op} (session {k}): {errors} lint diagnostic(s) at Error on a generated session, first: {first}"
                    ));
                }
                if op < DIGEST_OPS {
                    digest.update(json.as_bytes());
                }
                counts.verify_calls += counted.verify_calls;
                counts.docs_verified += counted.docs_verified;
                accepted += outcome.records.len() as u64;
                discarded += outcome.discarded_total as u64;
                checked.push(Checked {
                    op,
                    corpus: corpus_index,
                    records: outcome.records,
                });
            }
            Ok(())
        })?;
        // Outside the timed region: every accepted query's verified
        // selectivity must equal a recount over the base corpus.
        for c in &checked {
            recount(&self.corpora[c.corpus].docs, c, &mut phase.mismatches);
        }
        phase.digests.push(("sessions", digest.value()));
        if trace.is_on() {
            phase.layers = layers(trace, &phase, counts, accepted, discarded);
        }
        Ok(phase)
    }
}

/// Recounts each record's verified selectivity with `Predicate::matches`
/// over the base documents: |base ∩ full predicate| over the size of the
/// dataset the query targeted.
fn recount(base: &[Value], c: &Checked, mismatches: &mut Vec<String>) {
    let count = |pred: &betze::model::Predicate| base.iter().filter(|d| pred.matches(d)).count();
    for (k, record) in c.records.iter().enumerate() {
        let Some(verified) = record.verified_selectivity else {
            mismatches.push(format!("op {}: query {k} was not verified", c.op));
            continue;
        };
        let target_size = if record.target == DatasetId(0) {
            Some(base.len())
        } else {
            c.records
                .iter()
                .find(|r| r.created == record.target)
                .map(|r| count(&r.full_predicate))
        };
        let Some(size) = target_size else {
            mismatches.push(format!("op {}: query {k} targets an unknown dataset", c.op));
            continue;
        };
        let expected = count(&record.full_predicate) as f64 / size as f64;
        if size == 0 || expected.to_bits() != verified.to_bits() {
            mismatches.push(format!(
                "op {}: query {k} verified selectivity {verified} but the recount gives {expected}",
                c.op
            ));
        }
    }
}

fn layers(
    trace: &Trace,
    phase: &Phase,
    counts: BackendCounts,
    accepted: u64,
    discarded: u64,
) -> Vec<Metric> {
    let ops = phase.attempted.max(1) as f64;
    let ms = |name: &str| trace.total(name, None).1 as f64 / 1e6 / ops;
    vec![
        Metric::new("generator.verify_ms", ms("generator.verify"), "ms/op"),
        Metric::new(
            "generator.verify_calls",
            counts.verify_calls as f64 / ops,
            "count/op",
        ),
        Metric::new(
            "generator.docs_verified",
            counts.docs_verified as f64 / ops,
            "count/op",
        ),
        Metric::new("generator.derive_ms", ms("generator.derive"), "ms/op"),
        Metric::new("stats.reanalyze_ms", ms("stats.reanalyze"), "ms/op"),
        Metric::new(
            "generator.self_ms",
            trace.self_total("generator.session") as f64 / 1e6 / ops,
            "ms/op",
        ),
        Metric::new(
            "generator.accept_ratio",
            accepted as f64 / (accepted + discarded).max(1) as f64,
            "ratio",
        ),
        Metric::new("lint.ms", ms("lint"), "ms/op"),
        Metric::new("langs.translate_ms", ms("langs.translate"), "ms/op"),
    ]
}
