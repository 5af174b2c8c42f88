//! The static cost abstraction (DESIGN.md §17): per-query, per-engine
//! modeled-time intervals and the SLO lint gate (rules L053–L057).
//!
//! The cardinality intervals computed by [`super::engine`] are lifted
//! into intervals over [`betze_cost::Work`] — an abstract
//! [`betze_cost::WorkCounters`] vector with `[lo, hi]` bounds per
//! counter — by mirroring, engine family by engine family, the exact
//! charging rules of the concrete engines in `betze-engines`:
//!
//! * **joda / vm / vm-noopt** — the JODA result cache is simulated
//!   deterministically (`And` chains split into per-prefix cache entries
//!   keyed by dataset name and predicate, exactly as the engine keys
//!   them, and dropped when a `store_as` rebinds the name), so cache
//!   hits and the amortized per-suffix scans are charged as *points*,
//!   not widened. The three legs are one engine with two evaluators
//!   that charge counters from the original predicate, so they share
//!   one transfer.
//! * **jq** — every query re-reads and re-parses the backing json-lines
//!   file, so bytes scanned/parsed are charged per query from the
//!   file-size interval tracked per dataset.
//! * **mongodb / psql** — per-document encoded-byte hulls bound
//!   `bytes_scanned`, navigation-depth bounds from the corpus bound
//!   `key_comparisons`, and `&&`/`||` short-circuiting bounds
//!   `predicate_evals` from below by the left-spine depth.
//!
//! Each `Work` interval is priced through the *real*
//! [`betze_cost::CostModel`] — the same weight table the engines use —
//! yielding a `[lo, hi]` modeled-time interval per query and per
//! session. Soundness (every observed counter vector and modeled time
//! lies inside its interval) is enforced mechanically by the oracle
//! sweep in `tests/tests/cost_oracle.rs`.
//!
//! Unknowable quantities (byte sizes of transformed documents) are
//! widened to ⊤ (`+∞`) rather than guessed; rule L057 reports where
//! that happened so vacuous upper-bound checks are visible.

use std::collections::BTreeMap;
use std::time::Duration;

use betze_cost::{CorpusCostStats, CostModel, CostProfile, Work, WorkCounters};
use betze_model::{FilterFn, Predicate, Query, Session};
use betze_stats::DatasetAnalysis;

use super::card::{and_counts, clamp_counts};
use super::engine::QueryPrediction;
use super::interval::Interval;
use super::transfer::analyze_predicate;
use crate::diagnostics::{Diagnostic, LintReport, Rule, Span};

/// An engine leg the cost abstraction can model.
///
/// `Vm` and `VmNoOpt` share JodaSim's charging rules: all three are one
/// engine, which charges counters the same whichever evaluator runs, so
/// they are counter-identical by construction. They stay separate legs
/// so the oracle checks that against both the optimized and the
/// unoptimized bytecode evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CostEngine {
    /// JodaSim: threaded scans, analysis cache, `And`-prefix reuse.
    Joda,
    /// The bytecode VM with absint-guided optimization enabled.
    Vm,
    /// The bytecode VM with optimization disabled.
    VmNoOpt,
    /// The jq simulation: re-reads and re-parses files every query.
    Jq,
    /// The MongoDB-like engine over BSON-like storage.
    Mongo,
    /// The PostgreSQL-like engine over JSONB-like storage.
    Pg,
}

impl CostEngine {
    /// Every modeled leg, in report order.
    pub const ALL: [CostEngine; 6] = [
        CostEngine::Joda,
        CostEngine::Vm,
        CostEngine::VmNoOpt,
        CostEngine::Jq,
        CostEngine::Mongo,
        CostEngine::Pg,
    ];

    /// Parses an engine name as accepted by `betze lint --engine`.
    ///
    /// Accepts the harness short names (`joda`, `vm`, `mongodb`,
    /// `psql`, `jq`) plus common aliases.
    pub fn parse(name: &str) -> Option<CostEngine> {
        match name.to_ascii_lowercase().as_str() {
            "joda" => Some(CostEngine::Joda),
            "vm" => Some(CostEngine::Vm),
            "vm-noopt" | "vm_noopt" | "vmnoopt" => Some(CostEngine::VmNoOpt),
            "jq" => Some(CostEngine::Jq),
            "mongo" | "mongodb" => Some(CostEngine::Mongo),
            "pg" | "psql" | "postgres" | "postgresql" => Some(CostEngine::Pg),
            _ => None,
        }
    }

    /// The leg's display label (harness short name where one exists).
    pub fn label(self) -> &'static str {
        match self {
            CostEngine::Joda => "joda",
            CostEngine::Vm => "vm",
            CostEngine::VmNoOpt => "vm-noopt",
            CostEngine::Jq => "jq",
            CostEngine::Mongo => "mongodb",
            CostEngine::Pg => "psql",
        }
    }

    /// The calibrated weight profile the concrete engine prices with.
    pub fn profile(self) -> CostProfile {
        match self {
            CostEngine::Joda | CostEngine::Vm | CostEngine::VmNoOpt => CostProfile::joda(),
            CostEngine::Jq => CostProfile::jq(),
            CostEngine::Mongo => CostProfile::mongodb(),
            CostEngine::Pg => CostProfile::postgres(),
        }
    }

    fn family(self) -> Family {
        match self {
            CostEngine::Joda | CostEngine::Vm | CostEngine::VmNoOpt => Family::Joda,
            CostEngine::Jq => Family::Jq,
            CostEngine::Mongo | CostEngine::Pg => Family::Binary,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Joda,
    Jq,
    Binary,
}

/// Configuration of the cost pass.
#[derive(Debug, Clone, Default)]
pub struct CostConfig {
    /// Per-query interactivity budget; SLO rules L053–L055 fire against
    /// it. `None` disables the SLO gate (dominance/widening rules still
    /// run).
    pub slo: Option<Duration>,
    /// Engine legs the SLO gate checks. Empty means every leg.
    pub engines: Vec<CostEngine>,
    /// Worker threads the joda-family legs are priced with (the
    /// harness benchmark default is 16). Clamped to ≥ 1.
    pub joda_threads: usize,
}

impl CostConfig {
    /// A config with the harness's default thread count and no SLO.
    pub fn new() -> CostConfig {
        CostConfig {
            slo: None,
            engines: Vec::new(),
            joda_threads: 16,
        }
    }

    /// True when the pass has anything to do.
    pub fn is_active(&self) -> bool {
        self.slo.is_some() || !self.engines.is_empty()
    }
}

/// Predicted work and modeled time for one query on one leg.
#[derive(Debug, Clone)]
pub struct QueryCost {
    /// Index into `session.queries`.
    pub query: usize,
    /// Fieldwise lower bound on the engine's reported counters.
    pub lo: Work,
    /// Fieldwise upper bound on the engine's reported counters.
    pub hi: Work,
    /// Modeled-time bounds in seconds (`hi` may be `+∞`).
    pub modeled: Interval,
}

impl QueryCost {
    /// True when some upper bound was widened to ⊤.
    pub fn unbounded(&self) -> bool {
        self.hi.is_unbounded() || !self.modeled.hi.is_finite()
    }

    /// True when an engine's observed counters lie fieldwise inside
    /// `[lo, hi]` — the soundness contract the oracle enforces.
    pub fn contains_counters(&self, observed: &WorkCounters) -> bool {
        self.counter_violation(observed).is_none()
    }

    /// Names the first counter outside its bounds, as
    /// `"field observed outside [lo, hi]"`; `None` when contained.
    pub fn counter_violation(&self, observed: &WorkCounters) -> Option<String> {
        let lo = self.lo.to_array();
        let hi = self.hi.to_array();
        for (i, &obs) in observed.to_array().iter().enumerate() {
            let obs = obs as f64;
            if obs < lo[i] || obs > hi[i] {
                return Some(format!(
                    "{} {obs} outside [{}, {}]",
                    WorkCounters::FIELD_NAMES[i],
                    lo[i],
                    hi[i],
                ));
            }
        }
        None
    }

    /// True when an engine's reported modeled time lies inside the
    /// predicted interval, compared at `Duration` granularity (the
    /// engines round through [`Duration::from_secs_f64`], so the bounds
    /// must round the same way).
    pub fn contains_modeled(&self, observed: Duration) -> bool {
        if observed < Duration::from_secs_f64(self.modeled.lo.max(0.0)) {
            return false;
        }
        !(self.modeled.hi.is_finite() && observed > Duration::from_secs_f64(self.modeled.hi))
    }
}

/// The cost prediction for one engine leg over the whole session.
#[derive(Debug, Clone)]
pub struct EngineCost {
    /// Which leg.
    pub engine: CostEngine,
    /// Thread count the model was priced with.
    pub threads: usize,
    /// Exact import counters (imports are points, not intervals).
    pub import: Work,
    /// Modeled import time in seconds.
    pub import_seconds: f64,
    /// Per-query predictions, in session order.
    pub queries: Vec<QueryCost>,
    /// Sum of per-query modeled bounds, excluding import.
    pub queries_total: Interval,
    /// Session total in seconds, import included.
    pub total: Interval,
    /// False when some query read a dataset the walk never saw (its
    /// cost is unmodeled and the totals' upper bounds are ⊤).
    pub complete: bool,
}

/// The cost abstraction's output: one [`EngineCost`] per leg.
#[derive(Debug, Clone)]
pub struct CostReport {
    /// Every modeled leg, in [`CostEngine::ALL`] order.
    pub engines: Vec<EngineCost>,
    /// The SLO the report was checked against, in seconds.
    pub slo_seconds: Option<f64>,
}

impl CostReport {
    /// The leg for `engine`, if modeled.
    pub fn engine(&self, engine: CostEngine) -> Option<&EngineCost> {
        self.engines.iter().find(|leg| leg.engine == engine)
    }
}

/// One named dataset's per-leg abstract state during the walk.
#[derive(Clone, Copy)]
struct Ds<'a> {
    /// Bounds on the number of documents stored under this name.
    card: Interval,
    /// The base corpus this dataset descends from through *transform-free*
    /// queries — `None` after any transform (per-document facts no
    /// longer apply) or when the base was never analyzed.
    origin: Option<Origin<'a>>,
    /// Leg-specific stored-byte bounds: the json-lines file size for
    /// jq, the encoded-document total for the binary engines, unused
    /// (zero) for the joda family.
    bytes: Interval,
}

#[derive(Clone, Copy)]
struct Origin<'a> {
    analysis: &'a DatasetAnalysis,
    stats: &'a CorpusCostStats,
}

/// An interval over [`Work`] vectors, charged fieldwise.
struct WorkBox {
    lo: Work,
    hi: Work,
}

impl WorkBox {
    fn new() -> WorkBox {
        WorkBox {
            lo: Work::default(),
            hi: Work::default(),
        }
    }

    /// Adds `amount` to one counter's bounds. An empty (⊥) amount —
    /// which only arises if two sound bounds contradict, i.e. never —
    /// is widened to `[0, ∞)` rather than trusted.
    fn charge(&mut self, field: fn(&mut Work) -> &mut f64, amount: Interval) {
        let amount = sane(amount);
        *field(&mut self.lo) += amount.lo.max(0.0);
        *field(&mut self.hi) += amount.hi;
    }

    fn charge_exact(&mut self, field: fn(&mut Work) -> &mut f64, value: f64) {
        self.charge(field, Interval::point(value));
    }
}

fn sane(interval: Interval) -> Interval {
    if interval.is_empty() {
        Interval::new(0.0, f64::INFINITY)
    } else {
        interval
    }
}

/// `a * b` with the convention `0 * ∞ = 0`: a provably-empty dataset
/// costs nothing even when the per-document bound is unknowable.
fn mul_bound(a: f64, b: f64) -> f64 {
    if a == 0.0 || b == 0.0 {
        0.0
    } else {
        a * b
    }
}

/// Scales a cardinality interval by a per-item constant.
fn scale(card: Interval, per_item: f64) -> Interval {
    let card = sane(card);
    Interval::new(
        mul_bound(card.lo.max(0.0), per_item),
        mul_bound(card.hi, per_item),
    )
}

/// Scales a cardinality interval by a per-item hull `[min, max]`.
fn scale_hull(card: Interval, min: f64, max: f64) -> Interval {
    let card = sane(card);
    Interval::new(mul_bound(card.lo.max(0.0), min), mul_bound(card.hi, max))
}

/// Leaves evaluated on a non-matching document in the best case: the
/// binary engines short-circuit `And`/`Or` left-to-right, so the left
/// spine is always evaluated.
fn min_evals(predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::And(left, _) | Predicate::Or(left, _) => min_evals(left),
        Predicate::Leaf(_) => 1.0,
    }
}

/// Leaves whose match decodes a scalar (`values_decoded` is charged
/// only by `IntEq` and `FloatCmp` after a successful navigation).
fn numeric_leaves(predicate: &Predicate) -> f64 {
    match predicate {
        Predicate::And(left, right) | Predicate::Or(left, right) => {
            numeric_leaves(left) + numeric_leaves(right)
        }
        Predicate::Leaf(filter) => f64::from(matches!(
            filter,
            FilterFn::IntEq { .. } | FilterFn::FloatCmp { .. }
        )),
    }
}

/// Runs the cost abstraction over `session` and emits rules L053–L057
/// into `report`.
///
/// `analyses` and `stats` are matched by dataset name; a base without
/// both is left unmodeled (queries over it widen the session totals).
/// `predictions` are the cardinality intervals from
/// [`super::engine::run`], used to tighten result cards.
pub fn run(
    session: &Session,
    analyses: &[&DatasetAnalysis],
    stats: &[&CorpusCostStats],
    predictions: &[QueryPrediction],
    config: &CostConfig,
    report: &mut LintReport,
) -> CostReport {
    let mut origins: BTreeMap<&str, Origin<'_>> = BTreeMap::new();
    for analysis in analyses {
        if let Some(stat) = stats.iter().find(|s| s.dataset == analysis.dataset) {
            origins.insert(
                analysis.dataset.as_str(),
                Origin {
                    analysis,
                    stats: stat,
                },
            );
        }
    }
    let by_query: BTreeMap<usize, &QueryPrediction> =
        predictions.iter().map(|p| (p.query, p)).collect();

    let engines: Vec<EngineCost> = CostEngine::ALL
        .iter()
        .map(|&engine| leg(engine, session, &origins, &by_query, config))
        .collect();
    let cost = CostReport {
        engines,
        slo_seconds: config.slo.map(|d| d.as_secs_f64()),
    };
    emit_rules(&cost, config, report);
    cost
}

/// Models one engine leg over the whole session.
fn leg(
    engine: CostEngine,
    session: &Session,
    origins: &BTreeMap<&str, Origin<'_>>,
    predictions: &BTreeMap<usize, &QueryPrediction>,
    config: &CostConfig,
) -> EngineCost {
    let threads = match engine.family() {
        Family::Joda => config.joda_threads.max(1),
        Family::Jq | Family::Binary => 1,
    };
    let model = CostModel::new(engine.profile(), threads);

    // Seed the environment and the exact import charge from base nodes.
    let mut env: BTreeMap<String, Ds<'_>> = BTreeMap::new();
    let mut import = Work::default();
    for node in session.graph.nodes() {
        if !node.is_base() {
            continue;
        }
        let Some(&origin) = origins.get(node.name.as_str()) else {
            continue;
        };
        let docs = origin.analysis.doc_count as f64;
        import.import_docs += docs;
        import.import_bytes += base_import_bytes(engine, origin.stats);
        env.insert(
            node.name.clone(),
            Ds {
                card: Interval::point(docs),
                origin: Some(origin),
                bytes: Interval::point(base_stored_bytes(engine, origin.stats)),
            },
        );
    }
    let import_seconds = model.import_seconds(&import);

    // The simulated analysis cache (joda family): dataset name →
    // predicate prefix → exact-at-the-abstraction result cardinality,
    // mirroring the engine's keying.
    let mut cache = SimCache::new();
    let mut queries = Vec::new();
    let mut complete = true;
    for (index, query) in session.queries.iter().enumerate() {
        let Some(ds) = env.get(query.base.as_str()).copied() else {
            // The engine would error here and the harness aborts the
            // run; leave the query unmodeled and widen the totals.
            complete = false;
            continue;
        };
        let prediction = predictions.get(&index).copied();
        let (work, _result, stored) = match engine.family() {
            Family::Joda => model_joda(engine, query, ds, prediction, &mut cache),
            Family::Jq => model_jq(query, ds, prediction),
            Family::Binary => model_binary(engine, query, ds, prediction),
        };
        queries.push(QueryCost {
            query: index,
            modeled: price(&model, &work),
            lo: work.lo,
            hi: work.hi,
        });
        if let Some(name) = &query.store_as {
            env.insert(name.clone(), stored);
            // Rebinding a name drops its cached results, as the engine does.
            cache.remove(name);
        }
    }

    let mut lo = 0.0;
    let mut hi = 0.0;
    for q in &queries {
        lo += q.modeled.lo;
        hi += q.modeled.hi;
    }
    if !complete {
        hi = f64::INFINITY;
    }
    EngineCost {
        engine,
        threads,
        import,
        import_seconds,
        queries,
        queries_total: Interval::new(lo, hi),
        total: Interval::new(lo + import_seconds, hi + import_seconds),
        complete,
    }
}

/// Prices a work interval through the leg's cost model. `NaN` from
/// `∞ × 0`-weight terms is widened to `+∞` (sound: the true value is
/// finite but unknown).
fn price(model: &CostModel, work: &WorkBox) -> Interval {
    let lo = model.work_seconds(&work.lo).max(0.0);
    let mut hi = model.work_seconds(&work.hi);
    if hi.is_nan() {
        hi = f64::INFINITY;
    }
    Interval::new(lo, hi.max(lo))
}

/// Bytes the engine charges to `import_bytes` for one base corpus.
fn base_import_bytes(engine: CostEngine, stats: &CorpusCostStats) -> f64 {
    match engine.family() {
        // JodaSim and the VM serialize to json-lines; so does jq's file.
        Family::Joda | Family::Jq => stats.json_lines_bytes as f64,
        Family::Binary => match engine {
            CostEngine::Mongo => stats.bson_total_bytes as f64,
            _ => stats.jsonb_total_bytes as f64,
        },
    }
}

/// Stored bytes later queries re-scan for one base corpus.
fn base_stored_bytes(engine: CostEngine, stats: &CorpusCostStats) -> f64 {
    match engine.family() {
        Family::Joda => 0.0,
        _ => base_import_bytes(engine, stats),
    }
}

/// The per-document stored-byte hull for datasets derived from `origin`
/// without transforms.
fn per_doc_hull(engine: CostEngine, origin: Origin<'_>) -> (f64, f64) {
    let hull = match engine.family() {
        Family::Joda => return (0.0, 0.0),
        Family::Jq => &origin.stats.json_line_len,
        Family::Binary => match engine {
            CostEngine::Mongo => &origin.stats.bson_len,
            _ => &origin.stats.jsonb_len,
        },
    };
    (hull.min as f64, hull.max as f64)
}

/// Stored-byte bounds for a dataset a query is about to store.
fn stored_bytes(engine: CostEngine, result: Interval, origin: Option<Origin<'_>>) -> Interval {
    let result = sane(result);
    if result.hi <= 0.0 {
        // Zero documents serialize to zero bytes on every leg.
        return Interval::point(0.0);
    }
    match origin {
        Some(origin) => {
            let (min, max) = per_doc_hull(engine, origin);
            scale_hull(result, min, max)
        }
        // Transformed documents have unknowable sizes.
        None => Interval::new(0.0, f64::INFINITY),
    }
}

/// Result-cardinality bounds shared by the jq and binary transfers
/// (the joda family derives cards from its cache simulation instead).
fn result_card(query: &Query, input: Interval, prediction: Option<&QueryPrediction>) -> Interval {
    if let Some(p) = prediction {
        return sane(p.result_card);
    }
    // No prediction: the walk proved the input empty (bottom inputs get
    // no prediction) or never analyzed the base.
    if input.hi <= 0.0 {
        return Interval::point(0.0);
    }
    match &query.filter {
        Some(_) => Interval::new(0.0, input.hi),
        None => sane(input),
    }
}

/// The chain state stored under `query.store_as`.
fn stored_ds<'a>(engine: CostEngine, query: &Query, ds: Ds<'a>, result: Interval) -> Ds<'a> {
    let origin = if query.transforms.is_empty() {
        ds.origin
    } else {
        None
    };
    Ds {
        card: sane(result),
        origin,
        bytes: stored_bytes(engine, result, origin),
    }
}

/// The simulated JODA result cache: dataset name → predicate → result
/// cardinality.
type SimCache = BTreeMap<String, BTreeMap<String, Interval>>;

/// Transfer for the joda family: one engine whose evaluators charge
/// identical counters, so all three legs share it.
fn model_joda<'a>(
    engine: CostEngine,
    query: &Query,
    ds: Ds<'a>,
    prediction: Option<&QueryPrediction>,
    cache: &mut SimCache,
) -> (WorkBox, Interval, Ds<'a>) {
    let mut work = WorkBox::new();
    work.charge_exact(|w| &mut w.queries, 1.0);
    let result = match &query.filter {
        Some(predicate) => sim_filtered(
            cache, query, ds, predicate, predicate, prediction, &mut work,
        ),
        None => {
            // `execute` without a filter scans the base uncached.
            work.charge(|w| &mut w.docs_scanned, ds.card);
            ds.card
        }
    };
    if !query.transforms.is_empty() {
        work.charge(
            |w| &mut w.transform_ops,
            scale(result, query.transforms.len() as f64),
        );
    }
    let stored = stored_ds(engine, query, ds, result);
    (work, result, stored)
}

/// Simulates `Joda::filtered`: cache hit charges one `cache_hits`;
/// a miss on `And(l, r)` computes the left prefix recursively (sharing
/// its cache entry) and scans only the suffix over the prefix result.
fn sim_filtered(
    cache: &mut SimCache,
    query: &Query,
    ds: Ds<'_>,
    predicate: &Predicate,
    whole: &Predicate,
    prediction: Option<&QueryPrediction>,
    work: &mut WorkBox,
) -> Interval {
    let key = predicate.to_string();
    if let Some(&hit) = cache.get(&query.base).and_then(|entries| entries.get(&key)) {
        work.charge_exact(|w| &mut w.cache_hits, 1.0);
        return hit;
    }
    let out = sub_card(ds, predicate, whole, prediction);
    match predicate {
        Predicate::And(left, right) => {
            let parent = sim_filtered(cache, query, ds, left, whole, prediction, work);
            work.charge(|w| &mut w.docs_scanned, parent);
            work.charge(
                |w| &mut w.predicate_evals,
                scale(parent, right.leaf_count() as f64),
            );
            work.charge(|w| &mut w.docs_materialized, out);
        }
        _ => {
            work.charge(|w| &mut w.docs_scanned, ds.card);
            work.charge(
                |w| &mut w.predicate_evals,
                scale(ds.card, predicate.leaf_count() as f64),
            );
            work.charge(|w| &mut w.docs_materialized, out);
        }
    }
    cache
        .entry(query.base.clone())
        .or_default()
        .insert(key, out);
    out
}

/// Cardinality bounds for a predicate prefix evaluated over `ds`.
///
/// With an un-transformed origin the prefix is analyzed against the
/// base corpus and combined with the input card by Fréchet bounds; the
/// full filter is additionally met with the oracle-checked prediction.
fn sub_card(
    ds: Ds<'_>,
    predicate: &Predicate,
    whole: &Predicate,
    prediction: Option<&QueryPrediction>,
) -> Interval {
    let input = sane(ds.card);
    let fallback = Interval::new(0.0, input.hi);
    let mut card = match ds.origin {
        Some(origin) => {
            let n = origin.analysis.doc_count as f64;
            let from_filter = clamp_counts(&analyze_predicate(predicate, origin.analysis).count, n);
            clamp_counts(&and_counts(&input, &from_filter, n), n).meet(&fallback)
        }
        None => fallback,
    };
    if std::ptr::eq(predicate, whole) {
        if let Some(p) = prediction {
            card = card.meet(&p.result_card);
        }
    }
    if card.is_empty() {
        fallback
    } else {
        card
    }
}

/// Transfer for the jq simulation: every query re-reads and re-parses
/// the base dataset's json-lines file.
fn model_jq<'a>(
    query: &Query,
    ds: Ds<'a>,
    prediction: Option<&QueryPrediction>,
) -> (WorkBox, Interval, Ds<'a>) {
    let mut work = WorkBox::new();
    work.charge_exact(|w| &mut w.queries, 1.0);
    work.charge(|w| &mut w.bytes_scanned, ds.bytes);
    work.charge(|w| &mut w.bytes_parsed, ds.bytes);
    work.charge(|w| &mut w.docs_scanned, ds.card);
    let result = result_card(query, ds.card, prediction);
    if let Some(predicate) = &query.filter {
        work.charge(
            |w| &mut w.predicate_evals,
            scale(ds.card, predicate.leaf_count() as f64),
        );
    }
    if !query.transforms.is_empty() {
        work.charge(
            |w| &mut w.transform_ops,
            scale(result, query.transforms.len() as f64),
        );
    }
    let stored = stored_ds(CostEngine::Jq, query, ds, result);
    (work, result, stored)
}

/// Transfer for the binary-storage engines (MongoDB-like, PostgreSQL-like).
fn model_binary<'a>(
    engine: CostEngine,
    query: &Query,
    ds: Ds<'a>,
    prediction: Option<&QueryPrediction>,
) -> (WorkBox, Interval, Ds<'a>) {
    let mut work = WorkBox::new();
    work.charge_exact(|w| &mut w.queries, 1.0);
    work.charge(|w| &mut w.docs_scanned, ds.card);
    work.charge(|w| &mut w.bytes_scanned, ds.bytes);
    let result = result_card(query, ds.card, prediction);
    if let Some(predicate) = &query.filter {
        let leaves = predicate.leaf_count() as f64;
        // Short-circuiting: at least the left spine per document, at
        // most every leaf per document.
        work.charge(
            |w| &mut w.predicate_evals,
            Interval::new(
                mul_bound(sane(ds.card).lo.max(0.0), min_evals(predicate)),
                mul_bound(sane(ds.card).hi, leaves),
            ),
        );
        // Navigation cost per leaf is bounded by the corpus's deepest
        // object chain (linear probes for BSON, binary search for
        // JSONB); unknowable after a transform.
        let nav = match ds.origin {
            Some(origin) => match engine {
                CostEngine::Mongo => origin.stats.bson_nav_upper as f64,
                _ => origin.stats.jsonb_nav_upper as f64,
            },
            None => f64::INFINITY,
        };
        work.charge(
            |w| &mut w.key_comparisons,
            Interval::new(0.0, mul_bound(sane(ds.card).hi, mul_bound(leaves, nav))),
        );
        work.charge(
            |w| &mut w.values_decoded,
            Interval::new(0.0, mul_bound(sane(ds.card).hi, numeric_leaves(predicate))),
        );
    }
    work.charge(|w| &mut w.docs_materialized, result);
    if !query.transforms.is_empty() {
        work.charge(
            |w| &mut w.transform_ops,
            scale(result, query.transforms.len() as f64),
        );
        if query.store_as.is_some() {
            // Storing a transformed result re-encodes documents of
            // unknowable size: `bytes_scanned` is charged per byte.
            work.charge(
                |w| &mut w.bytes_scanned,
                Interval::new(0.0, mul_bound(sane(result).hi, f64::INFINITY)),
            );
        }
    }
    let stored = stored_ds(engine, query, ds, result);
    (work, result, stored)
}

/// Formats seconds for diagnostics: milliseconds or `∞`.
fn fmt_secs(seconds: f64) -> String {
    if seconds.is_finite() {
        format!("{:.3} ms", seconds * 1e3)
    } else {
        "∞".to_string()
    }
}

/// Emits rules L053–L057 from a computed cost report.
fn emit_rules(cost: &CostReport, config: &CostConfig, report: &mut LintReport) {
    let checked: Vec<CostEngine> = if config.engines.is_empty() {
        CostEngine::ALL.to_vec()
    } else {
        config.engines.clone()
    };

    if let Some(slo) = cost.slo_seconds {
        for leg in &cost.engines {
            if !checked.contains(&leg.engine) {
                continue;
            }
            let label = leg.engine.label();
            for q in &leg.queries {
                if q.modeled.lo > slo {
                    report.push(Diagnostic::new(
                        Rule::SloProvablyViolated,
                        Span::in_query(q.query),
                        format!(
                            "on {label}, modeled time is provably ≥ {} — over the {} SLO \
                             on every possible input",
                            fmt_secs(q.modeled.lo),
                            fmt_secs(slo),
                        ),
                    ));
                } else if q.modeled.hi > slo {
                    report.push(Diagnostic::new(
                        Rule::SloPossiblyViolated,
                        Span::in_query(q.query),
                        format!(
                            "on {label}, modeled time may reach {} (bounds [{}, {}]) — \
                             the {} SLO is not provably met",
                            fmt_secs(q.modeled.hi),
                            fmt_secs(q.modeled.lo),
                            fmt_secs(q.modeled.hi),
                            fmt_secs(slo),
                        ),
                    ));
                }
            }
            let count = leg.queries.len();
            let budget = slo * count as f64;
            if count > 0 && leg.queries_total.lo > budget {
                report.push(Diagnostic::new(
                    Rule::SessionBudgetExceeded,
                    Span::session(),
                    format!(
                        "on {label}, the session's modeled query time is provably ≥ {} — \
                         over the whole-session budget of {} ({count} queries × {} SLO)",
                        fmt_secs(leg.queries_total.lo),
                        fmt_secs(budget),
                        fmt_secs(slo),
                    ),
                ));
            }
        }
    }

    // L056: an engine strictly dominated for this session (its best
    // case is worse than some other leg's worst case, imports included).
    for leg in &cost.engines {
        if leg.queries.is_empty() {
            continue;
        }
        let dominator = cost
            .engines
            .iter()
            .filter(|other| other.engine != leg.engine && other.total.hi < leg.total.lo)
            .min_by(|a, b| a.total.hi.total_cmp(&b.total.hi));
        if let Some(best) = dominator {
            report.push(Diagnostic::new(
                Rule::EngineDominated,
                Span::session(),
                format!(
                    "for this session, {} (total ≥ {}) is strictly dominated by {} (total ≤ {})",
                    leg.engine.label(),
                    fmt_secs(leg.total.lo),
                    best.engine.label(),
                    fmt_secs(best.total.hi),
                ),
            ));
        }
    }

    // L057: cost bounds widened to ⊤, deduplicated per query.
    let mut widened: BTreeMap<usize, Vec<&'static str>> = BTreeMap::new();
    for leg in &cost.engines {
        for q in &leg.queries {
            if q.unbounded() {
                widened.entry(q.query).or_default().push(leg.engine.label());
            }
        }
    }
    for (query, legs) in widened {
        report.push(Diagnostic::new(
            Rule::CostUnbounded,
            Span::in_query(query),
            format!(
                "cost upper bounds widened to ⊤ (∞) on {} — typically a transformed \
                 dataset whose document sizes are unknowable; upper-bound SLO checks \
                 are vacuous here",
                legs.join(", "),
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::{json, JsonPointer};
    use betze_model::{DatasetGraph, Move, Predicate, Transform};

    fn corpus() -> Vec<betze_json::Value> {
        (0..50)
            .map(|i| {
                json!({
                    "n": (i as i64),
                    "tag": (format!("t{}", i % 5)),
                })
            })
            .collect()
    }

    fn int_eq(path: &str, value: i64) -> Predicate {
        Predicate::leaf(FilterFn::IntEq {
            path: JsonPointer::parse(path).unwrap(),
            value,
        })
    }

    fn session(queries: Vec<Query>, graph: DatasetGraph) -> Session {
        let moves = queries.iter().map(|_| Move::Stop).collect();
        Session {
            queries,
            graph,
            moves,
            seed: 0,
            config_label: "test".to_string(),
        }
    }

    fn full_setup(
        queries: Vec<Query>,
        graph: DatasetGraph,
    ) -> (Session, DatasetAnalysis, CorpusCostStats) {
        let docs = corpus();
        let analysis = betze_stats::analyze("base", &docs);
        // The json-text side is exact; the binary sides are filled with
        // plausible stand-ins (the lint crate cannot depend on the
        // engines' encoders — the real hulls are exercised by the
        // oracle integration test).
        let mut stats = CorpusCostStats::from_json_docs("base", &docs);
        stats.bson_total_bytes = stats.json_lines_bytes;
        stats.bson_len = stats.json_line_len;
        stats.bson_nav_upper = 4;
        stats.jsonb_total_bytes = stats.json_lines_bytes;
        stats.jsonb_len = stats.json_line_len;
        stats.jsonb_nav_upper = 3;
        (session(queries, graph), analysis, stats)
    }

    fn cost_of(
        session: &Session,
        analysis: &DatasetAnalysis,
        stats: &CorpusCostStats,
        config: &CostConfig,
    ) -> (CostReport, LintReport) {
        let mut report = LintReport::new();
        let predictions = super::super::engine::run(
            session,
            &[analysis],
            &crate::absint::AbsintConfig::default(),
            &mut report,
        );
        let cost = run(
            session,
            &[analysis],
            &[stats],
            &predictions,
            config,
            &mut report,
        );
        report.sort();
        (cost, report)
    }

    #[test]
    fn exact_inputs_give_zero_width_intervals() {
        let mut graph = DatasetGraph::new();
        graph.add_base("base", 50.0);
        // No filter: every counter is a point on every leg.
        let (session, analysis, stats) = full_setup(vec![Query::scan("base")], graph);
        let (cost, _) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        for leg in &cost.engines {
            assert_eq!(leg.queries.len(), 1, "{}", leg.engine.label());
            let q = &leg.queries[0];
            assert_eq!(q.lo, q.hi, "{} counters", leg.engine.label());
            assert!(
                q.modeled.is_point(),
                "{} modeled {}",
                leg.engine.label(),
                q.modeled
            );
            assert!(!q.unbounded());
            assert!(leg.complete);
            assert!(leg.total.hi.is_finite());
        }
    }

    #[test]
    fn bottom_inputs_propagate_through_the_cost_map() {
        // A filter that is provably empty (n = 99 never occurs twice in
        // a conjunction with n = 1), then a query over the stored-empty
        // dataset: the second query must be priced as exactly one
        // no-input query on every leg.
        let mut graph = DatasetGraph::new();
        let base = graph.add_base("base", 50.0);
        graph.add_derived(base, "empty", 0, 0.0);
        let filter = Predicate::And(Box::new(int_eq("/n", 1)), Box::new(int_eq("/n", 2)));
        let queries = vec![
            Query::scan("base").with_filter(filter).store_as("empty"),
            Query::scan("empty"),
        ];
        let (session, analysis, stats) = full_setup(queries, graph);
        let (cost, _) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        for leg in &cost.engines {
            let q = &leg.queries[1];
            assert_eq!(q.lo.queries, 1.0, "{}", leg.engine.label());
            assert_eq!(q.lo.docs_scanned, 0.0, "{}", leg.engine.label());
            assert_eq!(q.hi.docs_scanned, 0.0, "{}", leg.engine.label());
            assert_eq!(q.hi.bytes_scanned, 0.0, "{}", leg.engine.label());
            assert!(!q.unbounded(), "{}", leg.engine.label());
        }
    }

    #[test]
    fn joda_cache_charges_repeat_filters_as_hits() {
        let mut graph = DatasetGraph::new();
        graph.add_base("base", 50.0);
        let filter = int_eq("/n", 7);
        let queries = vec![
            Query::scan("base").with_filter(filter.clone()),
            Query::scan("base").with_filter(filter),
        ];
        let (session, analysis, stats) = full_setup(queries, graph);
        let (cost, _) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        let joda = cost.engine(CostEngine::Joda).unwrap();
        // First query scans, second is answered from the analysis cache.
        assert_eq!(joda.queries[0].hi.docs_scanned, 50.0);
        assert_eq!(joda.queries[0].hi.cache_hits, 0.0);
        assert_eq!(joda.queries[1].hi.docs_scanned, 0.0);
        assert_eq!(joda.queries[1].lo.cache_hits, 1.0);
        assert_eq!(joda.queries[1].hi.cache_hits, 1.0);
        // jq has no cache: both queries re-parse the file.
        let jq = cost.engine(CostEngine::Jq).unwrap();
        assert_eq!(jq.queries[1].lo.bytes_parsed, jq.queries[0].lo.bytes_parsed);
        assert!(jq.queries[1].lo.bytes_parsed > 0.0);
    }

    #[test]
    fn transforms_widen_stored_bytes_to_top_and_l057_reports_it() {
        let mut graph = DatasetGraph::new();
        let base = graph.add_base("base", 50.0);
        graph.add_derived(base, "shaped", 0, 50.0);
        let queries = vec![
            Query::scan("base")
                .with_transform(Transform::Remove {
                    path: JsonPointer::parse("/tag").unwrap(),
                })
                .store_as("shaped"),
            Query::scan("shaped").with_filter(int_eq("/n", 3)),
        ];
        let (session, analysis, stats) = full_setup(queries, graph);
        let (cost, report) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        // The follow-up query on a transformed dataset has unbounded
        // byte charges on the byte-sensitive legs…
        let jq = cost.engine(CostEngine::Jq).unwrap();
        assert!(jq.queries[1].unbounded());
        let pg = cost.engine(CostEngine::Pg).unwrap();
        assert!(pg.queries[1].hi.bytes_scanned.is_infinite());
        // …but stays bounded on joda, which never re-reads bytes.
        let joda = cost.engine(CostEngine::Joda).unwrap();
        assert!(!joda.queries[1].unbounded());
        // L057 names each widened query exactly once: the storing query
        // (the binary legs re-encode documents of unknowable size) and
        // the follow-up read.
        let l057: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::CostUnbounded)
            .collect();
        assert_eq!(l057.len(), 2);
        assert_eq!(l057[0].span, Span::in_query(0));
        assert_eq!(l057[1].span, Span::in_query(1));
    }

    #[test]
    fn slo_rules_distinguish_provable_from_possible() {
        let mut graph = DatasetGraph::new();
        graph.add_base("base", 50.0);
        let queries = vec![Query::scan("base").with_filter(int_eq("/n", 7))];
        let (session, analysis, stats) = full_setup(queries, graph);
        // A generous SLO: no SLO rules at all.
        let generous = CostConfig {
            slo: Some(Duration::from_secs(3600)),
            ..CostConfig::new()
        };
        let (_, report) = cost_of(&session, &analysis, &stats, &generous);
        assert!(!report.diagnostics().iter().any(|d| matches!(
            d.rule,
            Rule::SloProvablyViolated | Rule::SloPossiblyViolated | Rule::SessionBudgetExceeded
        )));
        // An impossible SLO: L053 fires on every checked leg, and L055
        // fires for the session.
        let impossible = CostConfig {
            slo: Some(Duration::from_nanos(1)),
            engines: vec![CostEngine::Jq],
            ..CostConfig::new()
        };
        let (cost, report) = cost_of(&session, &analysis, &stats, &impossible);
        let l053: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.rule == Rule::SloProvablyViolated)
            .collect();
        assert_eq!(l053.len(), 1, "only the jq leg is checked");
        assert!(l053[0].message.contains("jq"));
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule == Rule::SessionBudgetExceeded));
        // The uncheck'd legs are still modeled (for L056/L057).
        assert_eq!(cost.engines.len(), CostEngine::ALL.len());
    }

    #[test]
    fn dominated_engine_is_reported() {
        // jq pays a 40 µs per-query overhead and re-parses the file on
        // every query; joda answers repeats from cache. Enough repeats
        // make jq's best case worse than joda's worst case.
        let mut graph = DatasetGraph::new();
        graph.add_base("base", 50.0);
        let filter = int_eq("/n", 7);
        let queries: Vec<Query> = (0..12)
            .map(|_| Query::scan("base").with_filter(filter.clone()))
            .collect();
        let (session, analysis, stats) = full_setup(queries, graph);
        let (cost, report) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        let joda = cost.engine(CostEngine::Joda).unwrap();
        let jq = cost.engine(CostEngine::Jq).unwrap();
        assert!(
            joda.total.hi < jq.total.lo,
            "joda [{}] vs jq [{}]",
            joda.total,
            jq.total
        );
        assert!(report
            .diagnostics()
            .iter()
            .any(|d| d.rule == Rule::EngineDominated && d.message.contains("jq")));
    }

    #[test]
    fn engine_parse_round_trips_labels_and_aliases() {
        for engine in CostEngine::ALL {
            assert_eq!(CostEngine::parse(engine.label()), Some(engine));
        }
        assert_eq!(CostEngine::parse("mongo"), Some(CostEngine::Mongo));
        assert_eq!(CostEngine::parse("postgres"), Some(CostEngine::Pg));
        assert_eq!(CostEngine::parse("PG"), Some(CostEngine::Pg));
        assert_eq!(CostEngine::parse("duckdb"), None);
    }

    #[test]
    fn missing_base_widens_totals_but_models_the_rest() {
        let mut graph = DatasetGraph::new();
        graph.add_base("base", 50.0);
        graph.add_base("ghost", 0.0);
        let queries = vec![Query::scan("ghost"), Query::scan("base")];
        let (session, analysis, stats) = full_setup(queries, graph);
        let (cost, _) = cost_of(&session, &analysis, &stats, &CostConfig::new());
        for leg in &cost.engines {
            assert!(!leg.complete);
            assert_eq!(leg.queries.len(), 1);
            assert!(leg.total.hi.is_infinite());
            assert!(leg.total.lo.is_finite());
        }
    }

    #[test]
    fn empty_amounts_are_widened_not_trusted() {
        let mut work = WorkBox::new();
        work.charge(|w| &mut w.docs_scanned, Interval::EMPTY);
        assert_eq!(work.lo.docs_scanned, 0.0);
        assert!(work.hi.docs_scanned.is_infinite());
        assert_eq!(sane(Interval::EMPTY), Interval::new(0.0, f64::INFINITY));
        assert_eq!(mul_bound(0.0, f64::INFINITY), 0.0);
        assert_eq!(scale(Interval::point(0.0), f64::INFINITY).hi, 0.0);
    }
}
