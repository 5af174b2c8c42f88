//! Session execution against an engine: import accounting, the timeout
//! handling of the paper's evaluation (Table III's dashes, the 2-hour
//! cut-off of Fig. 10), and **resilient execution** under injected or
//! real faults — transient errors are retried with modeled-time
//! backoff, lost intermediates are re-materialized by lineage replay,
//! and a failed query degrades the session instead of aborting it.

use betze_datagen::Dataset;
use betze_engines::{CancelToken, Engine, EngineError, ExecutionReport};
use betze_model::{Query, Session};
use betze_store::PagedCorpus;
use std::sync::Arc;
use std::time::Duration;

/// Where a session's root corpus lives: resident in RAM (the classic
/// path) or paged on disk in a `.bcorp` file (out-of-core, DESIGN.md
/// §16). Every fault-handling path of the runner — import retry,
/// lineage replay of the root — works off this, so a paged root gets
/// the same resilience the in-RAM one does.
#[derive(Debug, Clone)]
pub enum CorpusSource<'a> {
    /// Docs resident in RAM.
    Ram(&'a Dataset),
    /// A durable paged corpus streamed from disk page-at-a-time.
    Paged(Arc<PagedCorpus>),
}

impl CorpusSource<'_> {
    /// The root dataset's name (what queries reference as their base).
    pub fn name(&self) -> &str {
        match self {
            CorpusSource::Ram(dataset) => &dataset.name,
            CorpusSource::Paged(corpus) => corpus.name(),
        }
    }

    /// Imports (or re-imports, for lineage replay) the root onto the
    /// engine.
    fn import_into(&self, engine: &mut dyn Engine) -> Result<ExecutionReport, EngineError> {
        match self {
            CorpusSource::Ram(dataset) => engine.import(&dataset.name, &dataset.docs),
            CorpusSource::Paged(corpus) => engine.import_paged(corpus),
        }
    }
}

/// Retry policy for transient engine errors. Backoff is charged to the
/// **modeled** session clock (not slept on the host), so resilient runs
/// stay deterministic and host-independent: the same fault schedule
/// always produces the same retry delays and the same session time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included), ≥ 1.
    pub max_attempts: u32,
    /// Modeled backoff before the first retry.
    pub base_backoff: Duration,
    /// Exponential multiplier applied per further retry.
    pub multiplier: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(50),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// No retries: every transient error is immediately permanent.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            multiplier: 1,
        }
    }

    /// `max_attempts` attempts with the default backoff curve.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The modeled backoff charged before retry number `retry` (1-based):
    /// `base * multiplier^(retry-1)`, saturating.
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = retry.saturating_sub(1).min(20);
        let factor = (self.multiplier as u64).saturating_pow(exp);
        self.base_backoff
            .saturating_mul(factor.min(u32::MAX as u64) as u32)
    }

    /// Effective attempt budget for a given error: at least the policy's
    /// `max_attempts`, and never less than what the error itself hints.
    fn budget_for(&self, error: &EngineError) -> u32 {
        self.max_attempts.max(1 + error.attempt_hint())
    }
}

/// A per-query progress callback: invoked after each query of a session
/// completes (successfully or not) with the 0-based query index, the
/// session's total query count, and the status just recorded.
/// `betze-serve` uses it to stream progress frames to the client while a
/// session is still running. Cloning shares the same callback.
#[derive(Clone)]
pub struct ProgressHook(std::sync::Arc<ProgressFn>);

type ProgressFn = dyn Fn(usize, usize, &QueryStatus) + Send + Sync;

impl ProgressHook {
    /// Wraps a callback.
    pub fn new(hook: impl Fn(usize, usize, &QueryStatus) + Send + Sync + 'static) -> Self {
        ProgressHook(std::sync::Arc::new(hook))
    }

    /// Invokes the callback.
    pub fn notify(&self, index: usize, total: usize, status: &QueryStatus) {
        (self.0)(index, total, status);
    }
}

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Options controlling one session run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Optional modeled-time timeout (Table III's 8-hour dash semantics):
    /// execution stops once the accumulated modeled session time exceeds
    /// it. The modeled clock keeps timeouts deterministic and
    /// host-independent.
    pub timeout: Option<Duration>,
    /// When false, results stay as references/cursors and no output work
    /// is charged — the measurement mode of Table II and Figs. 9/10
    /// (see `Engine::set_output_enabled`). Note `Default` uses `false`;
    /// use [`RunOptions::with_output`] for Table III-style full output.
    pub count_output: bool,
    /// Retry policy for transient errors.
    pub retry: RetryPolicy,
    /// When true (the default), a permanently failed query is recorded
    /// and the session continues ([`SessionOutcome::CompletedWithErrors`]);
    /// when false the first permanent failure aborts the run with `Err`.
    pub degrade: bool,
    /// Lint pre-flight deny level. When set, the session is checked with
    /// the structural lint passes **before** the engine is touched, and
    /// any diagnostic at or above this severity aborts the run with an
    /// `Internal` error carrying the rendered report. `None` (the
    /// default) skips the pre-flight.
    pub lint: Option<betze_lint::Severity>,
    /// Dataset analysis for the lint pre-flight. When present alongside
    /// `lint`, the pre-flight also runs the dataflow passes (IR audit +
    /// abstract interpretation), so provably-empty sessions (L033/L038/
    /// L048, all Error severity) are rejected before the engine runs.
    pub analysis: Option<std::sync::Arc<betze_stats::DatasetAnalysis>>,
    /// Cooperative cancellation token: installed on the engine for the
    /// duration of the run and polled before every query. Once it trips
    /// the run aborts with [`EngineError::Canceled`] — cancellation
    /// bypasses degradation (the whole sweep is unwinding, not one
    /// query failing). The default token is inert.
    pub cancel: CancelToken,
    /// Optional per-query **modeled-time** budget: a query whose modeled
    /// cost exceeds it stops the session with
    /// [`SessionOutcome::TimedOut`] at that query, like a session-level
    /// timeout that a single runaway query can trip on its own.
    /// Deterministic, because the modeled clock is.
    pub query_timeout: Option<Duration>,
    /// Optional interactivity SLO pre-flight: when set — together with
    /// `analysis` and `corpus_stats` — the lint cost abstraction predicts
    /// this engine's per-query modeled-time intervals **before** the
    /// engine is touched, and a query provably over the SLO (L053)
    /// aborts the run with an `Internal` error. Sound: it never rejects
    /// a session whose concrete run would have met the SLO.
    pub slo: Option<Duration>,
    /// Byte-level corpus statistics for the SLO pre-flight (see
    /// [`betze_engines::corpus_cost_stats`]). Required for `slo` to
    /// have any effect.
    pub corpus_stats: Option<std::sync::Arc<betze_engines::CorpusCostStats>>,
    /// Thread count the SLO pre-flight prices joda-family legs with.
    /// Must match the engine's configuration — a smaller value inflates
    /// the predicted lower bounds and can reject sessions the threaded
    /// engine would have completed in time. Default 1.
    pub slo_threads: usize,
    /// Optional per-query progress callback (see [`ProgressHook`]).
    /// Purely observational: it cannot alter the run, so runs with and
    /// without a hook are bit-identical.
    pub progress: Option<ProgressHook>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            timeout: None,
            count_output: false,
            retry: RetryPolicy::default(),
            degrade: true,
            lint: None,
            analysis: None,
            cancel: CancelToken::new(),
            query_timeout: None,
            slo: None,
            corpus_stats: None,
            slo_threads: 1,
            progress: None,
        }
    }
}

impl RunOptions {
    /// Reference-output mode (no output charged), no timeout.
    pub fn reference() -> Self {
        RunOptions::default()
    }

    /// Full-output mode (Table III's configuration).
    pub fn with_output() -> Self {
        RunOptions {
            count_output: true,
            ..RunOptions::default()
        }
    }

    /// Sets the timeout.
    pub fn timeout(mut self, t: Duration) -> Self {
        self.timeout = Some(t);
        self
    }

    /// Sets the retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Sets whether permanent query failures degrade (true) or abort
    /// (false) the session.
    pub fn degrade(mut self, on: bool) -> Self {
        self.degrade = on;
        self
    }

    /// Enables the lint pre-flight at the given deny level (pass `None`
    /// to disable it again).
    pub fn lint(mut self, deny: Option<betze_lint::Severity>) -> Self {
        self.lint = deny;
        self
    }

    /// Provides the dataset analysis the lint pre-flight uses for its
    /// dataflow passes (abstract interpretation). Without it the
    /// pre-flight is structural only.
    pub fn analysis(mut self, analysis: std::sync::Arc<betze_stats::DatasetAnalysis>) -> Self {
        self.analysis = Some(analysis);
        self
    }

    /// Sets the cancellation token.
    pub fn cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Sets the per-query modeled-time budget.
    pub fn query_timeout(mut self, t: Option<Duration>) -> Self {
        self.query_timeout = t;
        self
    }

    /// Enables the SLO pre-flight: `stats` must describe the corpus the
    /// run imports, `threads` the engine's scan thread count.
    pub fn slo(
        mut self,
        slo: Duration,
        stats: std::sync::Arc<betze_engines::CorpusCostStats>,
        threads: usize,
    ) -> Self {
        self.slo = Some(slo);
        self.corpus_stats = Some(stats);
        self.slo_threads = threads.max(1);
        self
    }

    /// Installs a per-query progress callback.
    pub fn progress(
        mut self,
        hook: impl Fn(usize, usize, &QueryStatus) + Send + Sync + 'static,
    ) -> Self {
        self.progress = Some(ProgressHook::new(hook));
        self
    }
}

/// How one query of a session ended up.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryStatus {
    /// Succeeded on the first attempt.
    Ok,
    /// Succeeded after this many retries (transient faults and/or one
    /// lineage replay).
    Retried(u32),
    /// Failed permanently; the session continued without its result.
    Failed { error: EngineError },
    /// Skipped: its base dataset was lost and could not be
    /// re-materialized by lineage replay.
    SkippedDependencyLost { dataset: String },
}

impl QueryStatus {
    /// True for `Ok` and `Retried` — the query produced a result.
    pub fn is_ok(&self) -> bool {
        matches!(self, QueryStatus::Ok | QueryStatus::Retried(_))
    }
}

/// The measured run of one session on one engine.
#[derive(Debug, Clone)]
pub struct SessionRun {
    /// Engine display name.
    pub engine: String,
    /// Import cost (the paper reports wall-clock with and without import).
    pub import: ExecutionReport,
    /// Per-query reports, in session order (Fig. 5 plots these). A failed
    /// or skipped query contributes its charged backoff time and any work
    /// done by failed attempts' replays.
    pub queries: Vec<ExecutionReport>,
    /// Per-query status, parallel to `queries`.
    pub statuses: Vec<QueryStatus>,
    /// How many lost intermediates were re-materialized by lineage replay.
    pub lineage_replays: u64,
}

impl SessionRun {
    /// Sum of the queries' modeled times — the paper's "w/o import"
    /// session time.
    pub fn session_modeled(&self) -> Duration {
        self.queries.iter().map(|r| r.modeled).sum()
    }

    /// Sum of the queries' wall times.
    pub fn session_wall(&self) -> Duration {
        self.queries.iter().map(|r| r.wall).sum()
    }

    /// Modeled time including import — the paper's "wall clock time".
    pub fn total_modeled(&self) -> Duration {
        self.session_modeled() + self.import.modeled
    }

    /// Queries that produced a result (`Ok` or `Retried`).
    pub fn ok_queries(&self) -> usize {
        self.statuses.iter().filter(|s| s.is_ok()).count()
    }

    /// Total retries across all queries (including lineage-replay
    /// retries).
    pub fn total_retries(&self) -> u32 {
        self.statuses
            .iter()
            .map(|s| match s {
                QueryStatus::Retried(n) => *n,
                _ => 0,
            })
            .sum()
    }

    /// True if any query failed or was skipped.
    pub fn degraded(&self) -> bool {
        self.statuses.iter().any(|s| !s.is_ok())
    }
}

/// Completion, degradation, or timeout of a session run.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// All queries executed (retried queries still count as executed).
    Completed(SessionRun),
    /// The session ran to the end, but some queries failed permanently
    /// or were skipped after dependency loss. The run carries per-query
    /// statuses; tables render it as a partial `N/M` cell.
    CompletedWithErrors(SessionRun),
    /// The modeled session time exceeded the timeout; execution stopped
    /// after `completed_queries` queries (rendered as a dash in the
    /// tables, like the paper's 8-hour timeouts).
    TimedOut {
        /// The partial run up to the timeout.
        partial: SessionRun,
        /// How many queries completed before the cut-off.
        completed_queries: usize,
    },
}

impl SessionOutcome {
    /// The fully successful run, if every query produced a result.
    pub fn completed(&self) -> Option<&SessionRun> {
        match self {
            SessionOutcome::Completed(run) => Some(run),
            _ => None,
        }
    }

    /// The run for any outcome (partial for timeouts).
    pub fn run(&self) -> &SessionRun {
        match self {
            SessionOutcome::Completed(run) => run,
            SessionOutcome::CompletedWithErrors(run) => run,
            SessionOutcome::TimedOut { partial, .. } => partial,
        }
    }

    /// Renders the session (w/o import) time: plain time for clean
    /// completions, `time (N/M)` for degraded runs, and the dash used in
    /// the paper's tables for timeouts.
    pub fn cell(&self) -> String {
        match self {
            SessionOutcome::Completed(run) => crate::fmt::human_duration(run.session_modeled()),
            SessionOutcome::CompletedWithErrors(run) => format!(
                "{} ({}/{})",
                crate::fmt::human_duration(run.session_modeled()),
                run.ok_queries(),
                run.statuses.len()
            ),
            SessionOutcome::TimedOut { .. } => "-".to_owned(),
        }
    }
}

/// Abstract-interpretation pre-flight: true when the linter *proves* the
/// session returns nothing against this analysis — a provably-empty
/// result (L033), a query over a proven-empty input (L038), or an empty
/// base analysis (L048). Such sessions can be skipped without touching
/// an engine; the proof is sound, so a skipped session would have
/// produced zero documents everywhere. Translation auditing is disabled
/// here: only semantic emptiness matters for the skip decision.
pub fn provably_empty(session: &Session, analysis: &betze_stats::DatasetAnalysis) -> bool {
    use betze_lint::Rule;
    let report = betze_lint::Linter::new()
        .without_translations()
        .with_analysis(analysis)
        .lint(session);
    report.diagnostics().iter().any(|d| {
        matches!(
            d.rule,
            Rule::ProvablyEmptyResult | Rule::BottomInputDataset | Rule::EmptyBaseAnalysis
        )
    })
}

/// Cost-abstraction pre-flight: true when the linter *proves* some query
/// of the session exceeds `slo` in modeled time on this engine (L053) —
/// i.e. even the interval's lower bound is over budget, for every input
/// consistent with the analysis. Sound like [`provably_empty`]: a
/// rejected session could not have met the SLO, so skipping it never
/// discards a run the concrete engine would have completed in time.
/// `threads` must match the engine's scan thread count (pricing with
/// fewer threads inflates the lower bound and loses soundness of the
/// skip decision).
pub fn provably_slow(
    session: &Session,
    analysis: &betze_stats::DatasetAnalysis,
    stats: &betze_engines::CorpusCostStats,
    slo: Duration,
    engine: betze_lint::CostEngine,
    threads: usize,
) -> bool {
    use betze_lint::Rule;
    let report = betze_lint::Linter::new()
        .without_translations()
        .with_analysis(analysis)
        .with_corpus_stats(stats)
        .with_slo(slo)
        .with_cost_engine(engine)
        .with_joda_threads(threads.max(1))
        .lint(session);
    report
        .diagnostics()
        .iter()
        .any(|d| matches!(d.rule, Rule::SloProvablyViolated))
}

/// Imports the dataset and executes every session query on the engine.
/// The engine is reset first, so runs are independent. Degradation is
/// disabled: the first permanent failure is returned as `Err` (transient
/// errors are still retried under the default policy).
pub fn run_session(
    engine: &mut dyn Engine,
    dataset: &Dataset,
    session: &Session,
) -> Result<SessionRun, EngineError> {
    run_session_governed(engine, dataset, session, CancelToken::new())
}

/// [`run_session`] under a cancellation token: the pooled experiment
/// drivers run every task through this, so a sweep deadline or Ctrl-C
/// stops in-flight sessions at the next query boundary (or mid-scan, for
/// the engines that poll) with [`EngineError::Canceled`].
pub fn run_session_governed(
    engine: &mut dyn Engine,
    dataset: &Dataset,
    session: &Session,
    cancel: CancelToken,
) -> Result<SessionRun, EngineError> {
    let options = RunOptions::reference().degrade(false).cancel(cancel);
    match run_session_with_options(engine, dataset, session, &options)? {
        SessionOutcome::Completed(run) => Ok(run),
        SessionOutcome::CompletedWithErrors(run) => {
            // degrade=false surfaces failures as Err inside the loop; a
            // degraded outcome here would be a runner bug — map it to the
            // first recorded error instead of panicking.
            Err(first_error(&run))
        }
        SessionOutcome::TimedOut { .. } => Err(EngineError::Internal {
            message: "session timed out but no timeout was configured".to_owned(),
        }),
    }
}

/// The first recorded failure of a degraded run, as an [`EngineError`].
fn first_error(run: &SessionRun) -> EngineError {
    run.statuses
        .iter()
        .find_map(|s| match s {
            QueryStatus::Failed { error } => Some(error.clone()),
            QueryStatus::SkippedDependencyLost { dataset } => Some(EngineError::UnknownDataset {
                name: dataset.clone(),
            }),
            _ => None,
        })
        .unwrap_or_else(|| EngineError::Internal {
            message: "session degraded without a recorded error".to_owned(),
        })
}

/// The general form: explicit [`RunOptions`].
///
/// Fault handling, in order, for each query:
/// 1. transient errors are retried up to the policy's attempt budget,
///    each retry charging exponential backoff to the modeled clock;
/// 2. an `UnknownDataset` error triggers **lineage replay**: the lost
///    dataset's producer chain (the queries whose `store_as` created it,
///    back to the imported root) is re-executed to re-materialize it,
///    its cost merged into the current query's report, then the query is
///    retried once;
/// 3. a still-failing query is recorded as `Failed` (or
///    `SkippedDependencyLost`) and the session continues when
///    `options.degrade` is set, else the run aborts with `Err`.
///
/// The timeout is checked after **every** query, including the last one:
/// a session whose final query pushes the modeled clock past the limit is
/// reported as `TimedOut`, matching the paper's semantics where an
/// over-budget run is a dash no matter where the budget ran out.
pub fn run_session_with_options(
    engine: &mut dyn Engine,
    dataset: &Dataset,
    session: &Session,
    options: &RunOptions,
) -> Result<SessionOutcome, EngineError> {
    run_session_from_source(engine, &CorpusSource::Ram(dataset), session, options)
}

/// [`run_session_with_options`] generalized over where the root corpus
/// lives ([`CorpusSource`]): pass `CorpusSource::Paged` to run the same
/// session out-of-core against a `.bcorp` file, with identical fault
/// handling (a corrupt page surfaces as a typed `Storage` failure and
/// degrades the query; a short read is transient and retried).
pub fn run_session_from_source(
    engine: &mut dyn Engine,
    source: &CorpusSource<'_>,
    session: &Session,
    options: &RunOptions,
) -> Result<SessionOutcome, EngineError> {
    let timeout = options.timeout;
    if let Some(deny) = options.lint {
        let mut linter = betze_lint::Linter::new();
        if let Some(analysis) = options.analysis.as_deref() {
            linter = linter.with_analysis(analysis);
        }
        let report = linter.lint(session);
        if report.count_at_least(deny) > 0 {
            return Err(EngineError::Internal {
                message: format!(
                    "lint pre-flight rejected session (deny level: {}):\n{}",
                    deny.label(),
                    report.render_human()
                ),
            });
        }
    }
    if let (Some(slo), Some(analysis), Some(stats)) = (
        options.slo,
        options.analysis.as_deref(),
        options.corpus_stats.as_deref(),
    ) {
        // The SLO pre-flight only prices engines the cost abstraction
        // models; an unrecognized engine name runs un-gated.
        if let Some(leg) = betze_lint::CostEngine::parse(engine.short_name()) {
            if provably_slow(session, analysis, stats, slo, leg, options.slo_threads) {
                return Err(EngineError::Internal {
                    message: format!(
                        "SLO pre-flight rejected session: some query provably exceeds \
                         {:?} modeled time on {} (rule L053)",
                        slo,
                        leg.label()
                    ),
                });
            }
        }
    }
    options.cancel.check("session start")?;
    engine.set_cancel(Some(options.cancel.clone()));
    engine.reset();
    engine.set_output_enabled(options.count_output);
    let import = import_with_retry(engine, source, &options.retry)?;
    let mut run = SessionRun {
        engine: engine.name().to_owned(),
        import,
        queries: Vec::with_capacity(session.queries.len()),
        statuses: Vec::with_capacity(session.queries.len()),
        lineage_replays: 0,
    };
    let mut modeled = Duration::ZERO;
    for i in 0..session.queries.len() {
        options.cancel.check("between queries")?;
        let mut report = ExecutionReport::empty();
        let mut retries = 0u32;
        let status = match execute_resilient(
            engine,
            source,
            session,
            i,
            options,
            &mut report,
            &mut retries,
            &mut run.lineage_replays,
        ) {
            Ok(()) => {
                if retries == 0 {
                    QueryStatus::Ok
                } else {
                    QueryStatus::Retried(retries)
                }
            }
            Err(error) => {
                // Cancellation is a sweep-level unwind, never a per-query
                // degradation.
                if matches!(error, EngineError::Canceled { .. }) || !options.degrade {
                    return Err(error);
                }
                match error.lost_dataset() {
                    Some(name) => QueryStatus::SkippedDependencyLost {
                        dataset: name.to_owned(),
                    },
                    None => QueryStatus::Failed { error },
                }
            }
        };
        modeled += report.modeled;
        let query_over_budget = options
            .query_timeout
            .is_some_and(|limit| report.modeled > limit);
        run.queries.push(report);
        run.statuses.push(status);
        if let Some(hook) = &options.progress {
            hook.notify(i, session.queries.len(), &run.statuses[i]);
        }
        let session_over_budget = timeout.is_some_and(|limit| modeled > limit);
        if query_over_budget || session_over_budget {
            return Ok(SessionOutcome::TimedOut {
                completed_queries: i + 1,
                partial: run,
            });
        }
    }
    Ok(if run.degraded() {
        SessionOutcome::CompletedWithErrors(run)
    } else {
        SessionOutcome::Completed(run)
    })
}

/// Imports the root corpus, retrying transient faults with modeled
/// backoff charged into the returned report.
fn import_with_retry(
    engine: &mut dyn Engine,
    source: &CorpusSource<'_>,
    policy: &RetryPolicy,
) -> Result<ExecutionReport, EngineError> {
    let mut charged = Duration::ZERO;
    let mut attempt = 1u32;
    loop {
        match source.import_into(engine) {
            Ok(mut report) => {
                report.modeled += charged;
                return Ok(report);
            }
            Err(e) if e.is_transient() && attempt < policy.budget_for(&e) => {
                charged += policy.backoff(attempt);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Executes one session query resiliently (see
/// [`run_session_with_options`] for the fault-handling order). Work and
/// backoff are merged into `report`; `retries` counts every re-attempt.
#[allow(clippy::too_many_arguments)]
fn execute_resilient(
    engine: &mut dyn Engine,
    source: &CorpusSource<'_>,
    session: &Session,
    index: usize,
    options: &RunOptions,
    report: &mut ExecutionReport,
    retries: &mut u32,
    lineage_replays: &mut u64,
) -> Result<(), EngineError> {
    let query = &session.queries[index];
    let policy = &options.retry;
    let mut attempt = 1u32;
    let mut replayed = false;
    loop {
        match engine.execute(query) {
            Ok(outcome) => {
                report.merge(&outcome.report);
                return Ok(());
            }
            Err(e) if e.is_transient() && attempt < policy.budget_for(&e) => {
                report.modeled += policy.backoff(attempt);
                attempt += 1;
                *retries += 1;
            }
            Err(e) => {
                let lost = match e.lost_dataset() {
                    Some(name) if !replayed => name.to_owned(),
                    _ => return Err(e),
                };
                // Lineage replay: re-materialize the lost dataset from
                // its producer chain, then retry this query once.
                replayed = true;
                ensure_dataset(engine, source, session, index, &lost, policy, report, 0)?;
                *lineage_replays += 1;
                *retries += 1;
            }
        }
    }
}

/// Re-materializes `name` on the engine by replaying its lineage: the
/// imported root is re-imported directly; a derived dataset is rebuilt by
/// re-executing the last query before `upto` that stored it (recursively
/// ensuring that query's own base first). Replay cost is merged into
/// `report` — recovery is real work and the session clock pays for it.
#[allow(clippy::too_many_arguments)]
fn ensure_dataset(
    engine: &mut dyn Engine,
    source: &CorpusSource<'_>,
    session: &Session,
    upto: usize,
    name: &str,
    policy: &RetryPolicy,
    report: &mut ExecutionReport,
    depth: usize,
) -> Result<(), EngineError> {
    // A session has at most `upto` producers; deeper recursion means a
    // lineage cycle (a query reading the dataset it stores).
    if depth > session.queries.len() {
        return Err(EngineError::Internal {
            message: format!("lineage replay cycle while rebuilding '{name}'"),
        });
    }
    if name == source.name() {
        let imported = import_with_retry(engine, source, policy)?;
        report.merge(&imported);
        return Ok(());
    }
    // The last producer wins, matching engine overwrite semantics.
    let producer = session.queries[..upto]
        .iter()
        .rposition(|q| q.store_as.as_deref() == Some(name))
        .ok_or_else(|| EngineError::UnknownDataset {
            name: name.to_owned(),
        })?;
    let producer_query: &Query = &session.queries[producer];
    let mut attempt = 1u32;
    let mut ensured_base = false;
    loop {
        match engine.execute(producer_query) {
            Ok(outcome) => {
                report.merge(&outcome.report);
                return Ok(());
            }
            Err(e) if e.is_transient() && attempt < policy.budget_for(&e) => {
                report.modeled += policy.backoff(attempt);
                attempt += 1;
            }
            Err(e) => {
                let lost = match e.lost_dataset() {
                    Some(l) if !ensured_base => l.to_owned(),
                    _ => return Err(e),
                };
                ensured_base = true;
                ensure_dataset(
                    engine,
                    source,
                    session,
                    producer,
                    &lost,
                    policy,
                    report,
                    depth + 1,
                )?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{prepare, Corpus};
    use betze_engines::{ChaosEngine, FaultPlan, JodaSim, JqSim};
    use betze_generator::GeneratorConfig;

    fn workload() -> crate::workload::PreparedWorkload {
        prepare(Corpus::NoBench, 200, 1, &GeneratorConfig::default(), 7).unwrap()
    }

    /// Unwraps a runner result, reporting the engine error's own message
    /// on failure: a chaos/timeout test that dies should say *which*
    /// fault killed it, not just point at an unwrap line.
    fn expect_ok<T>(result: Result<T, EngineError>, context: &str) -> T {
        match result {
            Ok(value) => value,
            Err(e) => panic!("{context}: {e}"),
        }
    }

    #[test]
    fn run_session_reports_per_query() {
        let w = workload();
        let mut joda = JodaSim::new(1);
        let run = run_session(&mut joda, &w.dataset, &w.generation.session).unwrap();
        assert_eq!(run.queries.len(), 10);
        assert_eq!(run.statuses.len(), 10);
        assert!(run.statuses.iter().all(QueryStatus::is_ok));
        assert!(run.session_modeled() > Duration::ZERO);
        assert!(run.total_modeled() > run.session_modeled());
        assert!(run.import.counters.import_docs == 200);
    }

    #[test]
    fn lint_preflight_rejects_corrupted_sessions_before_import() {
        let w = workload();
        // Corrupt the session: point a query at a dataset that never
        // exists (the signature of a mangled session file).
        let mut session = w.generation.session.clone();
        session.queries[0].base = "no_such_dataset".into();
        let mut joda = JodaSim::new(1);
        let options = RunOptions::reference().lint(Some(betze_lint::Severity::Error));
        let err = run_session_with_options(&mut joda, &w.dataset, &session, &options)
            .expect_err("pre-flight should reject the corrupted session");
        match err {
            EngineError::Internal { message } => {
                assert!(message.contains("lint pre-flight rejected"), "{message}");
                assert!(message.contains("L030"), "{message}");
            }
            other => panic!("expected Internal, got {other:?}"),
        }
        // The engine was never touched: no import happened.
        assert_eq!(joda.name(), "JODA");
        // With the pre-flight off, the same corrupted session reaches the
        // engine and fails there instead (UnknownDataset → degraded run).
        let outcome =
            run_session_with_options(&mut joda, &w.dataset, &session, &RunOptions::reference())
                .unwrap();
        assert!(matches!(outcome, SessionOutcome::CompletedWithErrors(_)));
        // A clean session sails through the pre-flight.
        let clean =
            run_session_with_options(&mut joda, &w.dataset, &w.generation.session, &options)
                .unwrap();
        assert!(matches!(clean, SessionOutcome::Completed(_)));
    }

    #[test]
    fn timeout_cuts_off_slow_engines() {
        let w = workload();
        let mut jq = JqSim::new();
        let outcome = expect_ok(
            run_session_with_options(
                &mut jq,
                &w.dataset,
                &w.generation.session,
                &RunOptions::reference().timeout(Duration::from_nanos(1)),
            ),
            "timed-out run must not error",
        );
        match outcome {
            SessionOutcome::TimedOut {
                completed_queries, ..
            } => {
                assert_eq!(completed_queries, 1);
            }
            _ => panic!("expected timeout"),
        }
        assert_eq!(outcome.cell(), "-");
    }

    #[test]
    fn final_query_past_limit_still_times_out() {
        // Regression: the old check skipped the timeout after the final
        // query, so a session whose last query blew the budget was
        // reported Completed. Pick a limit strictly between the clean
        // run's time minus its final query and its total time, so ONLY
        // the final query pushes past it.
        let w = workload();
        let mut joda = JodaSim::new(1);
        let clean = run_session(&mut joda, &w.dataset, &w.generation.session).unwrap();
        let total = clean.session_modeled();
        let last = clean.queries.last().unwrap().modeled;
        assert!(last > Duration::ZERO);
        let limit = total - last / 2;
        let outcome = expect_ok(
            run_session_with_options(
                &mut joda,
                &w.dataset,
                &w.generation.session,
                &RunOptions::reference().timeout(limit),
            ),
            "final-query timeout run must not error",
        );
        match outcome {
            SessionOutcome::TimedOut {
                completed_queries, ..
            } => {
                assert_eq!(completed_queries, w.generation.session.queries.len());
            }
            other => panic!("expected timeout on the final query, got {other:?}"),
        }
    }

    #[test]
    fn generous_timeout_completes() {
        let w = workload();
        let mut joda = JodaSim::new(1);
        let outcome = run_session_with_options(
            &mut joda,
            &w.dataset,
            &w.generation.session,
            &RunOptions::reference().timeout(Duration::from_secs(3600)),
        )
        .unwrap();
        assert!(outcome.completed().is_some());
        assert_ne!(outcome.cell(), "-");
    }

    #[test]
    fn runs_are_engine_independent() {
        let w = workload();
        let mut joda = JodaSim::new(1);
        let a = run_session(&mut joda, &w.dataset, &w.generation.session).unwrap();
        // Re-running after reset reproduces the same counters.
        let b = run_session(&mut joda, &w.dataset, &w.generation.session).unwrap();
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.counters, y.counters);
            assert_eq!(x.modeled, y.modeled);
        }
    }

    /// Emits the workload's dataset into a sealed `.bcorp` and opens it.
    fn emit_paged(w: &crate::workload::PreparedWorkload, tag: &str) -> Arc<PagedCorpus> {
        let dir = std::env::temp_dir().join(format!("betze-runner-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.bcorp"));
        let mut writer =
            betze_store::CorpusWriter::create(&path, &w.dataset.name, 16 * 1024).unwrap();
        for doc in w.dataset.docs.iter() {
            writer.append(doc.clone()).unwrap();
        }
        writer.seal().unwrap();
        Arc::new(PagedCorpus::open(&path).unwrap())
    }

    #[test]
    fn paged_source_runs_bit_identically_to_ram() {
        let w = workload();
        let options = RunOptions::reference();
        let mut joda = JodaSim::new(1);
        let ram = expect_ok(
            run_session_from_source(
                &mut joda,
                &CorpusSource::Ram(&w.dataset),
                &w.generation.session,
                &options,
            ),
            "RAM run",
        );
        let corpus = emit_paged(&w, "identity");
        let mut joda = JodaSim::new(1);
        let paged = expect_ok(
            run_session_from_source(
                &mut joda,
                &CorpusSource::Paged(corpus),
                &w.generation.session,
                &options,
            ),
            "paged run",
        );
        let (ram, paged) = (ram.completed().unwrap(), paged.completed().unwrap());
        assert_eq!(ram.import.counters, paged.import.counters);
        assert_eq!(ram.import.modeled, paged.import.modeled);
        assert_eq!(ram.statuses, paged.statuses);
        for (x, y) in ram.queries.iter().zip(&paged.queries) {
            assert_eq!(x.counters, y.counters);
            assert_eq!(x.modeled, y.modeled);
        }
    }

    #[test]
    fn chaotic_paged_run_matches_chaotic_ram_run() {
        // Swapping the root's residency (RAM → paged) must not perturb
        // the chaos schedule: a paged import draws from the same fault
        // stream in the same order, and lineage replay of an evicted
        // root re-imports through the same path. The two runs must be
        // indistinguishable down to statuses and the modeled clock.
        let w = workload();
        let plan = FaultPlan::none(11)
            .storage_faults(0.4)
            .latency_spikes(0.2, 3.0)
            .evictions(0.5);
        let options = RunOptions::reference().retry(RetryPolicy::attempts(4));
        let mut chaos = ChaosEngine::new(JodaSim::new(1), plan.clone());
        let ram = expect_ok(
            run_session_from_source(
                &mut chaos,
                &CorpusSource::Ram(&w.dataset),
                &w.generation.session,
                &options,
            ),
            "chaotic RAM run",
        );
        let corpus = emit_paged(&w, "chaos");
        let mut chaos = ChaosEngine::new(JodaSim::new(1), plan);
        let paged = expect_ok(
            run_session_from_source(
                &mut chaos,
                &CorpusSource::Paged(corpus),
                &w.generation.session,
                &options,
            ),
            "chaotic paged run",
        );
        assert_eq!(ram.run().statuses, paged.run().statuses);
        assert_eq!(ram.run().lineage_replays, paged.run().lineage_replays);
        assert_eq!(ram.run().session_modeled(), paged.run().session_modeled());
        assert_eq!(ram.cell(), paged.cell());
    }

    #[test]
    fn transient_faults_are_retried_not_fatal() {
        let w = workload();
        // 30% storage faults, generous retry budget: every query should
        // eventually succeed and the outcome stay Completed, with the
        // fault schedule visible as Retried statuses.
        let mut chaos = ChaosEngine::new(
            JodaSim::new(1),
            FaultPlan::none(42).storage_faults(0.3).import_faults(0.3),
        );
        let options = RunOptions::reference().retry(RetryPolicy::attempts(50));
        let outcome = expect_ok(
            run_session_with_options(&mut chaos, &w.dataset, &w.generation.session, &options),
            "chaotic run with generous retries must not error",
        );
        let run = outcome.completed().expect("retries should absorb faults");
        assert!(run.total_retries() > 0, "30% fault rate must hit something");
        assert!(run
            .statuses
            .iter()
            .any(|s| matches!(s, QueryStatus::Retried(_))));
    }

    #[test]
    fn retry_exhaustion_degrades_instead_of_aborting() {
        let w = workload();
        // Every execute fails; with retries exhausted each query is
        // recorded Failed but the session still completes (with errors).
        let mut chaos = ChaosEngine::new(JodaSim::new(1), FaultPlan::none(7).storage_faults(1.0));
        let options = RunOptions::reference().retry(RetryPolicy::attempts(2));
        let outcome = expect_ok(
            run_session_with_options(&mut chaos, &w.dataset, &w.generation.session, &options),
            "degrading run must absorb permanent failures",
        );
        match &outcome {
            SessionOutcome::CompletedWithErrors(run) => {
                assert_eq!(run.ok_queries(), 0);
                assert!(run
                    .statuses
                    .iter()
                    .all(|s| matches!(s, QueryStatus::Failed { error } if error.is_transient())));
                // The charged backoff is visible in the modeled clock.
                assert!(run.session_modeled() > Duration::ZERO);
            }
            other => panic!("expected CompletedWithErrors, got {other:?}"),
        }
        let cell = outcome.cell();
        assert!(cell.contains("(0/10)"), "partial cell, got {cell}");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let w = workload();
        let plan = FaultPlan::none(11)
            .storage_faults(0.4)
            .latency_spikes(0.2, 3.0)
            .evictions(0.5);
        let options = RunOptions::reference().retry(RetryPolicy::attempts(4));
        let run_once = || {
            let mut chaos = ChaosEngine::new(JodaSim::new(1), plan.clone());
            expect_ok(
                run_session_with_options(&mut chaos, &w.dataset, &w.generation.session, &options),
                "deterministic chaos run must not error",
            )
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.run().statuses, b.run().statuses);
        assert_eq!(a.run().lineage_replays, b.run().lineage_replays);
        assert_eq!(a.run().session_modeled(), b.run().session_modeled());
        assert_eq!(a.cell(), b.cell());
    }

    #[test]
    fn zero_rate_chaos_matches_plain_run() {
        let w = workload();
        let mut plain = JodaSim::new(1);
        let mut chaos = ChaosEngine::new(JodaSim::new(1), FaultPlan::none(0));
        let a = expect_ok(
            run_session(&mut plain, &w.dataset, &w.generation.session),
            "plain run",
        );
        let b = expect_ok(
            run_session(&mut chaos, &w.dataset, &w.generation.session),
            "zero-rate chaos run",
        );
        assert_eq!(a.session_modeled(), b.session_modeled());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.counters, y.counters);
        }
    }

    #[test]
    fn lineage_replay_recovers_evicted_intermediate() {
        use betze_json::{json, JsonPointer};
        use betze_model::{FilterFn, Predicate, Query};

        let dataset = Dataset::new(
            "base",
            (0..40)
                .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
                .collect::<Vec<_>>(),
        );
        let even = Predicate::leaf(FilterFn::BoolEq {
            path: JsonPointer::parse("/even").unwrap(),
            value: true,
        });
        let session = Session {
            queries: vec![
                Query::scan("base").with_filter(even).store_as("mid"),
                Query::scan("mid"),
            ],
            graph: Default::default(),
            moves: Vec::new(),
            seed: 0,
            config_label: "handcrafted".to_owned(),
        };
        // Eviction rate 1: "mid" is dropped the moment it is stored, so
        // query 2 must recover it via lineage replay (the chaos engine
        // evicts each name at most once, so the replayed copy sticks).
        let mut chaos = ChaosEngine::new(JodaSim::new(1), FaultPlan::none(3).evictions(1.0));
        let outcome = expect_ok(
            run_session_with_options(&mut chaos, &dataset, &session, &RunOptions::reference()),
            "eviction run must recover via lineage replay",
        );
        let run = outcome.completed().expect("replay should recover");
        assert_eq!(run.lineage_replays, 1);
        assert_eq!(run.statuses, vec![QueryStatus::Ok, QueryStatus::Retried(1)]);
        // The replayed producer's execution is charged to query 2 (two
        // query executions merged into its report; the producer's scan
        // may be cheaper than cold thanks to JODA's result cache).
        assert_eq!(run.queries[1].counters.queries, 2);
        assert!(run.queries[1].counters.docs_scanned >= 20);
    }

    #[test]
    fn unrecoverable_dependency_is_skipped() {
        use betze_model::Query;
        let w = workload();
        // A query over a dataset nothing produces: lineage replay finds
        // no producer, degrade records SkippedDependencyLost.
        let mut session = w.generation.session.clone();
        session.queries.push(Query::scan("never_stored"));
        let mut joda = JodaSim::new(1);
        let outcome =
            run_session_with_options(&mut joda, &w.dataset, &session, &RunOptions::reference())
                .unwrap();
        match &outcome {
            SessionOutcome::CompletedWithErrors(run) => {
                assert_eq!(
                    run.statuses.last(),
                    Some(&QueryStatus::SkippedDependencyLost {
                        dataset: "never_stored".to_owned()
                    })
                );
                assert_eq!(run.ok_queries(), run.statuses.len() - 1);
            }
            other => panic!("expected CompletedWithErrors, got {other:?}"),
        }
    }

    #[test]
    fn canceled_token_aborts_before_work_starts() {
        let w = workload();
        let mut joda = JodaSim::new(1);
        let token = betze_engines::CancelToken::new();
        token.cancel();
        let options = RunOptions::reference().cancel(token);
        match run_session_with_options(&mut joda, &w.dataset, &w.generation.session, &options) {
            Err(EngineError::Canceled { message }) => assert_eq!(message, "session start"),
            other => panic!("expected Err(Canceled) from a pre-tripped token, got {other:?}"),
        }
    }

    #[test]
    fn deadline_token_cancels_mid_session_even_when_degrading() {
        // An already-expired deadline trips between queries. Cancellation
        // must bypass degradation: governed callers need the Err so the
        // pool can leave the slot empty for resume.
        let w = workload();
        let mut joda = JodaSim::new(1);
        let token = betze_engines::CancelToken::with_deadline(Duration::ZERO);
        // degrade(true) is the default; Canceled must still surface as Err.
        let options = RunOptions::reference().cancel(token.clone());
        match run_session_with_options(&mut joda, &w.dataset, &w.generation.session, &options) {
            Err(EngineError::Canceled { .. }) => {}
            other => panic!("expected Err(Canceled) from an expired deadline, got {other:?}"),
        }
        assert!(token.is_canceled(), "deadline must latch the token");
    }

    #[test]
    fn per_query_budget_times_out_deterministically() {
        let w = workload();
        let mut joda = JodaSim::new(1);
        let clean = expect_ok(
            run_session(&mut joda, &w.dataset, &w.generation.session),
            "clean run",
        );
        // Budget below the slowest query: the first query that exceeds it
        // ends the session as TimedOut, on the modeled (deterministic) clock.
        let slowest = clean.queries.iter().map(|q| q.modeled).max().unwrap();
        let budget = slowest / 2;
        let first_over = clean
            .queries
            .iter()
            .position(|q| q.modeled > budget)
            .expect("some query must exceed half the slowest query's time");
        let options = RunOptions::reference().query_timeout(Some(budget));
        let outcome = expect_ok(
            run_session_with_options(&mut joda, &w.dataset, &w.generation.session, &options),
            "per-query timeout run must not error",
        );
        match outcome {
            SessionOutcome::TimedOut {
                completed_queries,
                partial,
            } => {
                assert_eq!(completed_queries, first_over + 1);
                assert_eq!(partial.queries.len(), first_over + 1);
            }
            other => panic!("expected TimedOut from per-query budget, got {other:?}"),
        }
    }

    #[test]
    fn governed_runner_matches_reference_run() {
        let w = workload();
        let mut a = JodaSim::new(1);
        let mut b = JodaSim::new(1);
        let reference = expect_ok(
            run_session(&mut a, &w.dataset, &w.generation.session),
            "reference run",
        );
        let governed = expect_ok(
            run_session_governed(
                &mut b,
                &w.dataset,
                &w.generation.session,
                betze_engines::CancelToken::new(),
            ),
            "governed run with an inert token",
        );
        assert_eq!(reference.queries.len(), governed.queries.len());
        for (x, y) in reference.queries.iter().zip(&governed.queries) {
            assert_eq!(x.counters, y.counters);
            assert_eq!(x.modeled, y.modeled);
        }
    }
}
