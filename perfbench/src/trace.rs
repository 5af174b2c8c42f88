//! Spans recorded from outside the program: timing decorators over the
//! public `SelectivityBackend` and `Engine` traits, in the way
//! `ChaosEngine` wraps an engine, plus spans the workloads open around
//! their own calls into each crate.
//!
//! Spans stay in memory; the workload aggregates them when the run
//! ends. With tracing off, [`Trace::enter`] records nothing and the
//! decorators only keep what the correctness gate needs.

use crate::measure;
use betze::engines::{Engine, EngineError, ExecutionReport, QueryOutcome, WorkCounters};
use betze::generator::SelectivityBackend;
use betze::json::Value;
use betze::model::{DatasetId, Predicate, Query, Transform};
use betze::stats::DatasetAnalysis;
use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`generator.verify`, `engines.execute`, …).
    pub name: &'static str,
    /// Engine leg index for engine spans, else `None`.
    pub leg: Option<usize>,
    /// Start, in nanoseconds since the trace origin.
    pub start: u64,
    /// End, in nanoseconds since the trace origin.
    pub end: u64,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Trace {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Handle to an open span (`None` when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Trace {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Trace {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&self, name: &'static str, leg: Option<usize>) -> Open {
        if !self.on {
            return Open(None);
        }
        let mut open = self.open.borrow_mut();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            leg,
            start: self.now(),
            end: 0,
            parent: open.last().copied(),
        });
        open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter).
    pub fn exit(&self, span: Open) {
        let Some(id) = span.0 else { return };
        let end = self.now();
        let mut open = self.open.borrow_mut();
        assert_eq!(open.pop(), Some(id), "spans must close innermost first");
        self.spans.borrow_mut()[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, None);
        let out = f();
        self.exit(open);
        out
    }

    /// Count and summed duration (ns) of the spans named `name` (and on
    /// `leg`, when given).
    pub fn total(&self, name: &str, leg: Option<usize>) -> (u64, u64) {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name && (leg.is_none() || s.leg == leg))
            .fold((0, 0), |(n, t), s| (n + 1, t + s.nanos()))
    }

    /// Summed self time (ns) of the spans named `name`: each span minus
    /// the union of its direct children's intervals.
    pub fn self_total(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| measure::self_time((s.start, s.end), &children[i]))
            .sum()
    }
}

/// Per-call facts the generator decorator keeps for the layer metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendCounts {
    /// `count_matching` calls.
    pub verify_calls: u64,
    /// Documents those calls were asked to scan (target sizes).
    pub docs_verified: u64,
}

/// A timing decorator over any [`SelectivityBackend`]: verification
/// (`count_matching`), derivation (`register_derived`) and derived
/// re-analysis (`analyze`) each become a span.
pub struct TimedBackend<'t, B> {
    inner: B,
    trace: &'t Trace,
    counts: BackendCounts,
}

impl<'t, B: SelectivityBackend> TimedBackend<'t, B> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: B, trace: &'t Trace) -> Self {
        TimedBackend {
            inner,
            trace,
            counts: BackendCounts::default(),
        }
    }

    /// What the decorator counted.
    pub fn counts(&self) -> BackendCounts {
        self.counts
    }
}

impl<B: SelectivityBackend> SelectivityBackend for TimedBackend<'_, B> {
    fn dataset_size(&mut self, id: DatasetId) -> usize {
        self.inner.dataset_size(id)
    }

    fn count_matching(&mut self, id: DatasetId, predicate: &Predicate) -> usize {
        if self.trace.is_on() {
            self.counts.verify_calls += 1;
            self.counts.docs_verified += self.inner.dataset_size(id) as u64;
        }
        let open = self.trace.enter("generator.verify", None);
        let n = self.inner.count_matching(id, predicate);
        self.trace.exit(open);
        n
    }

    fn register_derived(
        &mut self,
        parent: DatasetId,
        id: DatasetId,
        predicate: &Predicate,
        transforms: &[Transform],
    ) {
        let open = self.trace.enter("generator.derive", None);
        self.inner
            .register_derived(parent, id, predicate, transforms);
        self.trace.exit(open);
    }

    fn analyze(&mut self, id: DatasetId, name: &str) -> Option<DatasetAnalysis> {
        let open = self.trace.enter("stats.reanalyze", None);
        let analysis = self.inner.analyze(id, name);
        self.trace.exit(open);
        analysis
    }
}

/// What one `execute` call produced, as the correctness gate and the
/// latency metrics need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Executed {
    /// Host wall time of the call, measured around it.
    pub wall: Duration,
    /// Result documents returned (`None` if the call failed).
    pub cardinality: Option<usize>,
    /// The engine's own report (`None` if the call failed).
    pub counters: Option<WorkCounters>,
    /// Modeled time of the call (`None` if the call failed).
    pub modeled: Option<Duration>,
}

/// A timing decorator over any [`Engine`]. Every `execute` call is
/// timed (it is one op of the `execute` workload) and its result size
/// and work counters are kept for the correctness gate; with tracing
/// on, `import` and `execute` also become spans tagged with the leg.
pub struct TimedEngine<'t, E> {
    inner: E,
    leg: usize,
    trace: &'t Trace,
    executed: Vec<Executed>,
}

impl<'t, E: Engine> TimedEngine<'t, E> {
    /// Wraps `inner` as leg number `leg`.
    pub fn new(inner: E, leg: usize, trace: &'t Trace) -> Self {
        TimedEngine {
            inner,
            leg,
            trace,
            executed: Vec::new(),
        }
    }

    /// Takes the `execute` calls recorded since the last take.
    pub fn take(&mut self) -> Vec<Executed> {
        std::mem::take(&mut self.executed)
    }
}

impl<E: Engine> Engine for TimedEngine<'_, E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn short_name(&self) -> &'static str {
        self.inner.short_name()
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        let open = self.trace.enter("engines.import", Some(self.leg));
        let result = self.inner.import(name, docs);
        self.trace.exit(open);
        result
    }

    fn import_paged(
        &mut self,
        corpus: &Arc<betze::store::PagedCorpus>,
    ) -> Result<ExecutionReport, EngineError> {
        let open = self.trace.enter("engines.import", Some(self.leg));
        let result = self.inner.import_paged(corpus);
        self.trace.exit(open);
        result
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        let open = self.trace.enter("engines.execute", Some(self.leg));
        let started = Instant::now();
        let result = self.inner.execute(query);
        let wall = started.elapsed();
        self.trace.exit(open);
        let ok = result.as_ref().ok();
        self.executed.push(Executed {
            wall,
            cardinality: ok.map(|o| o.docs.len()),
            counters: ok.map(|o| o.report.counters),
            modeled: ok.map(|o| o.report.modeled),
        });
        result
    }

    fn forget(&mut self, name: &str) -> bool {
        self.inner.forget(name)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn threads(&self) -> usize {
        self.inner.threads()
    }

    fn set_threads(&mut self, threads: usize) {
        self.inner.set_threads(threads);
    }

    fn set_cancel(&mut self, token: Option<betze::engines::CancelToken>) {
        self.inner.set_cancel(token);
    }

    fn set_output_enabled(&mut self, on: bool) {
        self.inner.set_output_enabled(on);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let trace = Trace::new(true);
        trace.span("outer", || {
            trace.span("inner", || std::thread::sleep(Duration::from_millis(20)));
        });
        let (n, outer) = trace.total("outer", None);
        let (_, inner) = trace.total("inner", None);
        assert_eq!(n, 1);
        assert!(inner >= 20_000_000);
        assert_eq!(trace.self_total("outer"), outer - inner);
    }

    #[test]
    fn an_off_trace_records_nothing() {
        let trace = Trace::new(false);
        trace.span("outer", || ());
        assert_eq!(trace.total("outer", None), (0, 0));
    }
}
