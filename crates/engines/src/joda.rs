//! The JODA-like engine, generic over how predicates are evaluated.

use crate::{
    CancelToken, CostModel, CostProfile, Engine, EngineError, ExecutionReport, QueryOutcome,
    WorkCounters,
};
use betze_json::Value;
use betze_model::{Aggregation, Predicate, Query};
use betze_stats::DatasetAnalysis;
use betze_store::PagedCorpus;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Scans over fewer documents than this run on the calling thread
/// whatever the thread count: spawning would cost more than it saves.
const PARALLEL_MIN_DOCS: usize = 1024;

/// How a [`Joda`] engine decides which documents match a predicate and
/// runs aggregations: an execution *strategy* only. Everything that
/// determines results and charges belongs to the engine, so evaluators
/// that select the same documents are bit-identical by construction.
pub trait Evaluator: Default + fmt::Debug {
    /// The engine's display name, harness short name, and cancellation
    /// message prefix.
    const NAME: &'static str;
    const SHORT_NAME: &'static str;
    const TAG: &'static str = Self::NAME;

    /// A predicate prepared for scanning (a subset of) one dataset,
    /// shared read-only by the scan workers.
    type Plan: Sync;

    fn plan(&mut self, base: &str, predicate: &Predicate) -> Self::Plan;

    /// Appends the documents of `docs` that match, in document order.
    /// Threaded scans call this on a fresh `Self::default()` per worker.
    fn select(
        &mut self,
        plan: &Self::Plan,
        predicate: &Predicate,
        docs: &[Value],
        out: &mut Vec<Value>,
    );

    /// A whole-corpus fast path tried before [`select`](Self::select)
    /// on in-memory scans; `None` declines it.
    fn select_projected(
        &mut self,
        _plan: &Self::Plan,
        _docs: &Arc<Vec<Value>>,
    ) -> Option<Vec<Value>> {
        None
    }

    fn aggregate(&mut self, agg: &Aggregation, docs: &[Value]) -> Vec<Value>;

    /// Dataset lifecycle: `name` was (re-)imported with this analysis;
    /// `store` now holds a result computed over `base`; `name` was
    /// forgotten; every dataset was dropped.
    fn bind_base(&mut self, _name: &str, _analysis: impl FnOnce() -> DatasetAnalysis) {}
    fn bind_stored(&mut self, _base: &str, _store: &str, _transformed: bool) {}
    fn unbind(&mut self, _name: &str) {}
    fn clear(&mut self) {}
}

/// The reference evaluator: [`Predicate::matches`] per document and
/// [`Aggregation::eval`].
#[derive(Debug, Default)]
pub struct TreeWalk;

impl Evaluator for TreeWalk {
    const NAME: &'static str = "JODA";
    const SHORT_NAME: &'static str = "joda";

    type Plan = ();

    fn plan(&mut self, _base: &str, _predicate: &Predicate) {}

    fn select(&mut self, _plan: &(), predicate: &Predicate, docs: &[Value], out: &mut Vec<Value>) {
        out.extend(docs.iter().filter(|d| predicate.matches(d)).cloned());
    }

    fn aggregate(&mut self, agg: &Aggregation, docs: &[Value]) -> Vec<Value> {
        agg.eval(docs)
    }
}

/// The tree-walking JODA simulation (the paper's JODA row).
pub type JodaSim = Joda<TreeWalk>;

/// Where a dataset's documents live.
#[derive(Debug, Clone)]
enum Base {
    /// Parsed documents in memory: imported bases and stored results.
    Ram(Arc<Vec<Value>>),
    /// A sealed `.bcorp` corpus on disk, scanned page-at-a-time.
    Paged(Arc<PagedCorpus>),
}

/// A simulation of JODA (Schäfer & Michel, ICDE 2020): a vertically
/// scalable, in-memory JSON processor.
///
/// Architecture-relevant behaviours reproduced here:
///
/// * **Parse once, keep in memory** — import parses documents into the
///   value model; queries never touch raw text again.
/// * **Multi-threaded scans** — filters run on a configurable number of
///   worker threads (the only engine in the paper that uses more than one
///   core, Fig. 9).
/// * **Intermediate-result reuse** — JODA's Delta Trees make iterative
///   exploratory queries cheap. Here every filtered result is cached by
///   `(base, predicate)`; a query whose predicate *extends* a cached one
///   (the composed-predicate export of §IV-C always has this shape) only
///   evaluates the extension on the cached subset. This is what produces
///   the declining per-query runtimes of Fig. 5. Re-binding a name (an
///   import or a `store_as` over it) drops its entries.
/// * **Eviction mode** (`JodaSim::with_eviction`) — drops parsed data
///   after every query and re-parses from the stored raw text, modeling a
///   memory-constrained deployment (Table II's "JODA memory evicted").
/// * **Out-of-core bases** (`import_paged`) — a sealed `.bcorp` corpus
///   stays on disk and base scans stream it page-at-a-time, so memory is
///   bounded by pages-in-flight instead of corpus size. Every counter
///   charge is identical to the in-RAM path (the work is the same, only
///   its residence differs), so results, counters and modeled times are
///   bit-identical; a corrupt page surfaces as a typed
///   [`EngineError::Storage`] degrading that query, never a wrong answer.
///
/// Which documents match is delegated to the [`Evaluator`] `E`:
/// [`JodaSim`] tree-walks, [`VmEngine`](crate::VmEngine) runs compiled
/// bytecode (DESIGN.md §14).
#[derive(Debug)]
pub struct Joda<E> {
    threads: usize,
    eviction: bool,
    output_enabled: bool,
    cancel: CancelToken,
    datasets: HashMap<String, Base>,
    /// Raw JSON-lines text kept for eviction-mode re-imports.
    raw: HashMap<String, String>,
    /// Delta-Tree-style cache: dataset name → predicate → result.
    cache: HashMap<String, HashMap<String, Arc<Vec<Value>>>>,
    pub(crate) eval: E,
}

impl<E: Evaluator> Joda<E> {
    /// An in-memory engine with the given scan thread count.
    pub fn new(threads: usize) -> Self {
        Joda {
            threads: threads.max(1),
            eviction: false,
            output_enabled: true,
            cancel: CancelToken::new(),
            datasets: HashMap::new(),
            raw: HashMap::new(),
            cache: HashMap::new(),
            eval: E::default(),
        }
    }

    fn report(&self, started: Instant, counters: WorkCounters) -> ExecutionReport {
        let model = CostModel::new(CostProfile::joda(), self.threads);
        ExecutionReport::from_counters(started.elapsed(), counters, &model)
    }

    fn check(&self, what: &str) -> Result<(), EngineError> {
        self.cancel.check(&format!("{} {what}", E::TAG))
    }

    /// Binds `name` to `base`. Results cached under the name's previous
    /// binding no longer describe it, so they go.
    fn bind(&mut self, name: &str, base: Base) {
        self.cache.remove(name);
        self.raw.remove(name);
        self.datasets.insert(name.to_owned(), base);
    }

    /// Multi-threaded filter scan over a document slice. Polls the cancel
    /// token once per scan — composed predicates recurse through
    /// [`filtered`](Self::filtered), so a query polls at every level of
    /// its predicate chain.
    fn scan(
        &mut self,
        base: &str,
        docs: &Arc<Vec<Value>>,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<Vec<Value>, EngineError> {
        self.check("scan")?;
        counters.docs_scanned += docs.len() as u64;
        // Leaf count per doc is an upper bound (short-circuiting evaluates
        // fewer), charged from the predicate as written whatever the
        // evaluator runs: the cost model prices the stated work.
        counters.predicate_evals += predicate.leaf_count() as u64 * docs.len() as u64;
        let plan = self.eval.plan(base, predicate);
        let out = if let Some(out) = self.eval.select_projected(&plan, docs) {
            out
        } else if self.threads <= 1 || docs.len() < PARALLEL_MIN_DOCS {
            let mut out = Vec::new();
            self.eval.select(&plan, predicate, docs, &mut out);
            out
        } else {
            let chunk = docs.len().div_ceil(self.threads);
            let plan = &plan;
            std::thread::scope(|scope| {
                let handles: Vec<_> = docs
                    .chunks(chunk)
                    .map(|part| {
                        scope.spawn(move || {
                            let mut out = Vec::new();
                            E::default().select(plan, predicate, part, &mut out);
                            out
                        })
                    })
                    .collect();
                let mut out = Vec::new();
                for handle in handles {
                    out.extend(handle.join().expect("scan worker panicked"));
                }
                out
            })
        };
        // The filtered set becomes an in-memory intermediate dataset
        // (JODA materializes result sets for reuse).
        counters.docs_materialized += out.len() as u64;
        Ok(out)
    }

    /// A whole-dataset scan, the only one that knows where the base
    /// lives. A disk-resident corpus streams one page's documents at a
    /// time; per-page charges sum to exactly what [`scan`](Self::scan)
    /// charges for the whole corpus, so only the residence of the data
    /// differs. A damaged page aborts the scan with a typed storage
    /// error instead of returning a partial result.
    fn scan_base(
        &mut self,
        name: &str,
        base: &Base,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<Vec<Value>, EngineError> {
        let corpus = match base {
            Base::Ram(docs) => return self.scan(name, docs, predicate, counters),
            Base::Paged(corpus) => corpus,
        };
        let leaves = predicate.leaf_count() as u64;
        let plan = self.eval.plan(name, predicate);
        let mut out = Vec::new();
        for index in 0..corpus.page_count() {
            self.check("scan")?;
            let page = corpus
                .read_page(index)
                .map_err(|e| EngineError::from_store(&e, "scan page"))?;
            counters.docs_scanned += page.docs.len() as u64;
            counters.predicate_evals += leaves * page.docs.len() as u64;
            self.eval.select(&plan, predicate, &page.docs, &mut out);
        }
        counters.docs_materialized += out.len() as u64;
        Ok(out)
    }

    /// Resolves the filtered document set for `(name, predicate)`,
    /// reusing cached intermediate results where possible.
    fn filtered(
        &mut self,
        name: &str,
        base: &Base,
        predicate: &Predicate,
        counters: &mut WorkCounters,
    ) -> Result<Arc<Vec<Value>>, EngineError> {
        if self.eviction {
            return Ok(Arc::new(self.scan_base(name, base, predicate, counters)?));
        }
        let key = predicate.to_string();
        if let Some(hit) = self.cache.get(name).and_then(|entries| entries.get(&key)) {
            counters.cache_hits += 1;
            return Ok(Arc::clone(hit));
        }
        // Composed predicates have the shape And(parent_chain, local):
        // resolve the left side (recursively cacheable), then evaluate
        // only the extension on that in-memory subset.
        let result = Arc::new(if let Predicate::And(left, right) = predicate {
            let parent = self.filtered(name, base, left, counters)?;
            self.scan(name, &parent, right, counters)?
        } else {
            self.scan_base(name, base, predicate, counters)?
        });
        self.cache
            .entry(name.to_owned())
            .or_default()
            .insert(key, Arc::clone(&result));
        Ok(result)
    }
}

impl Joda<TreeWalk> {
    /// JODA in memory-eviction mode: parsed data is dropped after each
    /// query and re-read from the raw text, "just as the other systems
    /// have to" (paper §VI-B).
    pub fn with_eviction(threads: usize) -> Self {
        JodaSim {
            eviction: true,
            ..JodaSim::new(threads)
        }
    }

    /// Whether eviction mode is enabled.
    pub fn eviction(&self) -> bool {
        self.eviction
    }
}

impl<E: Evaluator> Engine for Joda<E> {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn short_name(&self) -> &'static str {
        E::SHORT_NAME
    }

    fn import(&mut self, name: &str, docs: &[Value]) -> Result<ExecutionReport, EngineError> {
        self.check("import")?;
        let started = Instant::now();
        let mut counters = WorkCounters::default();
        let text = betze_json::to_json_lines(docs);
        counters.import_docs = docs.len() as u64;
        counters.import_bytes = text.len() as u64;
        // Import parses the raw text into memory — that is the work the
        // import phase consists of for an in-memory system.
        let parsed = betze_json::parse_many(&text).map_err(|e| EngineError::ImportFailed {
            name: name.to_owned(),
            message: format!("parse failed: {e}"),
        })?;
        self.eval
            .bind_base(name, || betze_stats::analyze(name, &parsed));
        self.bind(name, Base::Ram(Arc::new(parsed)));
        if self.eviction {
            self.raw.insert(name.to_owned(), text);
        }
        Ok(self.report(started, counters))
    }

    fn import_paged(&mut self, corpus: &Arc<PagedCorpus>) -> Result<ExecutionReport, EngineError> {
        self.check("import")?;
        let started = Instant::now();
        // The footer's document and JSON-lines byte counts, and its
        // analysis, are bit-identical to what the in-RAM import computes.
        let counters = WorkCounters {
            import_docs: corpus.doc_count(),
            import_bytes: corpus.json_bytes(),
            ..Default::default()
        };
        let name = corpus.name();
        self.eval.bind_base(name, || corpus.analysis().clone());
        self.bind(name, Base::Paged(Arc::clone(corpus)));
        Ok(self.report(started, counters))
    }

    fn execute(&mut self, query: &Query) -> Result<QueryOutcome, EngineError> {
        self.check("execute")?;
        let started = Instant::now();
        let mut counters = WorkCounters {
            queries: 1,
            ..Default::default()
        };
        // Eviction mode re-reads the raw data before every query. A
        // disk-resident base is re-read from its pages during the scan
        // itself; the re-parse work is byte-for-byte the same, so the
        // charge is the same.
        if self.eviction {
            if let Some(text) = self.raw.get(&query.base) {
                counters.bytes_parsed += text.len() as u64;
                let parsed = betze_json::parse_many(text).map_err(|e| EngineError::Storage {
                    message: format!("re-import parse failed: {e}"),
                })?;
                self.datasets
                    .insert(query.base.clone(), Base::Ram(Arc::new(parsed)));
            } else if let Some(Base::Paged(corpus)) = self.datasets.get(&query.base) {
                counters.bytes_parsed += corpus.json_bytes();
            }
        }

        let Some(base) = self.datasets.get(&query.base).cloned() else {
            return Err(EngineError::UnknownDataset {
                name: query.base.clone(),
            });
        };
        let filtered = match (&query.filter, base) {
            (Some(predicate), base) => {
                self.filtered(&query.base, &base, predicate, &mut counters)?
            }
            (None, Base::Ram(docs)) => {
                counters.docs_scanned += docs.len() as u64;
                docs
            }
            // An unfiltered query's result *is* the whole corpus —
            // materializing it is inherent to the query, not to the
            // storage path, and the charge matches the RAM path.
            (None, Base::Paged(corpus)) => {
                counters.docs_scanned += corpus.doc_count();
                Arc::new(
                    corpus
                        .materialize()
                        .map_err(|e| EngineError::from_store(&e, "materialize corpus"))?,
                )
            }
        };

        // Transformations (§VII) change the result documents — and hence
        // the stored intermediate dataset.
        let result: Arc<Vec<Value>> = if query.transforms.is_empty() {
            filtered
        } else {
            let mut transformed = filtered.as_ref().clone();
            counters.transform_ops += (transformed.len() * query.transforms.len()) as u64;
            betze_model::apply_all(&query.transforms, &mut transformed);
            Arc::new(transformed)
        };

        if let Some(store) = &query.store_as {
            self.eval
                .bind_stored(&query.base, store, !query.transforms.is_empty());
            self.bind(store, Base::Ram(Arc::clone(&result)));
        }

        let docs: Vec<Value> = match &query.aggregation {
            Some(agg) => self.eval.aggregate(agg, &result),
            None => result.as_ref().clone(),
        };
        if self.output_enabled {
            counters.docs_output += docs.len() as u64;
            counters.bytes_output += docs.iter().map(|d| d.approx_size() as u64).sum::<u64>();
        }

        // Eviction: drop the parsed base again.
        if self.eviction {
            if self.raw.contains_key(&query.base) {
                self.datasets.remove(&query.base);
            }
            self.cache.clear();
        }

        Ok(QueryOutcome {
            docs,
            report: self.report(started, counters),
        })
    }

    fn forget(&mut self, name: &str) -> bool {
        self.raw.remove(name);
        self.cache.remove(name);
        self.eval.unbind(name);
        self.datasets.remove(name).is_some()
    }

    fn reset(&mut self) {
        self.datasets.clear();
        self.raw.clear();
        self.cache.clear();
        self.eval.clear();
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn set_cancel(&mut self, token: Option<CancelToken>) {
        self.cancel = token.unwrap_or_default();
    }

    fn set_output_enabled(&mut self, on: bool) {
        self.output_enabled = on;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use betze_json::{json, JsonPointer};
    use betze_model::FilterFn;

    fn ptr(s: &str) -> JsonPointer {
        JsonPointer::parse(s).unwrap()
    }

    fn docs() -> Vec<Value> {
        (0..100)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect()
    }

    fn even() -> Predicate {
        Predicate::leaf(FilterFn::BoolEq {
            path: ptr("/even"),
            value: true,
        })
    }

    fn small() -> Predicate {
        Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: betze_model::Comparison::Lt,
            value: 10.0,
        })
    }

    #[test]
    fn executes_filters_correctly() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let out = joda.execute(&q).unwrap();
        assert_eq!(out.docs.len(), 50);
        assert_eq!(out.docs, q.eval(&docs()));
        assert_eq!(out.report.counters.docs_scanned, 100);
    }

    #[test]
    fn unknown_dataset_errors() {
        let mut joda = JodaSim::new(1);
        assert!(matches!(
            joda.execute(&Query::scan("missing")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    #[test]
    fn composed_predicates_reuse_cached_prefixes() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q1 = Query::scan("t").with_filter(even());
        let r1 = joda.execute(&q1).unwrap();
        assert_eq!(r1.report.counters.docs_scanned, 100);
        // Extension: even AND n < 10 — must scan only the 50 cached docs.
        let q2 = Query::scan("t").with_filter(even().and(small()));
        let r2 = joda.execute(&q2).unwrap();
        assert_eq!(r2.docs.len(), 5);
        assert_eq!(
            r2.report.counters.docs_scanned, 50,
            "extension must scan the cached subset only"
        );
        assert_eq!(r2.report.counters.cache_hits, 1);
        // Re-running q2 is a pure cache hit.
        let r3 = joda.execute(&q2).unwrap();
        assert_eq!(r3.report.counters.docs_scanned, 0);
        assert!(r3.report.counters.cache_hits >= 1);
        assert_eq!(r3.docs, r2.docs);
    }

    #[test]
    fn multithreaded_scan_matches_single_threaded() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let mut joda1 = JodaSim::new(1);
        let mut joda4 = JodaSim::new(4);
        joda1.import("t", &many).unwrap();
        joda4.import("t", &many).unwrap();
        assert_eq!(joda4.threads(), 4);
        let q = Query::scan("t").with_filter(even());
        let a = joda1.execute(&q).unwrap();
        let b = joda4.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(
            a.report.counters.docs_scanned,
            b.report.counters.docs_scanned
        );
        // Modeled time shrinks with threads.
        assert!(b.report.modeled < a.report.modeled);
    }

    #[test]
    fn eviction_mode_reparses_every_query() {
        let mut joda = JodaSim::with_eviction(1);
        assert!(joda.eviction());
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let r1 = joda.execute(&q).unwrap();
        assert!(
            r1.report.counters.bytes_parsed > 0,
            "must re-parse raw data"
        );
        let r2 = joda.execute(&q).unwrap();
        assert_eq!(
            r2.report.counters.cache_hits, 0,
            "eviction disables the cache"
        );
        assert!(r2.report.counters.bytes_parsed > 0);
        assert_eq!(r1.docs, r2.docs);
    }

    #[test]
    fn eviction_mode_keeps_a_store_over_the_base_name() {
        // Rebinding the imported name to a stored result retires its raw
        // text: later queries read the stored result, not a re-parse.
        let mut joda = JodaSim::with_eviction(1);
        joda.import("t", &docs()).unwrap();
        let store = Query::scan("t").with_filter(even()).store_as("t");
        joda.execute(&store).unwrap();
        let out = joda.execute(&Query::scan("t")).unwrap();
        assert_eq!(out.docs.len(), 50);
        assert_eq!(out.report.counters.bytes_parsed, 0);
    }

    #[test]
    fn store_as_creates_named_dataset() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even()).store_as("evens");
        joda.execute(&q).unwrap();
        let q2 = Query::scan("evens").with_filter(small());
        let out = joda.execute(&q2).unwrap();
        assert_eq!(out.docs.len(), 5);
        assert!(joda.forget("evens"));
        assert!(!joda.forget("evens"));
    }

    #[test]
    fn aggregation_outputs_single_document() {
        use betze_model::{AggFunc, Aggregation};
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        let q = Query::scan("t")
            .with_filter(even())
            .with_aggregation(Aggregation::new(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                "count",
            ));
        let out = joda.execute(&q).unwrap();
        assert_eq!(out.docs, vec![json!({ "count": 50usize })]);
        assert_eq!(out.report.counters.docs_output, 1);
    }

    #[test]
    fn import_counts_bytes_and_docs() {
        let mut joda = JodaSim::new(1);
        let report = joda.import("t", &docs()).unwrap();
        assert_eq!(report.counters.import_docs, 100);
        assert!(report.counters.import_bytes > 1000);
        assert!(report.modeled > std::time::Duration::ZERO);
    }

    #[test]
    fn reset_clears_everything() {
        let mut joda = JodaSim::new(1);
        joda.import("t", &docs()).unwrap();
        joda.execute(&Query::scan("t").with_filter(even())).unwrap();
        joda.reset();
        assert!(matches!(
            joda.execute(&Query::scan("t")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    /// Emits `docs` as a sealed `.bcorp` named "t" and opens it.
    fn emit_corpus(tag: &str, docs: &[Value]) -> (std::path::PathBuf, Arc<PagedCorpus>) {
        let dir = std::env::temp_dir().join(format!("betze-joda-paged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}.bcorp"));
        let mut writer = betze_store::CorpusWriter::create(&path, "t", 4096).unwrap();
        for doc in docs {
            writer.append(doc.clone()).unwrap();
        }
        writer.seal().unwrap();
        let corpus = Arc::new(PagedCorpus::open(&path).unwrap());
        (path, corpus)
    }

    #[test]
    fn paged_base_is_bit_identical_to_ram() {
        use betze_model::{AggFunc, Aggregation};
        let data = docs();
        let (path, corpus) = emit_corpus("identical", &data);
        assert!(corpus.page_count() > 1, "corpus must actually be paged");
        let mut ram = JodaSim::new(1);
        let mut disk = JodaSim::new(1);
        let ri = ram.import("t", &data).unwrap();
        let di = disk.import_paged(&corpus).unwrap();
        assert_eq!(ri.counters, di.counters);
        assert_eq!(ri.modeled, di.modeled);
        let queries = vec![
            Query::scan("t").with_filter(even()),
            Query::scan("t")
                .with_filter(even().and(small()))
                .store_as("es"),
            Query::scan("es").with_aggregation(Aggregation::new(
                AggFunc::Count {
                    path: JsonPointer::root(),
                },
                "count",
            )),
            Query::scan("t"),
        ];
        for q in &queries {
            let a = ram.execute(q).unwrap();
            let b = disk.execute(q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
        assert!(disk.forget("t"));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn paged_eviction_mode_charges_the_same_reparse() {
        let data = docs();
        let (path, corpus) = emit_corpus("evict", &data);
        let mut ram = JodaSim::with_eviction(1);
        let mut disk = JodaSim::with_eviction(1);
        ram.import("t", &data).unwrap();
        disk.import_paged(&corpus).unwrap();
        let q = Query::scan("t").with_filter(even());
        for _ in 0..2 {
            let a = ram.execute(&q).unwrap();
            let b = disk.execute(&q).unwrap();
            assert!(b.report.counters.bytes_parsed > 0, "must charge re-read");
            assert_eq!(a.docs, b.docs);
            assert_eq!(a.report.counters, b.report.counters);
            assert_eq!(a.report.modeled, b.report.modeled);
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_page_degrades_the_query_to_typed_storage() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("flip", &docs());
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(7).bit_flips(1.0)));
        let mut joda = JodaSim::new(1);
        joda.import_paged(&Arc::new(corpus)).unwrap();
        let err = joda
            .execute(&Query::scan("t").with_filter(even()))
            .unwrap_err();
        assert!(matches!(err, EngineError::Storage { .. }), "got {err:?}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn short_read_is_transient_and_worth_a_retry() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("short", &docs());
        // Every read hiccups: the query fails with a retryable fault.
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(3).short_reads(1.0)));
        let mut joda = JodaSim::new(1);
        joda.import_paged(&Arc::new(corpus)).unwrap();
        let q = Query::scan("t").with_filter(even());
        let err = joda.execute(&q).unwrap_err();
        assert!(err.is_transient(), "got {err:?}");
        assert!(err.attempt_hint() >= 1);
        // The disk recovers (chaos-free reopen): the retried query
        // succeeds — transient really did mean "worth retrying".
        let healthy = Arc::new(PagedCorpus::open(&path).unwrap());
        joda.import_paged(&healthy).unwrap();
        assert_eq!(joda.execute(&q).unwrap().docs.len(), 50);
        let _ = std::fs::remove_file(path);
    }
}
