//! The bytecode evaluator (DESIGN.md §14–15).
//!
//! [`VmEngine`] is the [`Joda`] engine with the [`Bytecode`] evaluator:
//! scans run compiled betze-vm programs over document batches instead
//! of tree-walking the predicate per document, and corpora scanned
//! repeatedly are shredded into a columnar [`Projection`] on their
//! second scan. Everything that determines results and charges lives in
//! [`Joda`], so the engine is bit-identical to
//! [`JodaSim`](crate::JodaSim) by construction; the differential oracle
//! in `tests/tests/vm.rs` checks that both evaluators select the same
//! documents.
//!
//! Programs are built by the verified optimizer from per-arm
//! selectivity facts (`betze_lint::vm_arm_facts`) over the base
//! corpus's analysis, unless [`VmEngine::set_optimize`] (CLI
//! `--no-vm-opt`) asks for plain compilation. Predicates whose register
//! pressure exceeds [`betze_vm::REGISTER_BUDGET`] even after
//! optimization tree-walk instead (lint rules L049 and L052).

use crate::joda::{Evaluator, Joda};
use betze_json::Value;
use betze_lint::vm_arm_facts;
use betze_model::{Aggregation, Predicate};
use betze_stats::DatasetAnalysis;
use betze_vm::{ArmFacts, CompiledAggregation, Program, Projection, VmScratch};
use std::collections::HashMap;
use std::sync::Arc;

/// Documents per executor batch: large enough to amortize the dispatch
/// loop, small enough that register columns stay cache-resident.
const BATCH: usize = 4096;

/// Corpora smaller than this are never worth shredding: the projection
/// build is itself about one scan's worth of work.
const MIN_PROJECTED_DOCS: usize = 64;

/// Upper bound on total shredded cells (16 bytes each) cached across all
/// corpora; past it, projections are built, used once, and dropped.
const MAX_PROJECTED_CELLS: usize = 32 << 20;

/// JODA's engine with predicate scans compiled to register bytecode and
/// executed vectorized (DESIGN.md §14).
pub type VmEngine = Joda<Bytecode>;

impl VmEngine {
    /// Enables or disables the verified optimizer (CLI `--no-vm-opt`).
    /// Clears the program cache: cached entries were built under the
    /// other setting.
    pub fn set_optimize(&mut self, on: bool) {
        if self.eval.plain == on {
            self.eval.plain = !on;
            for binding in self.eval.bindings.values_mut() {
                binding.programs.clear();
            }
        }
    }

    /// Whether the optimizer is enabled.
    pub fn optimize_enabled(&self) -> bool {
        !self.eval.plain
    }
}

/// The bytecode [`Evaluator`]: compiled, optionally optimized register
/// programs, run batched or over a cached columnar projection.
#[derive(Debug, Default)]
pub struct Bytecode {
    /// Plain compilation; by default predicates run through the
    /// verified optimizer.
    plain: bool,
    /// Per dataset name; rebinding the name starts afresh.
    bindings: HashMap<String, Binding>,
    /// Compiled aggregations by display form.
    aggs: HashMap<String, Arc<CompiledAggregation>>,
    /// Reused execution state (allocation-free steady state).
    scratch: VmScratch,
    matched: Vec<u32>,
    /// Shredded-corpus cache keyed by the scanned `Arc`'s address. The
    /// entry holds the `Arc`, so an address cannot be recycled while its
    /// projection is cached.
    projections: HashMap<usize, (Arc<Vec<Value>>, Arc<Projection>)>,
    /// Scans observed per corpus address; a projection is built on the
    /// second scan (a corpus scanned once gains nothing from shredding).
    scan_seen: HashMap<usize, u32>,
    /// Cells currently held by `projections`, bounded by
    /// [`MAX_PROJECTED_CELLS`].
    projected_cells: usize,
}

/// What the evaluator knows about one dataset name.
#[derive(Debug, Default)]
struct Binding {
    /// The base-corpus analysis: computed at import, propagated through
    /// untransformed `store_as`, absent after transforms (facts would no
    /// longer be sound).
    analysis: Option<Arc<DatasetAnalysis>>,
    /// Compiled programs by predicate, built under `analysis`. `None`
    /// marks a tree that exceeded the register budget even after
    /// optimization (tree-walk fallback).
    programs: HashMap<String, Arc<Option<Program>>>,
}

impl Bytecode {
    /// Returns a projection of the corpus if it has earned one: the
    /// build costs about one tree-walk scan, so it happens on the
    /// *second* scan of the same `Arc` — the repeated-scan shape of
    /// session workloads (base datasets and hot cached prefixes).
    fn projection_for(&mut self, docs: &Arc<Vec<Value>>) -> Option<Arc<Projection>> {
        if docs.len() < MIN_PROJECTED_DOCS {
            return None;
        }
        let key = Arc::as_ptr(docs) as usize;
        if let Some((_, proj)) = self.projections.get(&key) {
            return Some(Arc::clone(proj));
        }
        let seen = self.scan_seen.entry(key).or_insert(0);
        *seen += 1;
        if *seen < 2 {
            return None;
        }
        // `build` is None for corpora too structurally diverse to shred
        // densely; those keep tree-order execution forever.
        let proj = Arc::new(Projection::build(docs)?);
        self.scan_seen.remove(&key);
        let (nodes, lanes, _) = proj.stats();
        let cells = nodes * lanes;
        if self.projected_cells + cells <= MAX_PROJECTED_CELLS {
            self.projected_cells += cells;
            self.projections
                .insert(key, (Arc::clone(docs), Arc::clone(&proj)));
        }
        Some(proj)
    }

    /// Drops every projection. Conservative: dropped corpora would
    /// otherwise be pinned by their cached projections; survivors
    /// re-shred on their next repeat scan.
    fn drop_projections(&mut self) {
        self.projections.clear();
        self.scan_seen.clear();
        self.projected_cells = 0;
    }
}

impl Evaluator for Bytecode {
    const NAME: &'static str = "JODA-VM";
    const SHORT_NAME: &'static str = "vm";
    const TAG: &'static str = "VM";

    type Plan = Arc<Option<Program>>;

    /// Builds (or recalls) the program for a predicate scanned over (a
    /// subset of) `base`'s corpus; matches-none/matches-all facts
    /// survive taking subsets. Optimization errors degrade to plain
    /// compilation, never to a miscompiled program.
    fn plan(&mut self, base: &str, predicate: &Predicate) -> Arc<Option<Program>> {
        let key = predicate.to_string();
        let binding = self.bindings.entry(base.to_owned()).or_default();
        if let Some(hit) = binding.programs.get(&key) {
            return Arc::clone(hit);
        }
        let program = if self.plain {
            betze_vm::compile(predicate).ok()
        } else {
            let facts = binding
                .analysis
                .as_deref()
                .map(|a| vm_arm_facts(predicate, a))
                .unwrap_or_else(ArmFacts::none);
            match betze_vm::optimize(predicate, &facts) {
                Ok(optimized) => Some(optimized.program),
                Err(_) => betze_vm::compile(predicate).ok(),
            }
        };
        let program = Arc::new(program);
        binding.programs.insert(key, Arc::clone(&program));
        program
    }

    fn select(
        &mut self,
        plan: &Arc<Option<Program>>,
        predicate: &Predicate,
        docs: &[Value],
        out: &mut Vec<Value>,
    ) {
        match plan.as_ref() {
            Some(prog) => {
                for (i, batch) in docs.chunks(BATCH).enumerate() {
                    let base = i * BATCH;
                    prog.run(batch, &mut self.scratch, &mut self.matched);
                    out.extend(
                        self.matched
                            .iter()
                            .map(|&lane| docs[base + lane as usize].clone()),
                    );
                }
            }
            // Register budget exceeded: tree-walk this scan.
            None => out.extend(docs.iter().filter(|d| predicate.matches(d)).cloned()),
        }
    }

    /// Serves projectable programs from the corpus's projection once it
    /// has earned one. Pages never do: each page's documents live for
    /// one batch, so there is no repeated scan of the same allocation
    /// to amortize a shred against.
    fn select_projected(
        &mut self,
        plan: &Arc<Option<Program>>,
        docs: &Arc<Vec<Value>>,
    ) -> Option<Vec<Value>> {
        let prog = plan.as_ref().as_ref().filter(|p| p.is_projectable())?;
        let proj = self.projection_for(docs)?;
        prog.run_projected(&proj, &mut self.scratch, &mut self.matched);
        Some(
            self.matched
                .iter()
                .map(|&lane| docs[lane as usize].clone())
                .collect(),
        )
    }

    fn aggregate(&mut self, agg: &Aggregation, docs: &[Value]) -> Vec<Value> {
        let key = agg.to_string();
        let compiled = self
            .aggs
            .entry(key)
            .or_insert_with(|| Arc::new(CompiledAggregation::compile(agg)));
        compiled.eval(docs)
    }

    /// Analyzes once per import; the optimizer derives selectivity facts
    /// from this.
    fn bind_base(&mut self, name: &str, analysis: impl FnOnce() -> DatasetAnalysis) {
        let analysis = Some(Arc::new(analysis()));
        self.bindings.insert(
            name.to_owned(),
            Binding {
                analysis,
                ..Default::default()
            },
        );
    }

    /// An untransformed store is a subset of its base corpus, so the
    /// base analysis stays sound for it; any transform could move values
    /// outside the proven bounds, so it is dropped.
    fn bind_stored(&mut self, base: &str, store: &str, transformed: bool) {
        let analysis = match self.bindings.get(base) {
            Some(binding) if !transformed => binding.analysis.clone(),
            _ => None,
        };
        self.bindings.insert(
            store.to_owned(),
            Binding {
                analysis,
                ..Default::default()
            },
        );
    }

    fn unbind(&mut self, name: &str) {
        self.bindings.remove(name);
        self.drop_projections();
    }

    /// Aggregations are pure functions of the IR and stay compiled.
    fn clear(&mut self) {
        self.bindings.clear();
        self.drop_projections();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineError, JodaSim};
    use betze_json::{json, JsonPointer};
    use betze_model::Query;
    use betze_model::{Comparison, FilterFn};
    use betze_store::PagedCorpus;

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
            op: Comparison::Lt,
            value: 10.0,
        })
    }

    /// Runs the same query sequence on both engines and asserts equal
    /// docs, counters, and modeled times (wall time necessarily differs).
    fn assert_identical(queries: &[Query], docs: &[Value]) {
        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        let ji = joda.import("t", docs).unwrap();
        let vi = vm.import("t", docs).unwrap();
        assert_eq!(ji.counters, vi.counters);
        assert_eq!(ji.modeled, vi.modeled);
        for q in queries {
            let a = joda.execute(q).unwrap();
            let b = vm.execute(q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
    }

    #[test]
    fn executes_filters_correctly() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even());
        let out = vm.execute(&q).unwrap();
        assert_eq!(out.docs.len(), 50);
        assert_eq!(out.docs, q.eval(&docs()));
        assert_eq!(out.report.counters.docs_scanned, 100);
    }

    #[test]
    fn composed_predicates_reuse_cached_prefixes_like_joda() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q1 = Query::scan("t").with_filter(even());
        let r1 = vm.execute(&q1).unwrap();
        assert_eq!(r1.report.counters.docs_scanned, 100);
        let q2 = Query::scan("t").with_filter(even().and(small()));
        let r2 = vm.execute(&q2).unwrap();
        assert_eq!(r2.docs.len(), 5);
        assert_eq!(
            r2.report.counters.docs_scanned, 50,
            "extension must scan the cached subset only"
        );
        assert_eq!(r2.report.counters.cache_hits, 1);
        let r3 = vm.execute(&q2).unwrap();
        assert_eq!(r3.report.counters.docs_scanned, 0);
        assert_eq!(r3.docs, r2.docs);
    }

    #[test]
    fn query_sequence_is_bit_identical_to_joda() {
        use betze_model::{AggFunc, Aggregation};
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
            Query::scan("t")
                .with_filter(even().or(small()))
                .with_aggregation(Aggregation::grouped(
                    AggFunc::Sum { path: ptr("/n") },
                    ptr("/even"),
                    "total",
                )),
        ];
        assert_identical(&queries, &docs());
    }

    #[test]
    fn multithreaded_scan_is_bit_identical_to_joda() {
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let mut joda = JodaSim::new(4);
        let mut vm = VmEngine::new(4);
        joda.import("t", &many).unwrap();
        vm.import("t", &many).unwrap();
        let q = Query::scan("t").with_filter(even());
        let a = joda.execute(&q).unwrap();
        let b = vm.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.modeled, b.report.modeled);
    }

    #[test]
    fn repeat_scans_cross_the_projection_threshold_bit_identically() {
        // Scans 1–2 of the base corpus run unprojected, the second scan
        // triggers the shred, and every later scan serves from the
        // cached projection — all three regimes must match JodaSim.
        let preds = [
            even(),
            small(),
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Ge,
                value: 50.0,
            }),
            Predicate::leaf(FilterFn::BoolEq {
                path: ptr("/even"),
                value: false,
            }),
            Predicate::leaf(FilterFn::IntEq {
                path: ptr("/n"),
                value: 7,
            }),
        ];
        let queries: Vec<Query> = preds
            .iter()
            .map(|p| Query::scan("t").with_filter(p.clone()))
            .collect();
        assert_identical(&queries, &docs());
    }

    #[test]
    fn projection_cache_is_keyed_by_corpus_identity() {
        // Two datasets with different contents must not share shredded
        // columns, and forgetting one must not corrupt the other.
        let a: Vec<Value> = (0..100).map(|i| json!({ "n": (i as i64) })).collect();
        let b: Vec<Value> = (0..100).map(|i| json!({ "n": (i as i64 + 50) })).collect();
        let mut vm = VmEngine::new(1);
        vm.import("a", &a).unwrap();
        vm.import("b", &b).unwrap();
        let q = |base: &str, lt: f64| {
            Query::scan(base).with_filter(Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Lt,
                value: lt,
            }))
        };
        for lt in [10.0, 20.0, 30.0] {
            assert_eq!(vm.execute(&q("a", lt)).unwrap().docs.len(), lt as usize);
            assert_eq!(
                vm.execute(&q("b", lt)).unwrap().docs.len(),
                (lt as usize).saturating_sub(50)
            );
        }
        assert!(vm.forget("a"));
        assert_eq!(vm.execute(&q("b", 60.0)).unwrap().docs.len(), 10);
    }

    #[test]
    fn register_budget_fallback_still_executes_correctly() {
        // A right-deep 17-leaf chain exceeds the budget as written. With
        // the optimizer on (the default), reassociation rebuilds it
        // left-deep and the engine compiles it; with the optimizer off,
        // the engine falls back to tree-walking. Both regimes must be
        // bit-identical to JodaSim.
        let mut deep = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Ge,
            value: 0.0,
        });
        for i in 0..16 {
            deep = Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Lt,
                value: (100 - i) as f64,
            })
            .and(deep);
        }
        assert!(betze_vm::register_pressure(&deep) > betze_vm::REGISTER_BUDGET);
        let q = Query::scan("t").with_filter(deep);
        assert_identical(std::slice::from_ref(&q), &docs());

        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        vm.set_optimize(false);
        joda.import("t", &docs()).unwrap();
        vm.import("t", &docs()).unwrap();
        let a = joda.execute(&q).unwrap();
        let b = vm.execute(&q).unwrap();
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.report.counters, b.report.counters);
        assert_eq!(a.report.modeled, b.report.modeled);
    }

    #[test]
    fn dead_arm_elimination_preserves_results_and_counters() {
        // /n ∈ [0, 99] on the imported corpus, so `n > 1000` is provably
        // false: the optimizer drops that OR arm. Results, counters
        // (charged from the original predicate), and modeled times must
        // not move — and the propagated analysis must stay sound on an
        // untransformed store.
        let impossible = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        });
        let queries = vec![
            Query::scan("t")
                .with_filter(small().or(impossible.clone()))
                .store_as("sub"),
            Query::scan("sub").with_filter(even().or(impossible)),
        ];
        assert_identical(&queries, &docs());
    }

    #[test]
    fn optimizer_toggle_invalidates_cached_programs() {
        // The same predicate executed under both settings from one
        // engine instance: toggling must rebuild, not serve the cached
        // program from the other regime, and results must not change.
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even().or(Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        })));
        let on = vm.execute(&q).unwrap();
        vm.set_optimize(false);
        assert!(!vm.optimize_enabled());
        let off = vm.execute(&q).unwrap();
        assert_eq!(on.docs, off.docs);
        assert_eq!(on.report.counters.docs_scanned, 100);
        // The second run hits the result cache, not the scan path.
        assert_eq!(off.report.counters.cache_hits, 1);
    }

    #[test]
    fn forget_and_reset_mirror_joda() {
        let mut vm = VmEngine::new(1);
        vm.import("t", &docs()).unwrap();
        let q = Query::scan("t").with_filter(even()).store_as("evens");
        vm.execute(&q).unwrap();
        assert!(vm.forget("evens"));
        assert!(!vm.forget("evens"));
        vm.reset();
        assert!(matches!(
            vm.execute(&Query::scan("t")),
            Err(EngineError::UnknownDataset { .. })
        ));
    }

    /// Emits `docs` as a sealed `.bcorp` named "t" and opens it.
    fn emit_corpus(tag: &str, docs: &[Value]) -> (std::path::PathBuf, Arc<PagedCorpus>) {
        let dir = std::env::temp_dir().join(format!("betze-vm-paged-{}", std::process::id()));
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
    fn paged_base_is_bit_identical_to_ram_in_both_optimizer_regimes() {
        use betze_model::{AggFunc, Aggregation};
        let data = docs();
        let (path, corpus) = emit_corpus("identical", &data);
        assert!(corpus.page_count() > 1, "corpus must actually be paged");
        // The impossible arm exercises the footer analysis: dead-arm
        // elimination must fire from the deserialized facts exactly as it
        // does from a fresh in-RAM `analyze`.
        let impossible = Predicate::leaf(FilterFn::FloatCmp {
            path: ptr("/n"),
            op: Comparison::Gt,
            value: 1000.0,
        });
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
            Query::scan("t").with_filter(small().or(impossible)),
            Query::scan("t"),
        ];
        for optimize in [true, false] {
            let mut ram = VmEngine::new(1);
            let mut disk = VmEngine::new(1);
            ram.set_optimize(optimize);
            disk.set_optimize(optimize);
            let ri = ram.import("t", &data).unwrap();
            let di = disk.import_paged(&corpus).unwrap();
            assert_eq!(ri.counters, di.counters);
            assert_eq!(ri.modeled, di.modeled);
            for q in &queries {
                let a = ram.execute(q).unwrap();
                let b = disk.execute(q).unwrap();
                assert_eq!(a.docs, b.docs, "docs for {q:?} (optimize={optimize})");
                assert_eq!(
                    a.report.counters, b.report.counters,
                    "counters for {q:?} (optimize={optimize})"
                );
                assert_eq!(
                    a.report.modeled, b.report.modeled,
                    "modeled for {q:?} (optimize={optimize})"
                );
            }
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn paged_base_matches_joda_paged() {
        let data = docs();
        let (path, corpus) = emit_corpus("joda", &data);
        let mut joda = JodaSim::new(1);
        let mut vm = VmEngine::new(1);
        let ji = joda.import_paged(&corpus).unwrap();
        let vi = vm.import_paged(&corpus).unwrap();
        assert_eq!(ji.counters, vi.counters);
        assert_eq!(ji.modeled, vi.modeled);
        for q in [
            Query::scan("t").with_filter(even()),
            Query::scan("t").with_filter(even().and(small())),
            Query::scan("t"),
        ] {
            let a = joda.execute(&q).unwrap();
            let b = vm.execute(&q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn threaded_paged_extension_scan_is_bit_identical_across_evaluators() {
        // The base scan streams pages; each extension scans the cached
        // 2500-doc `even` subset in memory, threaded (≥ 1024 docs,
        // 4 threads) until that subset earns a projection on its second
        // scan. Both evaluators run inside the same engine, so the two
        // runs must agree bit for bit.
        let many: Vec<Value> = (0..5000)
            .map(|i| json!({ "n": (i as i64), "even": (i % 2 == 0) }))
            .collect();
        let (path, corpus) = emit_corpus("threaded", &many);
        assert!(corpus.page_count() > 1, "corpus must actually be paged");
        let mut joda = JodaSim::new(4);
        let mut vm = VmEngine::new(4);
        let ji = joda.import_paged(&corpus).unwrap();
        let vi = vm.import_paged(&corpus).unwrap();
        assert_eq!(ji.counters, vi.counters);
        let ge = |value: f64| {
            Predicate::leaf(FilterFn::FloatCmp {
                path: ptr("/n"),
                op: Comparison::Ge,
                value,
            })
        };
        for q in [
            Query::scan("t").with_filter(even()),
            Query::scan("t").with_filter(even().and(small())),
            Query::scan("t").with_filter(even().and(ge(1000.0))),
            Query::scan("t").with_filter(even().and(ge(4000.0))),
            Query::scan("t").with_filter(even().and(small())),
        ] {
            let a = joda.execute(&q).unwrap();
            let b = vm.execute(&q).unwrap();
            assert_eq!(a.docs, b.docs, "docs for {q:?}");
            assert_eq!(a.report.counters, b.report.counters, "counters for {q:?}");
            assert_eq!(a.report.modeled, b.report.modeled, "modeled for {q:?}");
        }
        let ext = vm
            .execute(&Query::scan("t").with_filter(even().and(ge(10.0))))
            .unwrap();
        assert_eq!(ext.report.counters.docs_scanned, 2500);
        assert_eq!(ext.report.counters.cache_hits, 1);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn corrupt_page_degrades_the_query_to_typed_storage() {
        use betze_store::{DiskChaos, DiskFaultPlan};
        let (path, _) = emit_corpus("flip", &docs());
        let corpus = PagedCorpus::open(&path)
            .unwrap()
            .with_chaos(DiskChaos::new(DiskFaultPlan::none(11).bit_flips(1.0)));
        let mut vm = VmEngine::new(1);
        vm.import_paged(&Arc::new(corpus)).unwrap();
        let err = vm
            .execute(&Query::scan("t").with_filter(even()))
            .unwrap_err();
        assert!(matches!(err, EngineError::Storage { .. }), "got {err:?}");
        let _ = std::fs::remove_file(path);
    }
}
