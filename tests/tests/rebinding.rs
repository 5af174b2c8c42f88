//! Rebinding a dataset name must invalidate what was cached under it.
//!
//! JODA's result cache is keyed by `(dataset name, predicate)`. When a
//! `store_as` or an import binds an existing name to new documents, the
//! entries cached under the old binding no longer describe the name, so
//! a later filter over it must scan the new documents. Every engine must
//! agree with the cache-free MongoDB-like engine, and the cost
//! abstraction's simulated JODA cache must not predict a hit there.

use std::sync::Arc;

use betze::engines::{
    corpus_cost_stats, Engine, JodaSim, JqSim, MongoSim, PgSim, VmEngine, WorkCounters,
};
use betze::json::{json, JsonPointer, Value};
use betze::lint::{CostEngine, Linter};
use betze::model::{Comparison, DatasetGraph, FilterFn, Move, Predicate, Query, Session};
use betze::store::{CorpusWriter, PagedCorpus};

fn docs(range: std::ops::Range<i64>) -> Vec<Value> {
    range.map(|n| json!({ "n": n })).collect()
}

fn cmp(op: Comparison, value: f64) -> Predicate {
    Predicate::leaf(FilterFn::FloatCmp {
        path: JsonPointer::parse("/n").unwrap(),
        op,
        value,
    })
}

/// `t→store x (n<10)`, `x filter n<5`, `t→store x (n≥50)`, `x filter n<5`:
/// the last query reads the second binding of `x`, which holds no
/// document below 50.
fn shadowing_session() -> Session {
    let mut graph = DatasetGraph::new();
    let t = graph.add_base("t", 100.0);
    graph.add_derived(t, "x", 0, 10.0);
    graph.add_derived(t, "x", 2, 50.0);
    let queries = vec![
        Query::scan("t")
            .with_filter(cmp(Comparison::Lt, 10.0))
            .store_as("x"),
        Query::scan("x").with_filter(cmp(Comparison::Lt, 5.0)),
        Query::scan("t")
            .with_filter(cmp(Comparison::Ge, 50.0))
            .store_as("x"),
        Query::scan("x").with_filter(cmp(Comparison::Lt, 5.0)),
    ];
    Session {
        moves: queries.iter().map(|_| Move::Stop).collect(),
        queries,
        graph,
        seed: 0,
        config_label: "rebinding".to_owned(),
    }
}

fn engines() -> Vec<Box<dyn Engine>> {
    let mut vm_noopt = VmEngine::new(1);
    vm_noopt.set_optimize(false);
    vec![
        Box::new(JodaSim::new(1)),
        Box::new(JodaSim::with_eviction(1)),
        Box::new(VmEngine::new(1)),
        Box::new(vm_noopt),
        Box::new(PgSim::new()),
        Box::new(JqSim::new()),
    ]
}

/// Result cardinality and counters of every query in the session.
fn run(engine: &mut dyn Engine, session: &Session) -> Vec<(usize, WorkCounters)> {
    session
        .queries
        .iter()
        .map(|q| {
            let out = engine.execute(q).unwrap();
            (out.docs.len(), out.report.counters)
        })
        .collect()
}

fn cards(run: &[(usize, WorkCounters)]) -> Vec<usize> {
    run.iter().map(|(card, _)| *card).collect()
}

#[test]
fn store_as_over_a_name_drops_its_cached_results() {
    let session = shadowing_session();
    let base = docs(0..100);
    let mut mongo = MongoSim::new();
    mongo.import("t", &base).unwrap();
    let reference = cards(&run(&mut mongo, &session));
    assert_eq!(reference, vec![10, 5, 50, 0]);
    for mut engine in engines() {
        engine.import("t", &base).unwrap();
        let observed = run(engine.as_mut(), &session);
        assert_eq!(cards(&observed), reference, "{}", engine.name());
    }
}

#[test]
fn paged_base_rebinding_matches_the_reference() {
    let path = std::env::temp_dir().join(format!("betze-rebinding-{}.bcorp", std::process::id()));
    let mut writer = CorpusWriter::create(&path, "t", 512).unwrap();
    for doc in docs(0..100) {
        writer.append(doc).unwrap();
    }
    writer.seal().unwrap();
    let corpus = Arc::new(PagedCorpus::open(&path).unwrap());
    assert!(corpus.page_count() > 1, "corpus must actually be paged");
    let session = shadowing_session();
    let mut engines: [Box<dyn Engine>; 2] = [Box::new(JodaSim::new(1)), Box::new(VmEngine::new(1))];
    for engine in &mut engines {
        engine.import_paged(&corpus).unwrap();
        assert_eq!(
            cards(&run(engine.as_mut(), &session)),
            vec![10, 5, 50, 0],
            "{}",
            engine.name()
        );
    }
    let _ = std::fs::remove_file(path);
}

#[test]
fn reimport_drops_cached_results() {
    let query = Query::scan("t").with_filter(cmp(Comparison::Lt, 5.0));
    let mut all = engines();
    all.push(Box::new(MongoSim::new()));
    for mut engine in all {
        engine.import("t", &docs(0..100)).unwrap();
        assert_eq!(engine.execute(&query).unwrap().docs.len(), 5);
        engine.import("t", &docs(100..200)).unwrap();
        let out = engine.execute(&query).unwrap();
        assert_eq!(out.docs.len(), 0, "{}: stale result", engine.name());
        assert_eq!(out.report.counters.cache_hits, 0, "{}", engine.name());
    }
}

#[test]
fn cost_abstraction_charges_no_hit_for_a_rebound_name() {
    let session = shadowing_session();
    let base = docs(0..100);
    let analysis = betze::stats::analyze("t", &base);
    let stats = corpus_cost_stats("t", &base);
    let linter = Linter::new()
        .without_translations()
        .with_analysis(&analysis)
        .with_corpus_stats(&stats)
        .with_joda_threads(1)
        .with_cost_engine(CostEngine::Joda)
        .with_cost_engine(CostEngine::Vm)
        .with_cost_engine(CostEngine::VmNoOpt);
    let (_, _, cost) = linter.lint_with_cost(&session);
    let cost = cost.expect("cost pass active");
    let joda = cost.engine(CostEngine::Joda).unwrap();
    // Query 3 reads the second binding of `x`, which nothing has
    // filtered yet: a scan of its 50 documents, not a cache hit.
    assert_eq!(joda.queries[3].hi.cache_hits, 0.0);
    assert!(joda.queries[3].hi.docs_scanned >= 50.0);

    // The modeled legs contain what the engines report.
    for (leg, mut engine) in [
        (
            CostEngine::Joda,
            Box::new(JodaSim::new(1)) as Box<dyn Engine>,
        ),
        (CostEngine::Vm, Box::new(VmEngine::new(1))),
    ] {
        engine.set_output_enabled(false);
        engine.import("t", &base).unwrap();
        let predicted = cost.engine(leg).unwrap();
        for (i, (_, counters)) in run(engine.as_mut(), &session).iter().enumerate() {
            if let Some(bad) = predicted.queries[i].counter_violation(counters) {
                panic!("{}: query {i}: {bad}", leg.label());
            }
        }
    }
}
