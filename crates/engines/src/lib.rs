//! # betze-engines
//!
//! The **systems under test**: architecture-faithful simulations of the
//! four data processors the paper benchmarks (JODA, MongoDB, PostgreSQL,
//! jq). We cannot ship the real systems (see DESIGN.md §3), so each engine
//! here *actually executes* BETZE's query IR over real documents through a
//! storage substrate mirroring the relevant architecture:
//!
//! | engine       | storage                               | execution |
//! |--------------|----------------------------------------|-----------|
//! | [`JodaSim`]  | in-memory parsed documents or paged `.bcorp` corpora | multi-threaded scans; intermediate result reuse (Delta-Tree-style predicate-prefix cache); optional eviction mode |
//! | [`MongoSim`] | from-scratch BSON-like binary format   | single-threaded; per-document match via binary navigation |
//! | [`PgSim`]    | from-scratch JSONB-like binary format (sorted keys, offset tables) | single-threaded; expensive import, cheap binary-search lookups |
//! | [`JqSim`]    | none — the raw JSON-lines file on disk | re-reads and re-parses the file for every query |
//!
//! [`JodaSim`] and the opt-in [`VmEngine`] are one [`Joda`] engine with
//! two [`Evaluator`]s: [`TreeWalk`] matches predicates per document,
//! [`Bytecode`] runs them as betze-vm register bytecode (DESIGN.md §14).
//! The engine owns the cache, counters and threading, so the two are
//! bit-identical by construction, which is also why [`VmEngine`] is not
//! part of [`all_engines`].
//!
//! Every execution is instrumented with [`WorkCounters`], and a
//! deterministic [`CostModel`] maps counters to a **modeled time** whose
//! per-engine constants are calibrated against the paper's Table II
//! (the `betze-cost` crate documents the calibration and is the single
//! source of the weight table, shared with the lint cost abstraction).
//! Wall-clock time is measured too;
//! the paper-shape experiments use the modeled clock so results are
//! host-independent and the 4–60-thread sweep of Fig. 9 is reproducible on
//! any machine.

mod binary_engine;
pub mod breaker;
pub mod cancel;
pub mod chaos;
mod coststats;
mod engine;
mod joda;
mod jqsim;
mod mongo;
mod pg;
pub mod storage;
mod vm;

pub use betze_cost::{CorpusCostStats, CostModel, CostProfile, PerDocHull, Work, WorkCounters};
pub use breaker::{BreakerCore, BreakerEngine, BreakerPolicy, BreakerState};
pub use cancel::{install_shutdown_handler, install_sigint_handler, CancelToken};
pub use chaos::{ChaosEngine, FaultEvent, FaultKind, FaultPlan};
pub use coststats::corpus_cost_stats;
pub use engine::{Engine, EngineError, ExecutionReport, QueryOutcome};
pub use joda::{Evaluator, Joda, JodaSim, TreeWalk};
pub use jqsim::JqSim;
pub use mongo::MongoSim;
pub use pg::PgSim;
pub use vm::{Bytecode, VmEngine};

/// All four engines with default configurations (JODA at the given thread
/// count). The order matches the paper's tables.
pub fn all_engines(joda_threads: usize) -> Vec<Box<dyn Engine>> {
    vec![
        Box::new(JodaSim::new(joda_threads)),
        Box::new(MongoSim::new()),
        Box::new(PgSim::new()),
        Box::new(JqSim::new()),
    ]
}
