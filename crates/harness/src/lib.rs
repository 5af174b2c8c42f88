//! # betze-harness
//!
//! The benchmark harness: what the paper's Docker scripts
//! (`generate_queries.sh` / `benchmark_queries.sh`, Listing 4) do, as a
//! native library. It
//!
//! * prepares workloads — generates a corpus, analyzes it, and generates
//!   seeded sessions ([`workload`]);
//! * runs sessions against the simulated engines with per-query reports,
//!   import/no-import accounting and timeout handling ([`runner`]);
//! * regenerates **every table and figure of the paper's evaluation
//!   section** through one driver per artifact ([`experiments`]), each
//!   returning structured data plus a rendered text report.
//!
//! The experiment drivers default to laptop-scale corpora (see
//! [`experiments::Scale`]); the DESIGN.md §3/§4 substitutions explain why
//! shapes, not absolute numbers, are the comparison target.

pub mod backend_adapter;
pub mod experiments;
pub mod fmt;
pub mod journal;
pub mod pool;
pub mod runner;
pub mod workload;

pub use backend_adapter::EngineBackend;
pub use journal::{atomic_write, Interrupted, Journal, JournalTail, Recovered, RunCtx};
pub use pool::SessionPool;
pub use runner::{
    provably_empty, run_session, run_session_from_source, run_session_governed,
    run_session_with_options, CorpusSource, ProgressHook, QueryStatus, RetryPolicy, RunOptions,
    SessionOutcome, SessionRun,
};
pub use workload::{prepare, prepare_with_analysis, Corpus, PreparedWorkload, SharedCorpus};
