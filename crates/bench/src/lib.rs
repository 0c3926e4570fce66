//! # sosd-bench
//!
//! The experiment harness: everything needed to regenerate each table and
//! figure of *Benchmarking Learned Indexes* from the workspace's index
//! implementations.
//!
//! * [`registry`] — uniform access to every index family through
//!   [`IndexSpec`] values that construct type-erased builders or
//!   serving-facing `QueryEngine`s, plus [`EngineSpec`] for serving-layer
//!   configuration (key-range sharded, write-behind, hot-key cached, and
//!   advisor-tuned engines, optionally behind a request scheduler). Specs
//!   are built in code; their labels name the result rows.
//! * [`designer`] — the `StoreDesigner`: scores index family × page size
//!   against a storage profile's latency/bandwidth curve with a
//!   closed-form cost model and picks the configuration to serve from
//!   that device (`ext10_storage` validates the picks).
//! * [`timing`] — the single-threaded lookup loop (warm/cold, with or
//!   without memory fences, selectable last-mile search) with payload-sum
//!   validation, plus the batched `QueryEngine` path.
//! * [`mt`] — the multithreaded throughput harness (Figure 16),
//!   generalized to any `QueryEngine` — sharded and shared-everything
//!   serving are measured by the same loop, with per-worker clocks and a
//!   non-empty-slice floor keeping the numbers honest.
//! * [`dynamic`] — the mixed read/write harness over the updatable
//!   structures (the paper's future-work benchmark; `ext*` binaries).
//! * [`report`] — markdown/CSV/JSON emitters writing into `results/`.
//! * [`cli`] — the tiny shared flag parser of the `fig*`/`table*` binaries.
//!
//! Run experiments with e.g.
//! `cargo run --release -p sosd-bench --bin fig07_pareto -- --n 1000000`.

pub mod cli;
pub mod designer;
pub mod dynamic;
pub mod mt;
pub mod registry;
pub mod report;
pub mod runner;
pub mod timing;

pub use cli::Args;
pub use designer::{CandidateCost, StoreDesigner};
pub use registry::{btree_delta, DynBuilder, EngineSpec, Family, IndexParams, IndexSpec};
pub use report::Report;
pub use timing::{time_lookups, time_lookups_batched, LookupTiming};
