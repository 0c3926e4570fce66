//! # sosd-core
//!
//! Core abstractions for the SOSD learned-index benchmark, a reproduction of
//! *Benchmarking Learned Indexes* (Marcus et al., VLDB 2020).
//!
//! The paper formulates every index structure — learned or traditional — as a
//! mapping from an integer lookup key to a [`SearchBound`] that is guaranteed
//! to contain the *lower bound* of the key: the position of the smallest key
//! in a sorted array that is greater than or equal to the lookup key. A
//! *last-mile* search (binary, linear, or interpolation; see [`search`]) then
//! locates the exact position inside the bound.
//!
//! This crate provides:
//!
//! * [`Key`] — the integer key abstraction (`u32` and `u64`).
//! * [`SortedData`] — the sorted array of keys plus 8-byte payloads that every
//!   index is built over.
//! * [`Index`] and [`IndexBuilder`] — the interface every index implements.
//! * [`search`] — last-mile search functions, in plain and traced variants.
//! * [`Tracer`] — the event sink used by the `sosd-perfsim` hardware-counter
//!   simulator to observe memory reads, branches, and instruction counts.
//! * [`stats`] — log2-error statistics, Pareto-front extraction, and the OLS
//!   regression machinery used by the paper's Section 4.3 analysis.
//! * [`dynamic`] — the [`DynamicOrderedIndex`] interface for the updatable
//!   structures of the paper's future-work section (ALEX, dynamic PGM,
//!   FITing-Tree, dynamic B+Tree).
//! * [`engine`] — the serving-facing [`QueryEngine`] facade unifying both
//!   worlds behind payload-returning `get`/`lower_bound`/`range` plus a
//!   batched, prefetch-friendly lookup path.
//! * [`shard`] — key-range sharded serving: [`ShardedEngine`] partitions a
//!   [`SortedData`] into fence-routed shards, one inner engine each, with
//!   shard-grouped batches and a scoped-thread parallel batch path.
//! * [`cache`] — the hot-key serving tier: [`CachedEngine`] puts a
//!   bounded, lock-striped CLOCK result cache in front of any engine so
//!   Zipf-skewed read traffic is answered by one hash probe, with
//!   version-fenced invalidation keeping it exact over updatable inners.
//! * [`writebehind`] — the updatable serving tier: [`WriteBehindEngine`]
//!   layers a bounded mutable delta buffer over any immutable base engine,
//!   absorbing writes in the delta and folding them into a rebuilt base
//!   when a size threshold is crossed — synchronously or on a background
//!   merge thread with an epoch-pointer engine swap. The epoch pointer is
//!   also exposed directly: [`WriteBehindEngine::snapshot`] pins a
//!   [`PinnedView`] — a consistent point-in-time read handle over one
//!   generation — and every immutable tier carries a deterministic
//!   content hash for spool verification, replica comparison
//!   ([`WriteBehindEngine::fingerprint`]), and run dedupe.
//! * [`store`] — the persistence layer: the [`BlockStore`] page-storage
//!   contract (in-memory and file-backed), [`StorageProfile`] latency
//!   injection for RAM / NVMe-like / NFS-like backends, and the versioned,
//!   checksummed snapshot page format that [`PagedEngine`] serves from with
//!   page-granular last-mile reads.
//! * [`serve`] — the open-loop serving front end: [`RequestScheduler`]
//!   coalesces independently arriving point lookups into batched waves
//!   over a worker pool, with shed-on-full admission control and
//!   lock-free latency recording via [`hist::LatencyHistogram`].
//! * [`advisor`] — the self-tuning index advisor: per-shard candidate
//!   scoring with a trained-once linear cost model over fig12-style bound
//!   statistics plus access observability (hot-key histogram, operation
//!   mix), emitting heterogeneous [`ShardedEngine`]s and re-advising at
//!   every write-behind base rebuild through an advisor-driven base
//!   factory.
//! * [`testutil`] — minimal reference implementations of both interfaces
//!   for doctests and harness smoke checks.

// Every public item in this crate is documentation surface; CI denies the
// lint (rustdoc-coverage step) so the surface cannot silently regress.
#![warn(missing_docs)]

pub mod advisor;
pub mod bound;
pub mod builder;
pub mod cache;
pub mod data;
pub mod dynamic;
pub mod engine;
pub mod error;
pub mod filter;
pub mod hist;
pub mod index;
pub mod key;
pub mod ols;
pub mod search;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod store;
pub mod stride;
pub mod testutil;
pub mod trace;
pub mod util;
pub mod writebehind;

pub use advisor::{AccessMix, AccessSnapshot, AdvisedPlan, Advisor, ObservabilityHub, ShardPick};
pub use bound::SearchBound;
pub use builder::IndexBuilder;
pub use cache::CachedEngine;
pub use data::{DataBacking, SortedData};
pub use dynamic::{BulkLoad, DynamicOrderedIndex, Op};
pub use engine::{DynamicEngine, PagedEngine, QueryEngine, StaticEngine};
pub use error::{BuildError, DataError};
pub use hist::LatencyHistogram;
pub use index::{Capabilities, Index, IndexKind};
pub use key::Key;
pub use search::{LastMileSearch, SearchStrategy};
pub use serve::{RequestScheduler, RequestShed, Response, SchedulerConfig, SchedulerStats};
pub use shard::{partition_points, ParallelBatchView, ShardedEngine, PAR_MIN_KEYS_PER_WORKER};
pub use store::{
    content_hash_fold, content_hash_stream, snapshot_content_hash, write_snapshot,
    write_snapshot_with_filter, BlockStore, FileStore, MemStore, PagedData, ProfiledStore,
    StorageProfile, StoreError, StoreStats, CONTENT_HASH_SEED, DEFAULT_PAGE_SIZE,
};
pub use trace::{CountingTracer, NullTracer, Tracer};
pub use writebehind::{MergeMode, MergePolicy, PinnedView, SpoolVerifyReport, WriteBehindEngine};
