//! Uniform, config-driven access to every index family.
//!
//! The registry's unit of configuration is the [`IndexSpec`]: a
//! serializable `{ family, params }` record that pins down one buildable
//! index variant (one Figure-7 point). Specs replace the old ad-hoc label
//! strings — an experiment can be described as a list of specs in JSON,
//! round-tripped through `serde`, and turned into either a raw type-erased
//! [`Index`] builder ([`IndexSpec::builder`]) or a full serving-facing
//! [`QueryEngine`] ([`IndexSpec::engine`]).
//!
//! One layer up, [`EngineSpec`] configures how an index is *served*:
//! directly, partitioned behind a key-range [`ShardedEngine`]
//! (`{ "family": "sharded", "params": { "shards": S, "inner": <spec> } }`),
//! wrapped in a write-behind tier
//! (`{ "family": "writebehind", "params": { "inner": <engine spec>,
//! "delta": "btree", "merge_threshold": N } }`) whose delta buffer family
//! is picked by [`DeltaKind`], fronted by a hot-key result cache
//! (`{ "family": "cached", "params": { "capacity": C, "stripes": S,
//! "inner": <engine spec> } }`) over any of the above, or served
//! page-granular from a block-store snapshot under a simulated storage
//! profile (`{ "family": "stored", "params": { "profile": "nvme",
//! "page_size": 4096, "inner": <index spec> } }` — see [`StorageSpec`]).

use serde::{Deserialize, Serialize};
use sosd_baselines::{BsBuilder, RbsBuilder};
use sosd_core::advisor::{AdvisedPlan, Advisor, Candidate, ObservabilityHub};
use sosd_core::serve::FastProbe;
use sosd_core::writebehind::{BaseFactory, DeltaFactory};
use sosd_core::{
    write_snapshot, BlockStore, BuildError, CachedEngine, DynamicOrderedIndex, FileStore, Index,
    IndexBuilder, Key, MemStore, MergeMode, MergePolicy, PagedData, PagedEngine, ProfiledStore,
    QueryEngine, RequestScheduler, SchedulerConfig, SearchStrategy, ShardedEngine, SortedData,
    StaticEngine, StorageProfile, WriteBehindEngine,
};
use sosd_fast::FastBuilder;
use sosd_fiting::FitingTreeBuilder;
use sosd_hash::{CuckooBuilder, RobinHoodBuilder};
use sosd_pgm::PgmBuilder;
use sosd_radix_spline::RsBuilder;
use sosd_rmi::{ModelKind, RmiBuilder};
use sosd_tries::{FstBuilder, WormholeBuilder};
use std::sync::Arc;

/// Type-erased builder: one Figure-7 point.
pub trait DynBuilder<K: Key>: Send + Sync {
    /// Build the index as a trait object.
    fn build_boxed(&self, data: &SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError>;
    /// Configuration label for result rows.
    fn label(&self) -> String;
}

impl<K: Key, B> DynBuilder<K> for B
where
    B: IndexBuilder<K> + Send + Sync,
    B::Output: Sized + 'static,
{
    fn build_boxed(&self, data: &SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError> {
        Ok(Box::new(self.build(data)?))
    }

    fn label(&self) -> String {
        self.describe()
    }
}

/// Every index family in the benchmark (Table 1 order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Piecewise geometric model index.
    Pgm,
    /// RadixSpline.
    Rs,
    /// Recursive model index.
    Rmi,
    /// Static STX-style B+Tree.
    BTree,
    /// Interpolating B-Tree.
    IbTree,
    /// FAST-style branch-free layout tree.
    Fast,
    /// Adaptive radix tree.
    Art,
    /// Fast succinct trie.
    Fst,
    /// Wormhole hash-trie.
    Wormhole,
    /// Bucketized cuckoo map.
    CuckooMap,
    /// RobinHood hash table.
    RobinHash,
    /// Radix binary search lookup table.
    Rbs,
    /// Plain binary search.
    Bs,
    /// FITing-Tree (extension: ref. \[14\], not in the paper's Table 1
    /// because no tuned implementation was public at the time).
    Fiting,
}

/// The tuning knobs of one index variant — the serializable payload of an
/// [`IndexSpec`]. One variant per family, mirroring each concrete builder's
/// fields; parameterless families carry an empty variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexParams {
    /// RMI: root/leaf model kinds plus leaf count.
    Rmi {
        /// Root-stage model.
        root: ModelKind,
        /// Leaf-stage model.
        leaf: ModelKind,
        /// Number of leaf models.
        branch: usize,
    },
    /// PGM: leaf and internal epsilon.
    Pgm {
        /// Leaf-segment error bound.
        eps: u64,
        /// Internal-level error bound.
        eps_internal: u64,
    },
    /// RadixSpline: spline error and radix-table width.
    Rs {
        /// Spline error bound.
        eps: u64,
        /// Radix-table bits.
        radix_bits: u32,
    },
    /// B+Tree: sampling stride and node fanout.
    BTree {
        /// Key sampling stride.
        stride: usize,
        /// Node fanout.
        fanout: usize,
    },
    /// Interpolating B-Tree: sampling stride and node fanout.
    IbTree {
        /// Key sampling stride.
        stride: usize,
        /// Node fanout.
        fanout: usize,
    },
    /// FAST: sampling stride.
    Fast {
        /// Key sampling stride.
        stride: usize,
    },
    /// ART: sampling stride.
    Art {
        /// Key sampling stride.
        stride: usize,
    },
    /// FST: sampling stride.
    Fst {
        /// Key sampling stride.
        stride: usize,
    },
    /// Wormhole: sampling stride.
    Wormhole {
        /// Key sampling stride.
        stride: usize,
    },
    /// RBS: radix-table bits.
    Rbs {
        /// Radix-table bits (clamped to the key width at spec creation).
        radix_bits: u32,
    },
    /// Binary search: no knobs.
    Bs,
    /// Cuckoo hash map: library defaults.
    CuckooMap,
    /// RobinHood hash table: library defaults.
    RobinHash,
    /// FITing-Tree: segment error bound.
    Fiting {
        /// Segment error bound.
        eps: u64,
    },
}

/// One fully-specified, buildable index configuration.
///
/// `params` alone determines behavior (`builder`, `engine`, `label`);
/// `family` is display metadata denormalized for readability. Construct
/// with [`IndexSpec::new`], which pairs them — serialization always derives
/// the family from `params`, so a hand-assembled mismatch cannot survive a
/// JSON round-trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    /// The index family.
    pub family: Family,
    /// The family's tuning knobs.
    pub params: IndexParams,
}

impl IndexSpec {
    /// Pair params with their family (single source of truth for the
    /// family/params correspondence).
    pub fn new(params: IndexParams) -> Self {
        let family = match params {
            IndexParams::Rmi { .. } => Family::Rmi,
            IndexParams::Pgm { .. } => Family::Pgm,
            IndexParams::Rs { .. } => Family::Rs,
            IndexParams::BTree { .. } => Family::BTree,
            IndexParams::IbTree { .. } => Family::IbTree,
            IndexParams::Fast { .. } => Family::Fast,
            IndexParams::Art { .. } => Family::Art,
            IndexParams::Fst { .. } => Family::Fst,
            IndexParams::Wormhole { .. } => Family::Wormhole,
            IndexParams::Rbs { .. } => Family::Rbs,
            IndexParams::Bs => Family::Bs,
            IndexParams::CuckooMap => Family::CuckooMap,
            IndexParams::RobinHash => Family::RobinHash,
            IndexParams::Fiting { .. } => Family::Fiting,
        };
        IndexSpec { family, params }
    }

    /// The concrete type-erased builder for this spec.
    pub fn builder<K: Key>(&self) -> Box<dyn DynBuilder<K>> {
        match self.params {
            IndexParams::Rmi { root, leaf, branch } => {
                Box::new(RmiBuilder { root_kind: root, leaf_kind: leaf, branch })
            }
            IndexParams::Pgm { eps, eps_internal } => Box::new(PgmBuilder { eps, eps_internal }),
            IndexParams::Rs { eps, radix_bits } => Box::new(RsBuilder { eps, radix_bits }),
            IndexParams::BTree { stride, fanout } => {
                Box::new(sosd_btree::BTreeBuilder { stride, fanout })
            }
            IndexParams::IbTree { stride, fanout } => {
                Box::new(sosd_btree::IbTreeBuilder { stride, fanout })
            }
            IndexParams::Fast { stride } => Box::new(FastBuilder { stride }),
            IndexParams::Art { stride } => Box::new(sosd_art::ArtBuilder { stride }),
            IndexParams::Fst { stride } => Box::new(FstBuilder { stride }),
            IndexParams::Wormhole { stride } => Box::new(WormholeBuilder { stride }),
            IndexParams::Rbs { radix_bits } => Box::new(RbsBuilder { radix_bits }),
            IndexParams::Bs => Box::new(BsBuilder),
            IndexParams::CuckooMap => Box::new(CuckooBuilder::default()),
            IndexParams::RobinHash => Box::new(RobinHoodBuilder::default()),
            IndexParams::Fiting { eps } => Box::new(FitingTreeBuilder { eps }),
        }
    }

    /// Configuration label for result rows (delegates to the builder).
    pub fn label<K: Key>(&self) -> String {
        self.builder::<K>().label()
    }

    /// This spec as an advisor [`Candidate`]: the builder's label plus a
    /// type-erased build closure, ready for [`Advisor::train`].
    pub fn candidate<K: Key>(&self) -> Candidate<K> {
        let spec = *self;
        Candidate::new(spec.label::<K>(), move |d: &SortedData<K>| {
            spec.builder::<K>().build_boxed(d)
        })
    }

    /// Build a serving-facing [`QueryEngine`] over shared data: the static
    /// adapter with the given last-mile strategy.
    pub fn engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<Box<dyn QueryEngine<K>>, BuildError> {
        let index = self.builder::<K>().build_boxed(data)?;
        Ok(Box::new(StaticEngine::with_strategy(index, Arc::clone(data), strategy)))
    }
}

/// The delta-buffer family of a write-behind engine: every updatable
/// structure in the workspace can absorb the write tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeltaKind {
    /// Insertable B+Tree — the default: cheap inserts, and its chained
    /// leaves give the delta drain and range stitch a true leaf walk
    /// (`for_each_in` is one descent plus a sequential scan).
    BTree,
    /// ALEX-style gapped model arrays.
    Alex,
    /// Dynamic PGM (logarithmic method over static PGMs).
    DynamicPgm,
    /// Dynamic FITing-Tree (cone segments with per-segment buffers).
    Fiting,
}

impl DeltaKind {
    /// Every delta family.
    pub const ALL: [DeltaKind; 4] =
        [DeltaKind::BTree, DeltaKind::Alex, DeltaKind::DynamicPgm, DeltaKind::Fiting];

    /// Spec token used in JSON (`"delta": "btree"`).
    pub fn token(self) -> &'static str {
        match self {
            DeltaKind::BTree => "btree",
            DeltaKind::Alex => "alex",
            DeltaKind::DynamicPgm => "pgm",
            DeltaKind::Fiting => "fiting",
        }
    }

    /// Inverse of [`DeltaKind::token`].
    pub fn parse(token: &str) -> Option<DeltaKind> {
        DeltaKind::ALL.into_iter().find(|d| d.token() == token)
    }

    /// An empty delta buffer of this family.
    pub fn make<K: Key>(self) -> Box<dyn DynamicOrderedIndex<K>> {
        match self {
            DeltaKind::BTree => Box::new(sosd_btree::DynamicBTree::new()),
            DeltaKind::Alex => Box::new(sosd_alex::AlexTree::new()),
            DeltaKind::DynamicPgm => Box::new(sosd_pgm::DynamicPgm::new()),
            DeltaKind::Fiting => Box::new(sosd_fiting::DynamicFitingTree::new()),
        }
    }

    /// The [`DeltaFactory`] handed to [`WriteBehindEngine`].
    pub fn factory<K: Key>(self) -> DeltaFactory<K> {
        Arc::new(move || self.make::<K>())
    }
}

/// Storage configuration of a [`EngineSpec::Stored`] tier: where the
/// snapshot lives and how expensive it is to read.
///
/// `profile` names one of the [`StorageProfile`] presets by token
/// (`"ram"`, `"nvme"`, `"nfs"`); non-RAM profiles wrap the backing in a
/// [`ProfiledStore`] that injects the preset's latency/bandwidth curve.
/// `path` selects the backing: a [`FileStore`] snapshot at that path when
/// set, an anonymous in-heap [`MemStore`] when absent (the page layout,
/// checksums, and read granularity are identical either way).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StorageSpec {
    /// Simulated device the snapshot is served from.
    pub profile: StorageProfile,
    /// Snapshot page size in bytes (validated against the store's layout
    /// rules at parse and build time).
    pub page_size: usize,
    /// Snapshot file path; `None` serves from an anonymous memory store.
    pub path: Option<String>,
}

impl StorageSpec {
    /// Share a freshly written backing behind `dyn`, wrapped in a
    /// [`ProfiledStore`] unless the profile is RAM.
    fn share<S: BlockStore + 'static>(&self, store: S) -> Arc<dyn BlockStore> {
        if self.profile == StorageProfile::RAM {
            Arc::new(store)
        } else {
            Arc::new(ProfiledStore::new(store, self.profile))
        }
    }
}

/// A serving-engine configuration: one layer above [`IndexSpec`].
///
/// An index spec pins down one buildable index structure; an engine spec
/// pins down how that structure is *served* — directly
/// ([`EngineSpec::Single`]), behind a key-range
/// [`ShardedEngine`] router with `shards` partitions, each running its own
/// inner index ([`EngineSpec::Sharded`]), or behind a write-behind tier
/// that absorbs inserts in a delta buffer and re-builds its (possibly
/// sharded) base on merge ([`EngineSpec::WriteBehind`]). Like index specs,
/// engine specs are serializable configuration; the composite variants'
/// JSON forms are
///
/// ```json
/// { "family": "sharded", "params": { "shards": 8, "inner": { "family": "RMI", ... } } }
/// { "family": "writebehind", "params": { "inner": <engine spec>, "delta": "btree", "merge_threshold": 65536 } }
/// ```
///
/// a caching tier composes over any of them:
///
/// ```json
/// { "family": "cached", "params": { "capacity": 65536, "stripes": 8, "inner": <engine spec> } }
/// ```
///
/// and a storage tier snapshots the data into a paged block store and
/// serves it page-granular under a simulated device profile (the cache
/// tier may front it):
///
/// ```json
/// { "family": "stored", "params": { "profile": "nvme", "page_size": 4096, "inner": <index spec> } }
/// ```
///
/// The self-tuning variant ([`EngineSpec::AutoTuned`]) names only the
/// *candidate pool*; the per-shard winners are chosen at build time by a
/// trained [`Advisor`] from each shard's key distribution and the current
/// access snapshot:
///
/// ```json
/// { "family": "autotuned", "params": { "shards": 8, "candidates": [ <index spec>, ... ] } }
/// ```
///
/// Any plain [`IndexSpec`] JSON deserializes as the single variant, so
/// every existing experiment config is already a valid engine spec.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum EngineSpec {
    /// Serve one index over the whole dataset (the shared-everything
    /// setup of Figure 16).
    Single(IndexSpec),
    /// Key-range sharded serving: partition the data into `shards` ranges
    /// and build `inner` per partition.
    Sharded {
        /// Requested partition count (duplicate-heavy or tiny datasets may
        /// yield fewer; see [`sosd_core::partition_points`]).
        shards: usize,
        /// The index configuration built per shard.
        inner: IndexSpec,
    },
    /// Write-behind serving: an immutable base (single index when
    /// `shards <= 1`, a [`ShardedEngine`] otherwise) plus a mutable delta
    /// buffer, merged when the delta crosses `merge_threshold` shadow
    /// entries (inserts and tombstoned removes both count). Built via
    /// [`EngineSpec::writebehind_engine`], the concrete engine also pins
    /// consistent point-in-time snapshots and reports content-hash
    /// fingerprints.
    WriteBehind {
        /// Base partition count (`1` = an unsharded base engine).
        shards: usize,
        /// The index configuration of the base (per shard when sharded;
        /// under a leveled policy also built per frozen run).
        inner: IndexSpec,
        /// The delta-buffer family.
        delta: DeltaKind,
        /// Active-delta shadow-entry count that triggers a merge.
        merge_threshold: usize,
        /// How merges fold the delta into the immutable tiers: one flat
        /// base rebuild per cycle, or an LSM-style leveled run stack
        /// (JSON `"policy": "flat"` — the default when absent — or
        /// `"policy": "leveled", "fanout": F, "max_levels": L`).
        policy: MergePolicy,
    },
    /// Hot-key cached serving: a bounded, lock-striped
    /// [`CachedEngine`] result cache in front of `inner` (which may itself
    /// be single, sharded, or write-behind).
    Cached {
        /// Total cache entry budget (split over the stripes).
        capacity: usize,
        /// Requested lock-stripe count (rounded up to a power of two).
        stripes: usize,
        /// Cache absent-key results as negative entries (JSON
        /// `"negative": true`; absent = `false`, so pre-negative specs
        /// still parse).
        negative: bool,
        /// The engine the cache fronts.
        inner: Box<EngineSpec>,
    },
    /// Storage-backed serving: snapshot the data into a paged block store
    /// and serve through a [`PagedEngine`] that keeps only the index model
    /// in RAM and fetches just the pages each lookup's error bound names,
    /// charged at the configured profile's latency/bandwidth curve.
    Stored {
        /// Where the snapshot lives and what reads from it cost.
        storage: StorageSpec,
        /// The index model built over the snapshot. A plain index spec:
        /// serving tiers (shards, caches, write-behind) compose *over*
        /// storage, not under it.
        inner: IndexSpec,
    },
    /// Self-tuning sharded serving: a trained [`Advisor`] scores every
    /// candidate per key-range shard and serves each shard from its
    /// winner — a possibly heterogeneous [`ShardedEngine`] (the spec pins
    /// the candidate pool, not the outcome). Use
    /// [`EngineSpec::advised_writebehind_engine`] to put the same pool
    /// behind a write-behind tier that re-advises at every base rebuild.
    AutoTuned {
        /// Requested partition count (see [`sosd_core::partition_points`]).
        shards: usize,
        /// The candidate pool the advisor picks from, per shard.
        candidates: Vec<IndexSpec>,
    },
}

impl EngineSpec {
    /// Configuration label for result rows.
    pub fn label<K: Key>(&self) -> String {
        match self {
            EngineSpec::Single(spec) => spec.label::<K>(),
            EngineSpec::Sharded { shards, inner } => {
                format!("sharded{}x[{}]", shards, inner.label::<K>())
            }
            EngineSpec::WriteBehind { shards, inner, delta, merge_threshold, policy } => {
                let base = EngineSpec::base_spec(*shards, *inner).label::<K>();
                match policy {
                    MergePolicy::Flat => format!("wb[{base}+{}@{merge_threshold}]", delta.token()),
                    MergePolicy::Leveled { fanout, max_levels } => format!(
                        "wb[{base}+{}@{merge_threshold},lvl{fanout}x{max_levels}]",
                        delta.token()
                    ),
                }
            }
            EngineSpec::Cached { capacity, stripes, negative, inner } => {
                let neg = if *negative { ",neg" } else { "" };
                format!("cached{capacity}x{stripes}{neg}[{}]", inner.label::<K>())
            }
            EngineSpec::Stored { storage, inner } => {
                // The path is deployment detail, not configuration
                // identity; result rows stay machine-independent.
                format!(
                    "stored[{},p{}][{}]",
                    storage.profile.name,
                    storage.page_size,
                    inner.label::<K>()
                )
            }
            EngineSpec::AutoTuned { shards, candidates } => {
                let pool: Vec<String> = candidates.iter().map(|c| c.family.name().into()).collect();
                format!("auto{}x[{}]", shards, pool.join("|"))
            }
        }
    }

    /// The inner index spec (the composite variants' per-partition /
    /// base index; for a cached spec, the innermost engine's; for an
    /// auto-tuned spec, the first candidate — the pool's representative,
    /// since the real per-shard winners are a build-time decision).
    pub fn inner_spec(&self) -> IndexSpec {
        match self {
            EngineSpec::Single(spec) => *spec,
            EngineSpec::Sharded { inner, .. } => *inner,
            EngineSpec::WriteBehind { inner, .. } => *inner,
            EngineSpec::Cached { inner, .. } => inner.inner_spec(),
            EngineSpec::Stored { inner, .. } => *inner,
            EngineSpec::AutoTuned { candidates, .. } => {
                candidates.first().copied().unwrap_or(IndexSpec::new(IndexParams::Bs))
            }
        }
    }

    /// The base layout of a write-behind spec as its own engine spec.
    fn base_spec(shards: usize, inner: IndexSpec) -> EngineSpec {
        if shards <= 1 {
            EngineSpec::Single(inner)
        } else {
            EngineSpec::Sharded { shards, inner }
        }
    }

    /// Build the serving-facing engine this spec describes.
    ///
    /// The write-behind variant is built in [`MergeMode::Background`]; use
    /// [`EngineSpec::writebehind_engine`] to pick the mode and reach the
    /// concrete write path.
    pub fn engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<Box<dyn QueryEngine<K>>, BuildError> {
        match self {
            EngineSpec::Single(spec) => spec.engine(data, strategy),
            EngineSpec::Sharded { .. } => Ok(Box::new(self.sharded_engine(data, strategy)?)),
            EngineSpec::WriteBehind { .. } => {
                Ok(Box::new(self.writebehind_engine(data, strategy, MergeMode::Background)?))
            }
            EngineSpec::Cached { .. } => Ok(Box::new(self.cached_engine(data, strategy)?)),
            EngineSpec::Stored { .. } => Ok(Box::new(self.paged_engine(data, strategy)?)),
            EngineSpec::AutoTuned { .. } => Ok(Box::new(self.advised_plan(data)?.engine)),
        }
    }

    /// Train an [`Advisor`] over this auto-tuned spec's candidate pool.
    /// Training builds and times every candidate on a small synthetic grid
    /// (tens of milliseconds); hold on to the advisor when advising more
    /// than once. Non-auto-tuned specs are rejected.
    pub fn advisor<K: Key>(&self) -> Result<Advisor<K>, BuildError> {
        let EngineSpec::AutoTuned { candidates, .. } = self else {
            return Err(BuildError::InvalidConfig("advisor needs an autotuned spec".into()));
        };
        Advisor::train(candidates.iter().map(IndexSpec::candidate).collect())
    }

    /// Build the advised heterogeneous engine together with the per-shard
    /// decisions that produced it (label, predicted cost, full score
    /// board). Non-auto-tuned specs are rejected.
    pub fn advised_plan<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
    ) -> Result<AdvisedPlan<K>, BuildError> {
        let EngineSpec::AutoTuned { shards, .. } = self else {
            return Err(BuildError::InvalidConfig("advised_plan needs an autotuned spec".into()));
        };
        self.advisor::<K>()?.advise(data, *shards, &Default::default())
    }

    /// Build a [`WriteBehindEngine`] whose base is *re-advised at every
    /// rebuild*: each merge reads `hub`'s current access snapshot (hot-key
    /// histogram, operation mix), re-scores the candidate pool per shard of
    /// the merged data, and publishes the winning labels back into the hub.
    /// Non-auto-tuned specs are rejected.
    pub fn advised_writebehind_engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        delta: DeltaKind,
        merge_threshold: usize,
        mode: MergeMode,
        hub: &Arc<ObservabilityHub<K>>,
    ) -> Result<WriteBehindEngine<K>, BuildError> {
        let EngineSpec::AutoTuned { shards, .. } = self else {
            return Err(BuildError::InvalidConfig(
                "advised_writebehind_engine needs an autotuned spec".into(),
            ));
        };
        let advisor = Arc::new(self.advisor::<K>()?);
        WriteBehindEngine::new(
            Arc::clone(data),
            advisor.base_factory(*shards, hub),
            delta.factory::<K>(),
            merge_threshold,
            mode,
        )
    }

    /// Build as a concrete [`CachedEngine`] over the nested inner engine,
    /// exposing the cache surface (hit/miss counters, `invalidate`) the
    /// boxed trait object hides. Non-cached specs are rejected.
    pub fn cached_engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<CachedEngine<K>, BuildError> {
        let EngineSpec::Cached { capacity, stripes, negative, inner } = self else {
            return Err(BuildError::InvalidConfig("cached_engine needs a cached spec".into()));
        };
        CachedEngine::with_negative(inner.engine(data, strategy)?, *capacity, *stripes, *negative)
    }

    /// Build as a concrete [`ShardedEngine`] (a single spec becomes one
    /// shard; an auto-tuned spec becomes its advised heterogeneous
    /// engine), exposing the parallel batch path the boxed trait object
    /// hides. Write-behind specs are rejected — their delta tier cannot be
    /// expressed as a shard.
    pub fn sharded_engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<ShardedEngine<K>, BuildError> {
        let (shards, inner) = match self {
            EngineSpec::Single(spec) => (1, *spec),
            EngineSpec::Sharded { shards, inner } => (*shards, *inner),
            EngineSpec::AutoTuned { .. } => return Ok(self.advised_plan(data)?.engine),
            EngineSpec::WriteBehind { .. }
            | EngineSpec::Cached { .. }
            | EngineSpec::Stored { .. } => {
                return Err(BuildError::InvalidConfig(
                    "only single/sharded/autotuned specs build as a sharded engine".into(),
                ))
            }
        };
        if shards == 1 {
            // One shard needs no partition copies: share the caller's Arc.
            return ShardedEngine::from_engines(vec![inner.engine(data, strategy)?], Vec::new());
        }
        ShardedEngine::build_with(data, shards, |part| inner.engine(&Arc::new(part), strategy))
    }

    /// Build as a concrete [`WriteBehindEngine`] with the given merge mode,
    /// exposing the write path (`insert` / `force_merge`) — and the
    /// snapshot surface ([`WriteBehindEngine::snapshot`] pinned views,
    /// [`WriteBehindEngine::fingerprint`] replica comparison) — that the
    /// boxed trait object hides.
    ///
    /// The base factory re-runs this spec's base layout (single or sharded)
    /// at every merge, so a sharded write-behind base is re-partitioned
    /// over the merged data each cycle.
    pub fn writebehind_engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
        mode: MergeMode,
    ) -> Result<WriteBehindEngine<K>, BuildError> {
        let &EngineSpec::WriteBehind { shards, inner, delta, merge_threshold, policy } = self
        else {
            return Err(BuildError::InvalidConfig(
                "writebehind_engine needs a write-behind spec".into(),
            ));
        };
        let base = EngineSpec::base_spec(shards, inner);
        let base_factory: BaseFactory<K> =
            Arc::new(move |d: Arc<SortedData<K>>| base.engine(&d, strategy));
        WriteBehindEngine::with_policy(
            Arc::clone(data),
            base_factory,
            delta.factory::<K>(),
            merge_threshold,
            mode,
            policy,
        )
    }

    /// Build as a concrete [`PagedEngine`]: serialize `data` into the
    /// configured block store (a [`FileStore`] snapshot when the spec names
    /// a path, an anonymous [`MemStore`] otherwise), re-open it under the
    /// configured profile, and serve page-granular with the inner index
    /// model held in RAM. Non-stored specs are rejected.
    pub fn paged_engine<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<PagedEngine<K>, BuildError> {
        let EngineSpec::Stored { storage, inner } = self else {
            return Err(BuildError::InvalidConfig("paged_engine needs a stored spec".into()));
        };
        let snap =
            |e: sosd_core::StoreError| BuildError::Unbuildable(format!("snapshot failed: {e}"));
        let store: Arc<dyn BlockStore> = match &storage.path {
            Some(path) => {
                let mut file = FileStore::create(std::path::Path::new(path), storage.page_size)
                    .map_err(snap)?;
                write_snapshot(&mut file, data, &[]).map_err(snap)?;
                file.flush().map_err(snap)?;
                storage.share(file)
            }
            None => {
                let mut mem = MemStore::new(storage.page_size).map_err(snap)?;
                write_snapshot(&mut mem, data, &[]).map_err(snap)?;
                storage.share(mem)
            }
        };
        let paged = Arc::new(PagedData::open(store).map_err(snap)?);
        let index = inner.builder::<K>().build_boxed(data)?;
        Ok(PagedEngine::with_strategy(index, paged, strategy))
    }

    /// Re-open an existing snapshot file cold — no source data needed: the
    /// snapshot's validated key section is streamed once to rebuild the
    /// inner index model, then serving reads stay page-granular. The page
    /// size recorded in the snapshot header wins over the spec's. Only
    /// stored specs with a `path` can cold-open.
    pub fn cold_open_engine<K: Key>(
        &self,
        strategy: SearchStrategy,
    ) -> Result<PagedEngine<K>, BuildError> {
        let EngineSpec::Stored { storage, inner } = self else {
            return Err(BuildError::InvalidConfig("cold_open_engine needs a stored spec".into()));
        };
        let Some(path) = &storage.path else {
            return Err(BuildError::InvalidConfig(
                "cold open needs a snapshot `path` (memory stores do not survive a restart)".into(),
            ));
        };
        let paged = PagedData::open_file(std::path::Path::new(path), storage.profile)
            .map_err(|e| BuildError::Unbuildable(format!("snapshot open failed: {e}")))?;
        let builder = inner.builder::<K>();
        PagedEngine::open_with(Arc::new(paged), strategy, |d| builder.build_boxed(d))
    }
}

impl Serialize for EngineSpec {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        match self {
            EngineSpec::Single(spec) => spec.to_value(),
            EngineSpec::Sharded { shards, inner } => Value::Object(vec![
                ("family".into(), Value::Str("sharded".into())),
                (
                    "params".into(),
                    Value::Object(vec![
                        ("shards".into(), Value::UInt(*shards as u64)),
                        ("inner".into(), inner.to_value()),
                    ]),
                ),
            ]),
            EngineSpec::WriteBehind { shards, inner, delta, merge_threshold, policy } => {
                let mut params = vec![
                    ("inner".into(), EngineSpec::base_spec(*shards, *inner).to_value()),
                    ("delta".into(), Value::Str(delta.token().into())),
                    ("merge_threshold".into(), Value::UInt(*merge_threshold as u64)),
                ];
                match policy {
                    MergePolicy::Flat => {
                        params.push(("policy".into(), Value::Str("flat".into())));
                    }
                    MergePolicy::Leveled { fanout, max_levels } => {
                        params.push(("policy".into(), Value::Str("leveled".into())));
                        params.push(("fanout".into(), Value::UInt(*fanout as u64)));
                        params.push(("max_levels".into(), Value::UInt(*max_levels as u64)));
                    }
                }
                Value::Object(vec![
                    ("family".into(), Value::Str("writebehind".into())),
                    ("params".into(), Value::Object(params)),
                ])
            }
            EngineSpec::Cached { capacity, stripes, negative, inner } => {
                let mut params = vec![
                    ("capacity".into(), Value::UInt(*capacity as u64)),
                    ("stripes".into(), Value::UInt(*stripes as u64)),
                ];
                if *negative {
                    // Emitted only when set, so pre-negative spec files and
                    // their JSON forms stay byte-identical.
                    params.push(("negative".into(), Value::Bool(true)));
                }
                params.push(("inner".into(), inner.to_value()));
                Value::Object(vec![
                    ("family".into(), Value::Str("cached".into())),
                    ("params".into(), Value::Object(params)),
                ])
            }
            EngineSpec::Stored { storage, inner } => {
                let mut params = vec![
                    ("profile".into(), Value::Str(storage.profile.name.into())),
                    ("page_size".into(), Value::UInt(storage.page_size as u64)),
                ];
                if let Some(path) = &storage.path {
                    params.push(("path".into(), Value::Str(path.clone())));
                }
                params.push(("inner".into(), inner.to_value()));
                Value::Object(vec![
                    ("family".into(), Value::Str("stored".into())),
                    ("params".into(), Value::Object(params)),
                ])
            }
            EngineSpec::AutoTuned { shards, candidates } => Value::Object(vec![
                ("family".into(), Value::Str("autotuned".into())),
                (
                    "params".into(),
                    Value::Object(vec![
                        ("shards".into(), Value::UInt(*shards as u64)),
                        (
                            "candidates".into(),
                            Value::Array(candidates.iter().map(Serialize::to_value).collect()),
                        ),
                    ]),
                ),
            ]),
        }
    }
}

impl Deserialize for EngineSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let family = v
            .get_field("family")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom("spec missing `family`"))?;
        match family {
            "sharded" => {
                let params = v
                    .get_field("params")
                    .ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
                let shards = params
                    .get_field("shards")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("sharded needs `shards`"))?;
                if shards == 0 {
                    return Err(serde::Error::custom("sharded needs `shards` >= 1"));
                }
                let inner = params
                    .get_field("inner")
                    .ok_or_else(|| serde::Error::custom("sharded needs `inner`"))?;
                Ok(EngineSpec::Sharded {
                    shards: shards as usize,
                    inner: IndexSpec::from_value(inner)?,
                })
            }
            "writebehind" => {
                let params = v
                    .get_field("params")
                    .ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
                let inner_value = params
                    .get_field("inner")
                    .ok_or_else(|| serde::Error::custom("writebehind needs `inner`"))?;
                // The base is itself an engine spec (single or sharded);
                // nesting another write-behind tier, a cache, or an
                // advisor pool is rejected (an advised base is built
                // programmatically via `advised_writebehind_engine`, not
                // from spec JSON — its base layout is a build-time
                // decision, not configuration).
                let (shards, inner) = match EngineSpec::from_value(inner_value)? {
                    EngineSpec::Single(spec) => (1, spec),
                    EngineSpec::Sharded { shards, inner } => (shards, inner),
                    EngineSpec::WriteBehind { .. }
                    | EngineSpec::Cached { .. }
                    | EngineSpec::Stored { .. }
                    | EngineSpec::AutoTuned { .. } => {
                        return Err(serde::Error::custom(
                            "writebehind bases must be single or sharded specs",
                        ))
                    }
                };
                let delta_token = params
                    .get_field("delta")
                    .and_then(serde::Value::as_str)
                    .ok_or_else(|| serde::Error::custom("writebehind needs `delta`"))?;
                let delta = DeltaKind::parse(delta_token).ok_or_else(|| {
                    serde::Error::custom(format!("unknown delta kind `{delta_token}`"))
                })?;
                let merge_threshold = params
                    .get_field("merge_threshold")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("writebehind needs `merge_threshold`"))?;
                if merge_threshold == 0 {
                    return Err(serde::Error::custom("writebehind needs `merge_threshold` >= 1"));
                }
                // Keys retired in PR 23 (docs/FORMATS.md). This codec reads
                // named fields only, so without the check a spec asking for
                // `"filter":"fence"` would quietly be served Bloom.
                for retired in ["filter", "rewrite_live_pct", "read_amp_watermark"] {
                    if params.get_field(retired).is_some() {
                        return Err(serde::Error::custom(format!(
                            "writebehind `{retired}` was retired in PR 23: every run carries a \
                             Bloom filter, and the density-rewrite and read-amp triggers are gone"
                        )));
                    }
                }
                // `policy` is optional for backward compatibility: specs
                // written before leveled merges existed are flat.
                let policy = match params.get_field("policy").map(|p| {
                    p.as_str().ok_or_else(|| serde::Error::custom("`policy` must be a string"))
                }) {
                    None => MergePolicy::Flat,
                    Some(token) => match token? {
                        "flat" => MergePolicy::Flat,
                        "leveled" => {
                            let knob = |name: &str| -> Result<u64, serde::Error> {
                                params.get_field(name).and_then(serde::Value::as_u64).ok_or_else(
                                    || {
                                        serde::Error::custom(format!(
                                            "leveled policy needs `{name}`"
                                        ))
                                    },
                                )
                            };
                            let policy = MergePolicy::leveled(
                                knob("fanout")? as usize,
                                knob("max_levels")? as usize,
                            );
                            // Validity rules live on MergePolicy itself —
                            // one source of truth with the engine.
                            policy.validate().map_err(serde::Error::custom)?;
                            policy
                        }
                        other => {
                            return Err(serde::Error::custom(format!(
                                "unknown merge policy `{other}`"
                            )))
                        }
                    },
                };
                Ok(EngineSpec::WriteBehind {
                    shards,
                    inner,
                    delta,
                    merge_threshold: merge_threshold as usize,
                    policy,
                })
            }
            "cached" => {
                let params = v
                    .get_field("params")
                    .ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
                let capacity = params
                    .get_field("capacity")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("cached needs `capacity`"))?;
                if capacity == 0 {
                    return Err(serde::Error::custom("cached needs `capacity` >= 1"));
                }
                let stripes = params
                    .get_field("stripes")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("cached needs `stripes`"))?;
                if stripes == 0 {
                    return Err(serde::Error::custom("cached needs `stripes` >= 1"));
                }
                // Optional for backward compatibility: specs written before
                // negative caching existed cache present keys only.
                let negative = match params.get_field("negative") {
                    None => false,
                    Some(serde::Value::Bool(b)) => *b,
                    Some(_) => return Err(serde::Error::custom("`negative` must be a bool")),
                };
                let inner_value = params
                    .get_field("inner")
                    .ok_or_else(|| serde::Error::custom("cached needs `inner`"))?;
                let inner = EngineSpec::from_value(inner_value)?;
                if matches!(inner, EngineSpec::Cached { .. }) {
                    return Err(serde::Error::custom("cached tiers cannot nest another cache"));
                }
                Ok(EngineSpec::Cached {
                    capacity: capacity as usize,
                    stripes: stripes as usize,
                    negative,
                    inner: Box::new(inner),
                })
            }
            "stored" => {
                let params = v
                    .get_field("params")
                    .ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
                let token = params
                    .get_field("profile")
                    .and_then(serde::Value::as_str)
                    .ok_or_else(|| serde::Error::custom("stored needs `profile`"))?;
                let profile = StorageProfile::parse(token).ok_or_else(|| {
                    serde::Error::custom(format!("unknown storage profile `{token}`"))
                })?;
                let page_size = params
                    .get_field("page_size")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("stored needs `page_size`"))?
                    as usize;
                // Layout rules live in the store — one source of truth
                // with snapshot serialization.
                sosd_core::store::validate_page_size(page_size)
                    .map_err(|e| serde::Error::custom(e.to_string()))?;
                let path = match params.get_field("path") {
                    None => None,
                    Some(serde::Value::Str(s)) => Some(s.clone()),
                    Some(_) => return Err(serde::Error::custom("`path` must be a string")),
                };
                let inner_value = params
                    .get_field("inner")
                    .ok_or_else(|| serde::Error::custom("stored needs `inner`"))?;
                // The model layer is a plain index spec; serving tiers
                // compose over storage, not under it.
                let inner = match EngineSpec::from_value(inner_value)? {
                    EngineSpec::Single(spec) => spec,
                    _ => {
                        return Err(serde::Error::custom("stored inner must be a plain index spec"))
                    }
                };
                Ok(EngineSpec::Stored { storage: StorageSpec { profile, page_size, path }, inner })
            }
            "autotuned" => {
                let params = v
                    .get_field("params")
                    .ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
                let shards = params
                    .get_field("shards")
                    .and_then(serde::Value::as_u64)
                    .ok_or_else(|| serde::Error::custom("autotuned needs `shards`"))?;
                if shards == 0 {
                    return Err(serde::Error::custom("autotuned needs `shards` >= 1"));
                }
                let candidates = match params.get_field("candidates") {
                    Some(serde::Value::Array(items)) => {
                        items.iter().map(IndexSpec::from_value).collect::<Result<Vec<_>, _>>()?
                    }
                    Some(_) => {
                        return Err(serde::Error::custom("`candidates` must be an array"));
                    }
                    None => {
                        return Err(serde::Error::custom("autotuned needs `candidates`"));
                    }
                };
                if candidates.is_empty() {
                    return Err(serde::Error::custom("autotuned needs at least one candidate"));
                }
                Ok(EngineSpec::AutoTuned { shards: shards as usize, candidates })
            }
            _ => IndexSpec::from_value(v).map(EngineSpec::Single),
        }
    }
}

/// Serving-front-end configuration: the serializable twin of
/// [`SchedulerConfig`], one layer above [`EngineSpec`] — an engine spec
/// pins down what answers lookups, a scheduler spec pins down how
/// open-loop requests reach it (wave batching, worker pool, admission
/// control). JSON form:
///
/// ```json
/// { "wave_size": 32, "linger_us": 100, "workers": 2, "queue_cap": 4096 }
/// ```
///
/// [`SchedulerSpec::scheduler`] builds the full serving stack from a spec
/// pair; when the engine spec is cached, the scheduler's hit-fast path is
/// wired to the *same* cache instance's non-filling
/// [`CachedEngine::peek`], so a cached key is answered at submit time
/// instead of riding a miss wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchedulerSpec {
    /// Maximum keys per dispatched wave.
    pub wave_size: usize,
    /// Longest a partial wave waits for company (microseconds, from its
    /// oldest request's enqueue).
    pub linger_us: u64,
    /// Worker threads dispatching waves.
    pub workers: usize,
    /// Ingest queue bound; submits beyond it are shed.
    pub queue_cap: usize,
}

impl SchedulerSpec {
    /// The one-request-per-call baseline at the same pool size: waves of
    /// one, no linger — what a serving layer without batching does.
    pub fn naive(workers: usize, queue_cap: usize) -> Self {
        SchedulerSpec { wave_size: 1, linger_us: 0, workers, queue_cap }
    }

    /// Configuration label for result rows, e.g. `sched[w32,l100us,t2,q4096]`.
    pub fn label(&self) -> String {
        format!(
            "sched[w{},l{}us,t{},q{}]",
            self.wave_size, self.linger_us, self.workers, self.queue_cap
        )
    }

    /// The runtime configuration this spec describes.
    pub fn config(&self) -> SchedulerConfig {
        SchedulerConfig {
            wave_size: self.wave_size,
            linger: std::time::Duration::from_micros(self.linger_us),
            workers: self.workers,
            queue_cap: self.queue_cap,
        }
    }

    /// Build the full serving stack: the engine `engine_spec` describes,
    /// fronted by a [`RequestScheduler`] with this spec's configuration.
    ///
    /// A cached engine spec additionally wires the scheduler's hit-fast
    /// path to the built cache's [`CachedEngine::peek`] — the probe and
    /// the served engine share one cache instance, so a fast-path answer
    /// is exactly what the wave path would have returned.
    pub fn scheduler<K: Key>(
        &self,
        engine_spec: &EngineSpec,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<RequestScheduler<K>, BuildError> {
        if matches!(engine_spec, EngineSpec::Cached { .. }) {
            let cached = Arc::new(engine_spec.cached_engine(data, strategy)?);
            let probe: FastProbe<K> = {
                let cache = Arc::clone(&cached);
                Arc::new(move |key| cache.peek(key))
            };
            RequestScheduler::with_fast_path(
                cached as Arc<dyn QueryEngine<K>>,
                self.config(),
                probe,
            )
        } else {
            let engine: Arc<dyn QueryEngine<K>> = Arc::from(engine_spec.engine(data, strategy)?);
            RequestScheduler::new(engine, self.config())
        }
    }
}

impl Serialize for SchedulerSpec {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        Value::Object(vec![
            ("wave_size".into(), Value::UInt(self.wave_size as u64)),
            ("linger_us".into(), Value::UInt(self.linger_us)),
            ("workers".into(), Value::UInt(self.workers as u64)),
            ("queue_cap".into(), Value::UInt(self.queue_cap as u64)),
        ])
    }
}

impl Deserialize for SchedulerSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let knob = |name: &str| -> Result<u64, serde::Error> {
            v.get_field(name)
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| serde::Error::custom(format!("scheduler spec needs `{name}`")))
        };
        let spec = SchedulerSpec {
            wave_size: knob("wave_size")? as usize,
            linger_us: knob("linger_us")?,
            workers: knob("workers")? as usize,
            queue_cap: knob("queue_cap")? as usize,
        };
        // Reuse the runtime validation — one source of truth with serve.
        spec.config()
            .validate()
            .map_err(|e| serde::Error::custom(format!("invalid scheduler spec: {e}")))?;
        Ok(spec)
    }
}

impl Serialize for IndexSpec {
    fn to_value(&self) -> serde::Value {
        use serde::Value;
        let mut params: Vec<(String, Value)> = Vec::new();
        match self.params {
            IndexParams::Rmi { root, leaf, branch } => {
                params.push(("root".into(), Value::Str(root.label().into())));
                params.push(("leaf".into(), Value::Str(leaf.label().into())));
                params.push(("branch".into(), Value::UInt(branch as u64)));
            }
            IndexParams::Pgm { eps, eps_internal } => {
                params.push(("eps".into(), Value::UInt(eps)));
                params.push(("eps_internal".into(), Value::UInt(eps_internal)));
            }
            IndexParams::Rs { eps, radix_bits } => {
                params.push(("eps".into(), Value::UInt(eps)));
                params.push(("radix_bits".into(), Value::UInt(radix_bits as u64)));
            }
            IndexParams::BTree { stride, fanout } | IndexParams::IbTree { stride, fanout } => {
                params.push(("stride".into(), Value::UInt(stride as u64)));
                params.push(("fanout".into(), Value::UInt(fanout as u64)));
            }
            IndexParams::Fast { stride }
            | IndexParams::Art { stride }
            | IndexParams::Fst { stride }
            | IndexParams::Wormhole { stride } => {
                params.push(("stride".into(), Value::UInt(stride as u64)));
            }
            IndexParams::Rbs { radix_bits } => {
                params.push(("radix_bits".into(), Value::UInt(radix_bits as u64)));
            }
            IndexParams::Bs | IndexParams::CuckooMap | IndexParams::RobinHash => {}
            IndexParams::Fiting { eps } => {
                params.push(("eps".into(), Value::UInt(eps)));
            }
        }
        // Derive the family from params so even a hand-assembled spec with
        // a mismatched `family` field serializes self-consistently.
        let family = IndexSpec::new(self.params).family;
        Value::Object(vec![
            ("family".into(), Value::Str(family.name().into())),
            ("params".into(), Value::Object(params)),
        ])
    }
}

impl Deserialize for IndexSpec {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let family_name = v
            .get_field("family")
            .and_then(serde::Value::as_str)
            .ok_or_else(|| serde::Error::custom("spec missing `family`"))?;
        let family = Family::parse(family_name)
            .ok_or_else(|| serde::Error::custom(format!("unknown family `{family_name}`")))?;
        let params =
            v.get_field("params").ok_or_else(|| serde::Error::custom("spec missing `params`"))?;
        let knob = |name: &str| -> Result<u64, serde::Error> {
            params
                .get_field(name)
                .and_then(serde::Value::as_u64)
                .ok_or_else(|| serde::Error::custom(format!("{family_name} needs `{name}`")))
        };
        let model = |name: &str| -> Result<ModelKind, serde::Error> {
            let label = params
                .get_field(name)
                .and_then(serde::Value::as_str)
                .ok_or_else(|| serde::Error::custom(format!("{family_name} needs `{name}`")))?;
            ModelKind::parse(label)
                .ok_or_else(|| serde::Error::custom(format!("unknown model kind `{label}`")))
        };
        let params = match family {
            Family::Rmi => IndexParams::Rmi {
                root: model("root")?,
                leaf: model("leaf")?,
                branch: knob("branch")? as usize,
            },
            Family::Pgm => {
                IndexParams::Pgm { eps: knob("eps")?, eps_internal: knob("eps_internal")? }
            }
            Family::Rs => {
                IndexParams::Rs { eps: knob("eps")?, radix_bits: knob("radix_bits")? as u32 }
            }
            Family::BTree => IndexParams::BTree {
                stride: knob("stride")? as usize,
                fanout: knob("fanout")? as usize,
            },
            Family::IbTree => IndexParams::IbTree {
                stride: knob("stride")? as usize,
                fanout: knob("fanout")? as usize,
            },
            Family::Fast => IndexParams::Fast { stride: knob("stride")? as usize },
            Family::Art => IndexParams::Art { stride: knob("stride")? as usize },
            Family::Fst => IndexParams::Fst { stride: knob("stride")? as usize },
            Family::Wormhole => IndexParams::Wormhole { stride: knob("stride")? as usize },
            Family::Rbs => IndexParams::Rbs { radix_bits: knob("radix_bits")? as u32 },
            Family::Bs => IndexParams::Bs,
            Family::CuckooMap => IndexParams::CuckooMap,
            Family::RobinHash => IndexParams::RobinHash,
            Family::Fiting => IndexParams::Fiting { eps: knob("eps")? },
        };
        Ok(IndexSpec { family, params })
    }
}

impl Family {
    /// The families plotted in Figure 7 (ordered indexes).
    pub const FIGURE7: [Family; 8] = [
        Family::Rmi,
        Family::Pgm,
        Family::Rs,
        Family::Rbs,
        Family::Art,
        Family::BTree,
        Family::IbTree,
        Family::Fast,
    ];

    /// The learned index families evaluated by the paper.
    pub const LEARNED: [Family; 3] = [Family::Rmi, Family::Pgm, Family::Rs];

    /// All learned families including the FITing-Tree extension.
    pub const LEARNED_EXTENDED: [Family; 4] =
        [Family::Rmi, Family::Pgm, Family::Rs, Family::Fiting];

    /// All families of the paper's Table 1 (exactly its 13 techniques).
    pub const ALL: [Family; 13] = [
        Family::Pgm,
        Family::Rs,
        Family::Rmi,
        Family::BTree,
        Family::IbTree,
        Family::Fast,
        Family::Art,
        Family::Fst,
        Family::Wormhole,
        Family::CuckooMap,
        Family::RobinHash,
        Family::Rbs,
        Family::Bs,
    ];

    /// Table 1's techniques plus the extension families.
    pub const EXTENDED: [Family; 14] = [
        Family::Pgm,
        Family::Rs,
        Family::Rmi,
        Family::Fiting,
        Family::BTree,
        Family::IbTree,
        Family::Fast,
        Family::Art,
        Family::Fst,
        Family::Wormhole,
        Family::CuckooMap,
        Family::RobinHash,
        Family::Rbs,
        Family::Bs,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            Family::Pgm => "PGM",
            Family::Rs => "RS",
            Family::Rmi => "RMI",
            Family::BTree => "BTree",
            Family::IbTree => "IBTree",
            Family::Fast => "FAST",
            Family::Art => "ART",
            Family::Fst => "FST",
            Family::Wormhole => "Wormhole",
            Family::CuckooMap => "CuckooMap",
            Family::RobinHash => "RobinHash",
            Family::Rbs => "RBS",
            Family::Bs => "BS",
            Family::Fiting => "FITing",
        }
    }

    /// Inverse of [`Family::name`] (spec deserialization).
    pub fn parse(name: &str) -> Option<Family> {
        Family::EXTENDED.into_iter().find(|f| f.name() == name)
    }

    /// Whether the family supports ordered (lower-bound/range) lookups —
    /// the static half of every technique's Table 1 capability row.
    pub fn ordered(self) -> bool {
        !matches!(self, Family::CuckooMap | Family::RobinHash)
    }

    /// The family's size sweep as specs (up to ~10 configurations, small to
    /// large). Knobs that depend on the key width (radix bits) are clamped
    /// here, and configurations that clamp to the same point are
    /// deduplicated so sweeps never measure one variant twice.
    pub fn sweep_specs<K: Key>(self) -> Vec<IndexSpec> {
        let specs: Vec<IndexSpec> = match self {
            Family::Rmi => (6..=24)
                .step_by(2)
                .map(|b| IndexParams::Rmi {
                    root: ModelKind::Cubic,
                    leaf: ModelKind::Linear,
                    branch: 1usize << b,
                })
                .map(IndexSpec::new)
                .collect(),
            Family::Pgm => PgmBuilder::size_sweep()
                .into_iter()
                .rev() // small to large
                .map(|b| {
                    IndexSpec::new(IndexParams::Pgm { eps: b.eps, eps_internal: b.eps_internal })
                })
                .collect(),
            Family::Rs => RsBuilder::size_sweep()
                .into_iter()
                .map(|b| {
                    IndexSpec::new(IndexParams::Rs {
                        eps: b.eps,
                        radix_bits: b.radix_bits.min(K::BITS).min(28),
                    })
                })
                .collect(),
            Family::BTree => sosd_btree::BTreeBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::BTree { stride: b.stride, fanout: b.fanout }))
                .collect(),
            Family::IbTree => sosd_btree::IbTreeBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::IbTree { stride: b.stride, fanout: b.fanout }))
                .collect(),
            Family::Fast => FastBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::Fast { stride: b.stride }))
                .collect(),
            Family::Art => sosd_art::ArtBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::Art { stride: b.stride }))
                .collect(),
            Family::Fst => FstBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::Fst { stride: b.stride }))
                .collect(),
            Family::Wormhole => WormholeBuilder::size_sweep()
                .into_iter()
                .rev()
                .map(|b| IndexSpec::new(IndexParams::Wormhole { stride: b.stride }))
                .collect(),
            Family::Rbs => (4..=26)
                .step_by(2)
                .map(|r| IndexSpec::new(IndexParams::Rbs { radix_bits: r.min(K::BITS).min(28) }))
                .collect(),
            Family::Bs => vec![IndexSpec::new(IndexParams::Bs)],
            Family::CuckooMap => vec![IndexSpec::new(IndexParams::CuckooMap)],
            Family::RobinHash => vec![IndexSpec::new(IndexParams::RobinHash)],
            Family::Fiting => FitingTreeBuilder::size_sweep()
                .into_iter()
                .map(|b| IndexSpec::new(IndexParams::Fiting { eps: b.eps }))
                .collect(),
        };
        // Key-width clamping can fold adjacent sweep points onto the same
        // configuration; keep the first of each.
        let mut seen = std::collections::HashSet::new();
        specs.into_iter().filter(|s| seen.insert(*s)).collect()
    }

    /// The family's single "reasonable default" configuration, used by
    /// experiments that fix the size budget (Figures 14-16).
    pub fn default_spec<K: Key>(self) -> IndexSpec {
        let rmi_default = RmiBuilder::default();
        IndexSpec::new(match self {
            Family::Rmi => IndexParams::Rmi {
                root: rmi_default.root_kind,
                leaf: rmi_default.leaf_kind,
                branch: rmi_default.branch,
            },
            Family::Pgm => {
                let b = PgmBuilder::default();
                IndexParams::Pgm { eps: b.eps, eps_internal: b.eps_internal }
            }
            Family::Rs => {
                let b = RsBuilder::default();
                IndexParams::Rs { eps: b.eps, radix_bits: b.radix_bits.min(K::BITS).min(28) }
            }
            Family::BTree => IndexParams::BTree { stride: 16, fanout: 16 },
            Family::IbTree => IndexParams::IbTree { stride: 16, fanout: 64 },
            Family::Fast => IndexParams::Fast { stride: 16 },
            Family::Art => IndexParams::Art { stride: 16 },
            Family::Fst => IndexParams::Fst { stride: 16 },
            Family::Wormhole => IndexParams::Wormhole { stride: 16 },
            Family::Rbs => IndexParams::Rbs { radix_bits: 18.min(K::BITS) },
            Family::Bs => IndexParams::Bs,
            Family::CuckooMap => IndexParams::CuckooMap,
            Family::RobinHash => IndexParams::RobinHash,
            Family::Fiting => IndexParams::Fiting { eps: 128 },
        })
    }

    /// The fastest-lookup variant of each family (Table 2 / Figure 17 use
    /// "the fastest variant of each index structure").
    pub fn fastest_spec<K: Key>(self) -> IndexSpec {
        IndexSpec::new(match self {
            Family::Rmi => IndexParams::Rmi {
                root: ModelKind::Cubic,
                leaf: ModelKind::Linear,
                branch: 1 << 18,
            },
            Family::Pgm => IndexParams::Pgm { eps: 16, eps_internal: 4 },
            Family::Rs => IndexParams::Rs { eps: 16, radix_bits: 20.min(K::BITS).min(28) },
            Family::BTree => IndexParams::BTree { stride: 1, fanout: 16 },
            Family::IbTree => IndexParams::IbTree { stride: 1, fanout: 64 },
            Family::Fast => IndexParams::Fast { stride: 1 },
            Family::Art => IndexParams::Art { stride: 1 },
            Family::Fst => IndexParams::Fst { stride: 1 },
            Family::Wormhole => IndexParams::Wormhole { stride: 1 },
            Family::Rbs => IndexParams::Rbs { radix_bits: 24.min(K::BITS).min(28) },
            Family::Bs => IndexParams::Bs,
            Family::CuckooMap => IndexParams::CuckooMap,
            Family::RobinHash => IndexParams::RobinHash,
            Family::Fiting => IndexParams::Fiting { eps: 16 },
        })
    }

    /// The family's size sweep as ready-to-run builders (spec-backed).
    pub fn sweep<K: Key>(self) -> Vec<Box<dyn DynBuilder<K>>> {
        self.sweep_specs::<K>().iter().map(IndexSpec::builder).collect()
    }

    /// Builder for [`Family::default_spec`].
    pub fn default_builder<K: Key>(self) -> Box<dyn DynBuilder<K>> {
        self.default_spec::<K>().builder()
    }

    /// Builder for [`Family::fastest_spec`].
    pub fn fastest_builder<K: Key>(self) -> Box<dyn DynBuilder<K>> {
        self.fastest_spec::<K>().builder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extended_is_all_plus_fiting() {
        assert_eq!(Family::EXTENDED.len(), Family::ALL.len() + 1);
        for f in Family::ALL {
            assert!(Family::EXTENDED.contains(&f), "{} missing from EXTENDED", f.name());
        }
        assert!(Family::EXTENDED.contains(&Family::Fiting));
        assert!(!Family::ALL.contains(&Family::Fiting), "Table 1 stays at 13 techniques");
    }

    #[test]
    fn every_family_builds_on_small_data() {
        let data = SortedData::new((0..10_000u64).map(|i| i * 3).collect()).unwrap();
        for family in Family::EXTENDED {
            let builder = family.default_builder::<u64>();
            let idx = builder.build_boxed(&data).unwrap_or_else(|e| {
                panic!("{} failed to build: {e}", family.name());
            });
            let b = idx.search_bound(7_500);
            assert!(b.contains(data.lower_bound(7_500)), "{}", family.name());
        }
    }

    #[test]
    fn sweeps_are_bounded_and_labelled() {
        for family in Family::FIGURE7 {
            let sweep = family.sweep::<u64>();
            assert!(!sweep.is_empty() && sweep.len() <= 12, "{}", family.name());
            for b in &sweep {
                assert!(!b.label().is_empty());
            }
        }
    }

    #[test]
    fn sweeps_build_for_u32() {
        let data = SortedData::new((0..5_000u32).map(|i| i * 7).collect()).unwrap();
        for family in [Family::Rmi, Family::Rs, Family::Pgm, Family::BTree, Family::Fast] {
            for b in family.sweep::<u32>().iter().take(2) {
                let idx = b.build_boxed(&data).unwrap();
                assert!(idx.search_bound(700u32).contains(data.lower_bound(700)));
            }
        }
    }

    #[test]
    fn sweep_labels_are_unique_per_family() {
        // Key-width clamping must never leave two identical sweep points
        // (the u32 instantiations clamp radix bits the furthest).
        for family in Family::EXTENDED {
            let labels64: Vec<String> =
                family.sweep_specs::<u64>().iter().map(|s| s.label::<u64>()).collect();
            let labels32: Vec<String> =
                family.sweep_specs::<u32>().iter().map(|s| s.label::<u32>()).collect();
            for labels in [labels64, labels32] {
                let mut dedup = labels.clone();
                dedup.sort();
                dedup.dedup();
                assert_eq!(dedup.len(), labels.len(), "{} sweep has duplicates", family.name());
            }
        }
    }

    #[test]
    fn specs_round_trip_through_json() {
        let data = SortedData::new((0..1_000u64).collect()).unwrap();
        for family in Family::EXTENDED {
            let mut specs = family.sweep_specs::<u64>();
            specs.push(family.default_spec::<u64>());
            specs.push(family.fastest_spec::<u64>());
            for spec in specs {
                let json = serde_json::to_string(&spec).unwrap();
                let back: IndexSpec = serde_json::from_str(&json).unwrap();
                assert_eq!(back, spec, "{json}");
                assert_eq!(back.label::<u64>(), spec.label::<u64>());
            }
            // Family names embedded in specs parse back.
            assert_eq!(Family::parse(family.name()), Some(family));
            // And a spec-built index answers a lookup.
            let idx = family.default_spec::<u64>().builder::<u64>().build_boxed(&data).unwrap();
            assert!(idx.search_bound(500).contains(data.lower_bound(500)));
        }
    }

    #[test]
    fn spec_engines_serve_lookups() {
        let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 2).collect()).unwrap());
        for family in Family::FIGURE7 {
            let engine = family
                .default_spec::<u64>()
                .engine(&data, SearchStrategy::Binary)
                .unwrap_or_else(|e| panic!("{}: {e}", family.name()));
            assert_eq!(engine.len(), data.len());
            let key = data.key(1_234);
            assert_eq!(engine.get(key), Some(data.payload(1_234)), "{}", family.name());
            assert_eq!(engine.get(key + 1), None, "{}", family.name());
            assert_eq!(
                engine.lower_bound(key + 1).map(|e| e.0),
                Some(key + 2),
                "{}",
                family.name()
            );
        }
    }

    #[test]
    fn ordered_flag_matches_capabilities() {
        let data = SortedData::new((0..2_000u64).collect()).unwrap();
        for family in Family::EXTENDED {
            let idx = family.default_builder::<u64>().build_boxed(&data).unwrap();
            assert_eq!(family.ordered(), idx.capabilities().ordered, "{}", family.name());
        }
    }

    #[test]
    fn hand_assembled_family_mismatch_cannot_survive_serialization() {
        // `params` drives behavior; serialization must emit the family the
        // params actually belong to, not a mismatched display field.
        let rogue =
            IndexSpec { family: Family::Bs, params: IndexParams::Pgm { eps: 64, eps_internal: 8 } };
        let json = serde_json::to_string(&rogue).unwrap();
        let back: IndexSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back.family, Family::Pgm);
        assert_eq!(back.params, rogue.params);
    }

    #[test]
    fn engine_specs_round_trip_and_parse_plain_index_specs() {
        let inner = Family::Pgm.default_spec::<u64>();
        for spec in [EngineSpec::Single(inner), EngineSpec::Sharded { shards: 8, inner }] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: EngineSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
        }
        // The sharded JSON shape is the documented one.
        let json = serde_json::to_string(&EngineSpec::Sharded { shards: 4, inner }).unwrap();
        assert!(json.contains("\"family\":\"sharded\""), "{json}");
        assert!(json.contains("\"shards\":4"), "{json}");
        assert!(json.contains("\"inner\":{"), "{json}");
        // Any plain index-spec JSON is a valid (single) engine spec.
        let plain = serde_json::to_string(&inner).unwrap();
        let engine_spec: EngineSpec = serde_json::from_str(&plain).unwrap();
        assert_eq!(engine_spec, EngineSpec::Single(inner));
        // Malformed sharded specs are rejected.
        for bad in [
            "{\"family\":\"sharded\",\"params\":{}}",
            "{\"family\":\"sharded\",\"params\":{\"shards\":0,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            "{\"family\":\"sharded\",\"params\":{\"shards\":2}}",
        ] {
            assert!(serde_json::from_str::<EngineSpec>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sharded_engine_specs_serve_lookups() {
        let data = Arc::new(SortedData::new((0..30_000u64).map(|i| i * 2).collect()).unwrap());
        for family in [Family::Rmi, Family::Pgm, Family::BTree] {
            let spec = EngineSpec::Sharded { shards: 4, inner: family.default_spec::<u64>() };
            let engine = spec
                .engine(&data, SearchStrategy::Binary)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label::<u64>()));
            assert_eq!(engine.len(), data.len(), "{}", family.name());
            let key = data.key(17_777);
            assert_eq!(engine.get(key), Some(data.payload(17_777)), "{}", family.name());
            assert_eq!(engine.get(key + 1), None, "{}", family.name());
            // The concrete construction exposes shard structure.
            let sharded = spec.sharded_engine(&data, SearchStrategy::Binary).unwrap();
            assert_eq!(sharded.num_shards(), 4, "{}", family.name());
            assert_eq!(
                sharded.par_lookup_batch(&[key, key + 1]),
                vec![Some(data.payload(17_777)), None],
                "{}",
                family.name()
            );
        }
        // A single spec builds as one shard.
        let single = EngineSpec::Single(Family::Bs.default_spec::<u64>());
        assert_eq!(single.sharded_engine(&data, SearchStrategy::Binary).unwrap().num_shards(), 1);
    }

    #[test]
    fn autotuned_specs_round_trip_and_reject_malformed() {
        let spec = EngineSpec::AutoTuned {
            shards: 4,
            candidates: vec![Family::Bs.default_spec::<u64>(), Family::Rbs.default_spec::<u64>()],
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: EngineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec, "{json}");
        // The documented JSON shape.
        assert!(json.contains("\"family\":\"autotuned\""), "{json}");
        assert!(json.contains("\"shards\":4"), "{json}");
        assert!(json.contains("\"candidates\":["), "{json}");
        // The label names the pool, not a winner.
        assert_eq!(spec.label::<u64>(), "auto4x[BS|RBS]");
        // Malformed variants are rejected.
        let bs = "{\"family\":\"BS\",\"params\":{}}";
        for bad in [
            "{\"family\":\"autotuned\",\"params\":{}}".to_string(),
            format!(
                "{{\"family\":\"autotuned\",\"params\":{{\"shards\":0,\"candidates\":[{bs}]}}}}"
            ),
            "{\"family\":\"autotuned\",\"params\":{\"shards\":2}}".to_string(),
            "{\"family\":\"autotuned\",\"params\":{\"shards\":2,\"candidates\":[]}}".to_string(),
            "{\"family\":\"autotuned\",\"params\":{\"shards\":2,\"candidates\":7}}".to_string(),
        ] {
            assert!(serde_json::from_str::<EngineSpec>(&bad).is_err(), "{bad}");
        }
        // An advisor pool cannot be a write-behind base in spec JSON; the
        // advised base is built programmatically.
        let wb = format!(
            "{{\"family\":\"writebehind\",\"params\":{{\"inner\":{json},\"delta\":\"btree\",\"merge_threshold\":64}}}}"
        );
        assert!(serde_json::from_str::<EngineSpec>(&wb).is_err(), "{wb}");
        // Non-auto-tuned specs are rejected by the advisor constructors.
        let data = Arc::new(SortedData::new((0..1_000u64).collect()).unwrap());
        let single = EngineSpec::Single(Family::Bs.default_spec::<u64>());
        assert!(single.advisor::<u64>().is_err());
        assert!(single.advised_plan(&data).is_err());
    }

    #[test]
    fn autotuned_specs_build_and_retune_behind_writebehind() {
        let data = Arc::new(SortedData::new((0..30_000u64).map(|i| i * 2).collect()).unwrap());
        let spec = EngineSpec::AutoTuned {
            shards: 4,
            candidates: vec![Family::Bs.default_spec::<u64>(), Family::Rbs.default_spec::<u64>()],
        };
        // The generic engine path serves lookups from the advised plan.
        let engine = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(engine.len(), data.len());
        assert_eq!(engine.get(data.key(17_777)), Some(data.payload(17_777)));
        assert_eq!(engine.get(1), None);
        // The plan exposes one pick per shard, each from the pool.
        let plan = spec.advised_plan(&data).unwrap();
        assert_eq!(plan.picks.len(), plan.engine.num_shards());
        let pool: Vec<String> = vec![
            Family::Bs.default_spec::<u64>().label::<u64>(),
            Family::Rbs.default_spec::<u64>().label::<u64>(),
        ];
        for pick in &plan.picks {
            assert!(pool.contains(&pick.label), "{} not in pool {pool:?}", pick.label);
            assert_eq!(pick.scores.len(), 2);
        }
        // Behind a write-behind tier the base re-advises at every rebuild.
        let hub = Arc::new(ObservabilityHub::<u64>::new());
        let wb = spec
            .advised_writebehind_engine(&data, DeltaKind::BTree, 1 << 20, MergeMode::Sync, &hub)
            .unwrap();
        assert_eq!(hub.retunes(), 1, "initial base build advises once");
        assert!(!hub.last_picks().is_empty());
        wb.insert(1, 111);
        wb.retune(&hub);
        assert_eq!(hub.retunes(), 2, "explicit retune re-advises");
        assert_eq!(wb.get(1), Some(111), "retune keeps the visible mapping");
        assert_eq!(wb.get(data.key(123)), Some(data.payload(123)));
    }

    /// The codec reads named fields only, so a retired key must be refused
    /// by name — `"filter":"fence"` silently served Bloom would be a lie.
    #[test]
    fn retired_writebehind_keys_are_rejected_by_name() {
        for (key, value) in [
            ("filter", "\"fence\""),
            ("filter", "\"bloom\""),
            ("rewrite_live_pct", "60"),
            ("read_amp_watermark", "3"),
        ] {
            for policy in ["\"policy\":\"leveled\",\"fanout\":4,\"max_levels\":2,", ""] {
                let json = format!(
                    "{{\"family\":\"writebehind\",\"params\":{{\"inner\":{{\"family\":\"BS\",\
                     \"params\":{{}}}},\"delta\":\"btree\",\"merge_threshold\":8,{policy}\
                     \"{key}\":{value}}}}}"
                );
                let err = serde_json::from_str::<EngineSpec>(&json).expect_err(&json).to_string();
                assert!(err.contains(&format!("`{key}`")), "{json}: {err}");
            }
        }
    }

    #[test]
    fn writebehind_specs_round_trip_and_build() {
        let inner = Family::Rmi.default_spec::<u64>();
        for spec in [
            EngineSpec::WriteBehind {
                shards: 1,
                inner,
                delta: DeltaKind::BTree,
                merge_threshold: 1024,
                policy: MergePolicy::Flat,
            },
            EngineSpec::WriteBehind {
                shards: 4,
                inner,
                delta: DeltaKind::Alex,
                merge_threshold: 64,
                policy: MergePolicy::Flat,
            },
            EngineSpec::WriteBehind {
                shards: 1,
                inner,
                delta: DeltaKind::BTree,
                merge_threshold: 256,
                policy: MergePolicy::leveled(4, 3),
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: EngineSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
            assert!(json.contains("\"family\":\"writebehind\""), "{json}");
            assert!(json.contains("\"merge_threshold\":"), "{json}");
            assert!(json.contains("\"policy\":"), "{json}");
            // Byte-identical to specs written before PR 23 retired the
            // leveled tuning keys: they were never emitted at default.
            assert!(!json.contains("\"filter\""), "{json}");
        }
        // The documented JSON shape parses, with a sharded base nested as a
        // full engine spec; a spec with no `policy` field (written before
        // leveled merges existed) parses as flat.
        let json = "{\"family\":\"writebehind\",\"params\":{\
                    \"inner\":{\"family\":\"sharded\",\"params\":{\"shards\":2,\
                    \"inner\":{\"family\":\"BS\",\"params\":{}}}},\
                    \"delta\":\"btree\",\"merge_threshold\":8}}";
        let spec: EngineSpec = serde_json::from_str(json).unwrap();
        assert_eq!(
            spec,
            EngineSpec::WriteBehind {
                shards: 2,
                inner: IndexSpec::new(IndexParams::Bs),
                delta: DeltaKind::BTree,
                merge_threshold: 8,
                policy: MergePolicy::Flat,
            }
        );
        // Malformed writebehind specs are rejected.
        for bad in [
            "{\"family\":\"writebehind\",\"params\":{}}",
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"BS\",\"params\":{}},\"delta\":\"nope\",\"merge_threshold\":8}}",
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"BS\",\"params\":{}},\"delta\":\"btree\",\"merge_threshold\":0}}",
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"BS\",\"params\":{}},\"delta\":\"btree\",\"merge_threshold\":8,\"policy\":\"nope\"}}",
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"BS\",\"params\":{}},\"delta\":\"btree\",\"merge_threshold\":8,\"policy\":\"leveled\"}}",
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"BS\",\"params\":{}},\"delta\":\"btree\",\"merge_threshold\":8,\"policy\":\"leveled\",\"fanout\":1,\"max_levels\":2}}",
        ] {
            assert!(serde_json::from_str::<EngineSpec>(bad).is_err(), "{bad}");
        }

        // Build and serve: inserts land in the delta, merges fold them in.
        let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 2).collect()).unwrap());
        let spec = EngineSpec::WriteBehind {
            shards: 2,
            inner: Family::Pgm.default_spec::<u64>(),
            delta: DeltaKind::BTree,
            merge_threshold: 100,
            policy: MergePolicy::Flat,
        };
        let wb = spec
            .writebehind_engine(&data, SearchStrategy::Binary, sosd_core::MergeMode::Sync)
            .unwrap();
        assert_eq!(wb.len(), data.len());
        for k in 0..250u64 {
            wb.insert(k * 2 + 1, k);
        }
        assert!(wb.merges_completed() >= 2, "got {}", wb.merges_completed());
        assert_eq!(wb.get(13), Some(6));
        assert_eq!(wb.get(12), Some(data.payload(6)));
        assert!(wb.name().starts_with("writebehind["), "{}", wb.name());
        // The boxed construction serves the same reads.
        let boxed = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(boxed.len(), data.len());
        assert_eq!(boxed.get(12), Some(data.payload(6)));
        // And non-writebehind specs cannot be built as one.
        assert!(EngineSpec::Single(inner)
            .writebehind_engine(&data, SearchStrategy::Binary, sosd_core::MergeMode::Sync)
            .is_err());
        assert!(spec.sharded_engine(&data, SearchStrategy::Binary).is_err());

        // A leveled spec builds, stacks runs instead of rebuilding the
        // base, and serves removes as tombstones.
        let leveled = EngineSpec::WriteBehind {
            shards: 1,
            inner: Family::Pgm.default_spec::<u64>(),
            delta: DeltaKind::BTree,
            merge_threshold: 100,
            policy: MergePolicy::leveled(4, 2),
        };
        assert!(leveled.label::<u64>().contains("lvl4x2"), "{}", leveled.label::<u64>());
        let wb = leveled
            .writebehind_engine(&data, SearchStrategy::Binary, sosd_core::MergeMode::Sync)
            .unwrap();
        for k in 0..250u64 {
            wb.insert(k * 2 + 1, k);
        }
        assert_eq!(wb.remove(12), Some(data.payload(6)));
        wb.wait_for_merges();
        assert!(wb.merges_completed() >= 2);
        assert!(wb.run_count() >= 1, "leveled merges must stack runs");
        assert_eq!(wb.base_len(), data.len(), "leveled merges must not rebuild the base");
        assert_eq!(wb.get(13), Some(6));
        assert_eq!(wb.get(12), None, "tombstone shadows the base record");
    }

    #[test]
    fn cached_specs_round_trip_and_build() {
        let inner = Family::Rmi.default_spec::<u64>();
        for spec in [
            EngineSpec::Cached {
                capacity: 1024,
                stripes: 8,
                negative: false,
                inner: Box::new(EngineSpec::Single(inner)),
            },
            EngineSpec::Cached {
                capacity: 64,
                stripes: 2,
                negative: true,
                inner: Box::new(EngineSpec::Sharded { shards: 4, inner }),
            },
            EngineSpec::Cached {
                capacity: 256,
                stripes: 4,
                negative: false,
                inner: Box::new(EngineSpec::WriteBehind {
                    shards: 1,
                    inner,
                    delta: DeltaKind::BTree,
                    merge_threshold: 512,
                    policy: MergePolicy::leveled(4, 2),
                }),
            },
        ] {
            let json = serde_json::to_string(&spec).unwrap();
            let back: EngineSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "{json}");
            assert!(json.contains("\"family\":\"cached\""), "{json}");
            assert!(json.contains("\"capacity\":"), "{json}");
            assert!(json.contains("\"stripes\":"), "{json}");
            assert_eq!(spec.inner_spec(), inner);
        }
        // Malformed cached specs are rejected.
        for bad in [
            "{\"family\":\"cached\",\"params\":{}}",
            "{\"family\":\"cached\",\"params\":{\"capacity\":0,\"stripes\":1,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            "{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":0,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            "{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":1}}",
            // Nesting a cache in a cache is config nonsense; rejected.
            "{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":1,\"inner\":{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":1,\"inner\":{\"family\":\"BS\",\"params\":{}}}}}}",
        ] {
            assert!(serde_json::from_str::<EngineSpec>(bad).is_err(), "{bad}");
        }

        // Build and serve: repeated gets hit the cache, and the concrete
        // construction exposes the stats surface.
        let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 2).collect()).unwrap());
        let spec = EngineSpec::Cached {
            capacity: 128,
            stripes: 4,
            negative: false,
            inner: Box::new(EngineSpec::Single(Family::Pgm.default_spec::<u64>())),
        };
        let cached = spec.cached_engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(cached.len(), data.len());
        assert_eq!(cached.get(24), Some(data.payload(12)));
        assert_eq!(cached.get(24), Some(data.payload(12)));
        assert_eq!(cached.hits(), 1);
        assert!(cached.name().starts_with("cached["), "{}", cached.name());
        // The boxed construction serves the same reads.
        let boxed = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(boxed.get(24), Some(data.payload(12)));
        assert_eq!(boxed.lookup_batch(&[24, 25]), vec![Some(data.payload(12)), None]);
        // And non-cached specs cannot be built as one.
        assert!(EngineSpec::Single(inner).cached_engine(&data, SearchStrategy::Binary).is_err());
        assert!(spec.sharded_engine(&data, SearchStrategy::Binary).is_err());
    }

    #[test]
    fn negative_flag_round_trips_and_defaults_off() {
        let inner = Family::Rmi.default_spec::<u64>();
        let spec = EngineSpec::Cached {
            capacity: 64,
            stripes: 2,
            negative: true,
            inner: Box::new(EngineSpec::Single(inner)),
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"negative\":true"), "{json}");
        assert_eq!(serde_json::from_str::<EngineSpec>(&json).unwrap(), spec);
        assert!(spec.label::<u64>().contains(",neg["), "{}", spec.label::<u64>());
        // A pre-negative spec (no field) parses as negative-off, and its
        // JSON never mentions the knob.
        let old = "{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":1,\
                   \"inner\":{\"family\":\"BS\",\"params\":{}}}}";
        let parsed: EngineSpec = serde_json::from_str(old).unwrap();
        assert!(matches!(parsed, EngineSpec::Cached { negative: false, .. }));
        assert!(!serde_json::to_string(&parsed).unwrap().contains("negative"));
        // Non-bool values are rejected.
        let bad = "{\"family\":\"cached\",\"params\":{\"capacity\":8,\"stripes\":1,\
                   \"negative\":1,\"inner\":{\"family\":\"BS\",\"params\":{}}}}";
        assert!(serde_json::from_str::<EngineSpec>(bad).is_err());
        // The built engine honors the flag.
        let data = Arc::new(SortedData::new((0..1_000u64).map(|i| i * 2).collect()).unwrap());
        let cached = spec.cached_engine(&data, SearchStrategy::Binary).unwrap();
        assert!(cached.negative_enabled());
        assert_eq!(cached.get(3), None);
        assert_eq!(cached.peek(3), Some(None), "absence was cached");
    }

    #[test]
    fn scheduler_specs_round_trip_and_serve() {
        let spec = SchedulerSpec { wave_size: 16, linger_us: 50, workers: 2, queue_cap: 512 };
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(json, "{\"wave_size\":16,\"linger_us\":50,\"workers\":2,\"queue_cap\":512}");
        assert_eq!(serde_json::from_str::<SchedulerSpec>(&json).unwrap(), spec);
        assert_eq!(spec.label(), "sched[w16,l50us,t2,q512]");
        assert_eq!(SchedulerSpec::naive(2, 512).config().wave_size, 1);
        // Zero knobs are rejected at parse time, same rule as the runtime.
        for bad in [
            "{\"wave_size\":0,\"linger_us\":0,\"workers\":1,\"queue_cap\":8}",
            "{\"wave_size\":1,\"linger_us\":0,\"workers\":0,\"queue_cap\":8}",
            "{\"wave_size\":1,\"linger_us\":0,\"workers\":1,\"queue_cap\":0}",
            "{\"wave_size\":1,\"linger_us\":0,\"workers\":1}",
        ] {
            assert!(serde_json::from_str::<SchedulerSpec>(bad).is_err(), "{bad}");
        }

        // Build the full stack over a plain engine spec…
        let data = Arc::new(SortedData::new((0..10_000u64).map(|i| i * 2).collect()).unwrap());
        let sched = spec
            .scheduler(
                &EngineSpec::Single(Family::Pgm.default_spec::<u64>()),
                &data,
                SearchStrategy::Binary,
            )
            .unwrap();
        assert_eq!(sched.submit(24).unwrap().wait(), Some(data.payload(12)));
        assert_eq!(sched.submit(25).unwrap().wait(), None);
        sched.wait_idle();
        assert_eq!(sched.stats().completed, 2);
        assert_eq!(sched.stats().fast_hits, 0, "plain engines have no fast path");

        // …and over a cached spec, whose peek becomes the fast path.
        let cached_spec = EngineSpec::Cached {
            capacity: 256,
            stripes: 4,
            negative: true,
            inner: Box::new(EngineSpec::Single(Family::Pgm.default_spec::<u64>())),
        };
        let sched = spec.scheduler(&cached_spec, &data, SearchStrategy::Binary).unwrap();
        assert_eq!(sched.submit(24).unwrap().wait(), Some(data.payload(12)));
        assert_eq!(sched.submit(25).unwrap().wait(), None);
        sched.wait_idle();
        let cold = sched.stats();
        assert_eq!(cold.fast_hits, 0, "cold cache: both keys rode waves");
        // Warm re-submits: the cache (negative mode) now answers both at
        // submit time.
        let r = sched.submit(24).unwrap();
        assert!(r.is_fast());
        assert_eq!(r.wait(), Some(data.payload(12)));
        let r = sched.submit(25).unwrap();
        assert!(r.is_fast(), "negative entry is a fast answer too");
        assert_eq!(r.wait(), None);
        sched.wait_idle();
        assert_eq!(sched.stats().fast_hits, 2);
    }

    #[test]
    fn every_delta_kind_constructs_and_inserts() {
        for kind in DeltaKind::ALL {
            let mut d = kind.make::<u64>();
            assert_eq!(d.len(), 0, "{}", kind.token());
            assert_eq!(d.insert(42, 7), None);
            assert_eq!(d.insert(42, 8), Some(7));
            assert_eq!(d.get(42), Some(8), "{}", kind.token());
            assert_eq!(DeltaKind::parse(kind.token()), Some(kind));
        }
        assert_eq!(DeltaKind::parse("nope"), None);
    }

    /// Drop guard for on-disk snapshot fixtures.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("sosd-registry-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn stored_specs_round_trip_and_build() {
        let inner = Family::Pgm.default_spec::<u64>();
        let spec = EngineSpec::Stored {
            storage: StorageSpec { profile: StorageProfile::NVME, page_size: 4096, path: None },
            inner,
        };
        // Round-trip through the documented JSON shape; the absent path
        // never appears.
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.contains("\"family\":\"stored\""), "{json}");
        assert!(json.contains("\"profile\":\"nvme\""), "{json}");
        assert!(json.contains("\"page_size\":4096"), "{json}");
        assert!(!json.contains("\"path\""), "{json}");
        assert_eq!(serde_json::from_str::<EngineSpec>(&json).unwrap(), spec);
        assert_eq!(spec.inner_spec(), inner);
        assert!(spec.label::<u64>().starts_with("stored[nvme,p4096]["), "{}", spec.label::<u64>());
        // A path round-trips when present.
        let pathed = EngineSpec::Stored {
            storage: StorageSpec {
                profile: StorageProfile::RAM,
                page_size: 512,
                path: Some("/tmp/snap.bin".into()),
            },
            inner,
        };
        let json = serde_json::to_string(&pathed).unwrap();
        assert!(json.contains("\"path\":\"/tmp/snap.bin\""), "{json}");
        assert_eq!(serde_json::from_str::<EngineSpec>(&json).unwrap(), pathed);
        // Malformed stored specs are rejected.
        for bad in [
            "{\"family\":\"stored\",\"params\":{}}",
            "{\"family\":\"stored\",\"params\":{\"profile\":\"tape\",\"page_size\":4096,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            "{\"family\":\"stored\",\"params\":{\"profile\":\"ram\",\"page_size\":100,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            "{\"family\":\"stored\",\"params\":{\"profile\":\"ram\",\"page_size\":4096}}",
            "{\"family\":\"stored\",\"params\":{\"profile\":\"ram\",\"page_size\":4096,\"path\":7,\"inner\":{\"family\":\"BS\",\"params\":{}}}}",
            // Serving tiers compose over storage, never under it.
            "{\"family\":\"stored\",\"params\":{\"profile\":\"ram\",\"page_size\":4096,\"inner\":{\"family\":\"sharded\",\"params\":{\"shards\":2,\"inner\":{\"family\":\"BS\",\"params\":{}}}}}}",
            // And write-behind bases cannot live on a storage tier.
            "{\"family\":\"writebehind\",\"params\":{\"inner\":{\"family\":\"stored\",\"params\":{\"profile\":\"ram\",\"page_size\":4096,\"inner\":{\"family\":\"BS\",\"params\":{}}}},\"delta\":\"btree\",\"merge_threshold\":8}}",
        ] {
            assert!(serde_json::from_str::<EngineSpec>(bad).is_err(), "{bad}");
        }

        // Build and serve from an anonymous memory store: every read goes
        // through the paged snapshot, answers match the source data.
        let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 2).collect()).unwrap());
        let spec = EngineSpec::Stored {
            storage: StorageSpec { profile: StorageProfile::RAM, page_size: 512, path: None },
            inner,
        };
        let engine = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(engine.len(), data.len());
        assert_eq!(engine.get(24), Some(data.payload(12)));
        assert_eq!(engine.get(25), None);
        assert_eq!(engine.lower_bound(25).map(|e| e.0), Some(26));
        assert_eq!(engine.lookup_batch(&[24, 25]), vec![Some(data.payload(12)), None]);
        // The concrete construction exposes the snapshot surface.
        let paged = spec.paged_engine(&data, SearchStrategy::Binary).unwrap();
        assert!(paged.paged().snapshot_bytes() > 0);
        assert!(paged.paged().keys_per_page() > 0);
        // And non-stored specs cannot be built as one.
        assert!(EngineSpec::Single(inner).paged_engine(&data, SearchStrategy::Binary).is_err());
        assert!(spec.sharded_engine(&data, SearchStrategy::Binary).is_err());
        assert!(spec.cold_open_engine::<u64>(SearchStrategy::Binary).is_err(), "no path");
    }

    #[test]
    fn stored_specs_write_and_cold_open_snapshot_files() {
        let dir = TempDir::new("stored");
        let path = dir.0.join("snap.bin");
        let spec = EngineSpec::Stored {
            storage: StorageSpec {
                profile: StorageProfile::RAM,
                page_size: 1024,
                path: Some(path.to_string_lossy().into_owned()),
            },
            inner: Family::Rmi.default_spec::<u64>(),
        };
        let data = Arc::new(SortedData::new((0..5_000u64).map(|i| i * 3).collect()).unwrap());
        let engine = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(engine.get(30), Some(data.payload(10)));
        assert!(path.exists(), "building the engine must write the snapshot");
        drop(engine);
        // Cold open: no source data in sight — the snapshot file is the
        // only input, and the model is rebuilt from its key section.
        let cold = spec.cold_open_engine::<u64>(SearchStrategy::Binary).unwrap();
        assert_eq!(cold.len(), data.len());
        for probe in [0usize, 10, 999, 4_999] {
            let key = data.key(probe);
            assert_eq!(cold.get(key), Some(data.payload(probe)), "key {key}");
            assert_eq!(cold.get(key + 1), None);
        }
    }

    #[test]
    fn cached_stored_specs_nest() {
        let inner = Family::Pgm.default_spec::<u64>();
        let spec = EngineSpec::Cached {
            capacity: 128,
            stripes: 4,
            negative: false,
            inner: Box::new(EngineSpec::Stored {
                storage: StorageSpec { profile: StorageProfile::RAM, page_size: 512, path: None },
                inner,
            }),
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert_eq!(serde_json::from_str::<EngineSpec>(&json).unwrap(), spec);
        assert_eq!(spec.inner_spec(), inner);
        // A hot-key cache in front of a storage tier is the point of the
        // composition: repeat reads skip the paged fetch entirely.
        let data = Arc::new(SortedData::new((0..10_000u64).map(|i| i * 2).collect()).unwrap());
        let cached = spec.cached_engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(cached.get(24), Some(data.payload(12)));
        assert_eq!(cached.get(24), Some(data.payload(12)));
        assert_eq!(cached.hits(), 1);
    }

    #[test]
    fn mismatched_spec_json_is_rejected() {
        assert!(serde_json::from_str::<IndexSpec>("{\"family\":\"PGM\",\"params\":{}}").is_err());
        assert!(serde_json::from_str::<IndexSpec>("{\"family\":\"Nope\",\"params\":{}}").is_err());
        let ok: IndexSpec =
            serde_json::from_str("{\"family\":\"PGM\",\"params\":{\"eps\":64,\"eps_internal\":8}}")
                .unwrap();
        assert_eq!(ok.params, IndexParams::Pgm { eps: 64, eps_internal: 8 });
    }
}
