//! Uniform access to every index family, configured as Rust values.
//!
//! The registry's unit of configuration is the [`IndexSpec`]: the tuning
//! knobs of one buildable index variant (one Figure-7 point), turned into
//! either a raw type-erased [`Index`] builder ([`IndexSpec::builder`]) or a
//! serving-facing [`QueryEngine`] ([`IndexSpec::engine`]). Experiments build
//! specs in code (usually from a family's sweep or default); a spec's
//! [`IndexSpec::label`] names the result rows it produces.
//!
//! One layer up, [`EngineSpec`] configures how an index is *served*:
//! directly, partitioned behind a key-range [`ShardedEngine`], wrapped in a
//! write-behind tier whose delta buffer is a B+Tree ([`btree_delta`]),
//! fronted by a hot-key result cache over any of the above, or sharded with
//! each shard's index picked by an [`Advisor`] that times every candidate.
//! [`EngineSpec::scheduler`] puts a [`RequestScheduler`] in front of any of
//! them.

use sosd_baselines::{BsBuilder, RbsBuilder};
use sosd_core::advisor::{AdvisedPlan, Advisor, Candidate};
use sosd_core::serve::FastProbe;
use sosd_core::writebehind::{BaseFactory, DeltaFactory};
use sosd_core::{
    BuildError, CachedEngine, DynamicOrderedIndex, Index, IndexBuilder, Key, MergeMode,
    MergePolicy, QueryEngine, RequestScheduler, SchedulerConfig, SearchStrategy, ShardedEngine,
    SortedData, StaticEngine, WriteBehindEngine,
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

/// The tuning knobs of one index variant — the payload of an
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    /// The family's tuning knobs.
    pub params: IndexParams,
}

impl IndexSpec {
    /// The spec of these params.
    pub fn new(params: IndexParams) -> Self {
        IndexSpec { params }
    }

    /// The family these params belong to.
    pub fn family(&self) -> Family {
        match self.params {
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
        }
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
    /// type-erased build closure, ready for [`Advisor::new`].
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

/// The write-behind delta buffer every engine spec uses, as the
/// [`DeltaFactory`] handed to [`WriteBehindEngine`]: an insertable B+Tree —
/// cheap inserts, and its chained leaves give the delta drain and range
/// stitch a true leaf walk (`for_each_in` is one descent plus a sequential
/// scan).
pub fn btree_delta<K: Key>() -> DeltaFactory<K> {
    Arc::new(|| Box::new(sosd_btree::DynamicBTree::new()) as Box<dyn DynamicOrderedIndex<K>>)
}

/// A serving-engine configuration: one layer above [`IndexSpec`].
///
/// An index spec pins down one buildable index structure; an engine spec
/// pins down how that structure is *served* — directly
/// ([`EngineSpec::Single`]), behind a key-range
/// [`ShardedEngine`] router with `shards` partitions, each running its own
/// inner index ([`EngineSpec::Sharded`]), behind a write-behind tier that
/// absorbs inserts in a delta buffer and re-builds its (possibly sharded)
/// base on merge ([`EngineSpec::WriteBehind`]), or behind a hot-key result
/// cache over any of them ([`EngineSpec::Cached`]).
///
/// The self-tuning variant ([`EngineSpec::AutoTuned`]) names only the
/// *candidate pool*; the per-shard winners are chosen at build time by an
/// [`Advisor`] timing every candidate on each shard's data.
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
        /// Active-delta shadow-entry count that triggers a merge.
        merge_threshold: usize,
        /// The shape of the leveled run stack merges fold the delta into.
        policy: MergePolicy,
    },
    /// Hot-key cached serving: a bounded, set-associative
    /// [`CachedEngine`] result cache in front of `inner` (which may itself
    /// be single, sharded, or write-behind).
    Cached {
        /// Total cache entry budget (rounded up to whole six-way sets).
        capacity: usize,
        /// Hit/miss counter slots (rounded up to a power of two).
        stripes: usize,
        /// Cache absent-key results as negative entries.
        negative: bool,
        /// The engine the cache fronts.
        inner: Box<EngineSpec>,
    },
    /// Self-tuning sharded serving: an [`Advisor`] times every candidate
    /// per key-range shard and serves each shard from its
    /// winner — a possibly heterogeneous [`ShardedEngine`] (the spec pins
    /// the candidate pool, not the outcome). [`Advisor::base_factory`] puts
    /// the same pool behind a write-behind tier that re-advises at every
    /// run and base build.
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
            EngineSpec::WriteBehind { shards, inner, merge_threshold, policy } => {
                let base = EngineSpec::base_spec(*shards, *inner).label::<K>();
                let MergePolicy { fanout, max_levels } = policy;
                format!("wb[{base}@{merge_threshold},lvl{fanout}x{max_levels}]")
            }
            EngineSpec::Cached { capacity, stripes, negative, inner } => {
                let neg = if *negative { ",neg" } else { "" };
                format!("cached{capacity}x{stripes}{neg}[{}]", inner.label::<K>())
            }
            EngineSpec::AutoTuned { shards, candidates } => {
                let pool: Vec<&str> = candidates.iter().map(|c| c.family().name()).collect();
                format!("auto{}x[{}]", shards, pool.join("|"))
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
            EngineSpec::AutoTuned { .. } => Ok(Box::new(self.advised_plan(data)?.engine)),
        }
    }

    /// An [`Advisor`] over this auto-tuned spec's candidate pool. It times
    /// nothing until it advises. Non-auto-tuned specs are rejected.
    pub fn advisor<K: Key>(&self) -> Result<Advisor<K>, BuildError> {
        let EngineSpec::AutoTuned { candidates, .. } = self else {
            return Err(BuildError::InvalidConfig("advisor needs an autotuned spec".into()));
        };
        Advisor::new(candidates.iter().map(IndexSpec::candidate).collect())
    }

    /// Build the advised heterogeneous engine together with the per-shard
    /// decisions that produced it (label, measured cost, full score
    /// board). Non-auto-tuned specs are rejected.
    pub fn advised_plan<K: Key>(
        &self,
        data: &Arc<SortedData<K>>,
    ) -> Result<AdvisedPlan<K>, BuildError> {
        let EngineSpec::AutoTuned { shards, .. } = self else {
            return Err(BuildError::InvalidConfig("advised_plan needs an autotuned spec".into()));
        };
        self.advisor::<K>()?.advise(data, *shards)
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
            EngineSpec::WriteBehind { .. } | EngineSpec::Cached { .. } => {
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
        let &EngineSpec::WriteBehind { shards, inner, merge_threshold, policy } = self else {
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
            btree_delta::<K>(),
            merge_threshold,
            mode,
            policy,
        )
    }

    /// Build the full serving stack: the engine this spec describes,
    /// fronted by a [`RequestScheduler`] running `config`.
    ///
    /// A cached spec additionally wires the scheduler's hit-fast path to
    /// the built cache's [`CachedEngine::peek`] — the probe and the served
    /// engine share one cache instance, so a fast-path answer is exactly
    /// what the wave path would have returned.
    pub fn scheduler<K: Key>(
        &self,
        config: SchedulerConfig,
        data: &Arc<SortedData<K>>,
        strategy: SearchStrategy,
    ) -> Result<RequestScheduler<K>, BuildError> {
        if !matches!(self, EngineSpec::Cached { .. }) {
            return RequestScheduler::new(Arc::from(self.engine(data, strategy)?), config);
        }
        let cached = Arc::new(self.cached_engine(data, strategy)?);
        let cache = Arc::clone(&cached);
        let probe: FastProbe<K> = Arc::new(move |key| cache.peek(key));
        RequestScheduler::with_fast_path(cached as Arc<dyn QueryEngine<K>>, config, probe)
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
    fn every_spec_names_its_family_and_builds() {
        let data = SortedData::new((0..1_000u64).collect()).unwrap();
        for family in Family::EXTENDED {
            let mut specs = family.sweep_specs::<u64>();
            specs.push(family.default_spec::<u64>());
            specs.push(family.fastest_spec::<u64>());
            for spec in specs {
                assert_eq!(spec.family(), family, "{}", spec.label::<u64>());
                let idx = spec.builder::<u64>().build_boxed(&data).unwrap();
                assert!(idx.search_bound(500).contains(data.lower_bound(500)), "{spec:?}");
            }
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
            let mut fanned = Vec::new();
            sharded.par_get_batch(&[key, key + 1], &mut fanned);
            assert_eq!(fanned, vec![Some(data.payload(17_777)), None], "{}", family.name());
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
        // The label names the pool, not a winner.
        assert_eq!(spec.label::<u64>(), "auto4x[BS|RBS]");
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
        // Behind a write-behind tier every run and base build re-advises.
        let advisor = Arc::new(spec.advisor::<u64>().unwrap());
        let wb = WriteBehindEngine::with_policy(
            Arc::clone(&data),
            advisor.base_factory(4),
            btree_delta(),
            1 << 20,
            MergeMode::Sync,
            MergePolicy::leveled(2, 1),
        )
        .unwrap();
        wb.insert(1, 111);
        wb.force_merge();
        wb.insert(3, 333);
        wb.force_merge();
        assert_eq!(wb.compactions(), 1, "the second merge folds into a re-advised base");
        assert_eq!(wb.get(3), Some(333));
        assert_eq!(wb.delta_len(), 0);
        assert_eq!(wb.get(1), Some(111), "re-advising keeps the visible mapping");
        assert_eq!(wb.get(data.key(123)), Some(data.payload(123)));
    }

    /// Every knob value a spec cannot be served with is refused by the
    /// constructor that builds from it, with no separate spec validation.
    #[test]
    fn specs_reject_invalid_values_at_build() {
        let data = Arc::new(SortedData::new((0..2_000u64).map(|i| i * 2).collect()).unwrap());
        let bs = IndexSpec::new(IndexParams::Bs);
        let wb = |merge_threshold, policy| EngineSpec::WriteBehind {
            shards: 1,
            inner: bs,
            merge_threshold,
            policy,
        };
        let cached = |capacity, stripes| EngineSpec::Cached {
            capacity,
            stripes,
            negative: false,
            inner: Box::new(EngineSpec::Single(bs)),
        };
        for spec in [
            EngineSpec::Sharded { shards: 0, inner: bs },
            wb(0, MergePolicy::leveled(4, 3)),
            wb(8, MergePolicy::leveled(1, 2)),
            cached(0, 1),
            cached(8, 0),
            EngineSpec::AutoTuned { shards: 0, candidates: vec![bs] },
            EngineSpec::AutoTuned { shards: 2, candidates: vec![] },
        ] {
            assert!(spec.engine(&data, SearchStrategy::Binary).is_err(), "{spec:?}");
        }
        let ok =
            SchedulerConfig { wave_size: 1, linger: Default::default(), workers: 1, queue_cap: 8 };
        for config in [
            SchedulerConfig { wave_size: 0, ..ok },
            SchedulerConfig { workers: 0, ..ok },
            SchedulerConfig { queue_cap: 0, ..ok },
        ] {
            for spec in [EngineSpec::Single(bs), cached(8, 1)] {
                assert!(
                    spec.scheduler(config, &data, SearchStrategy::Binary).is_err(),
                    "{config:?}"
                );
            }
        }
        assert!(EngineSpec::Single(bs).scheduler(ok, &data, SearchStrategy::Binary).is_ok());
    }

    #[test]
    fn writebehind_specs_round_trip_and_build() {
        // Build and serve: inserts land in the delta, merges fold them in.
        let data = Arc::new(SortedData::new((0..20_000u64).map(|i| i * 2).collect()).unwrap());
        let spec = EngineSpec::WriteBehind {
            shards: 2,
            inner: Family::Pgm.default_spec::<u64>(),
            merge_threshold: 100,
            policy: MergePolicy::leveled(2, 1),
        };
        let wb = spec
            .writebehind_engine(&data, SearchStrategy::Binary, sosd_core::MergeMode::Sync)
            .unwrap();
        assert_eq!(wb.len(), data.len());
        for k in 0..250u64 {
            wb.insert(k * 2 + 1, k);
        }
        assert!(wb.merges_completed() >= 2, "got {}", wb.merges_completed());
        assert!(wb.base_len() > data.len(), "every second merge folds into the base");
        assert_eq!(wb.get(13), Some(6));
        assert_eq!(wb.get(12), Some(data.payload(6)));
        assert!(wb.name().starts_with("writebehind["), "{}", wb.name());
        // The boxed construction serves the same reads.
        let boxed = spec.engine(&data, SearchStrategy::Binary).unwrap();
        assert_eq!(boxed.len(), data.len());
        assert_eq!(boxed.get(12), Some(data.payload(6)));
        // And non-writebehind specs cannot be built as one.
        let inner = Family::Rmi.default_spec::<u64>();
        assert!(EngineSpec::Single(inner)
            .writebehind_engine(&data, SearchStrategy::Binary, sosd_core::MergeMode::Sync)
            .is_err());
        assert!(spec.sharded_engine(&data, SearchStrategy::Binary).is_err());

        // A leveled spec builds, stacks runs instead of rebuilding the
        // base, and serves removes as tombstones.
        let leveled = EngineSpec::WriteBehind {
            shards: 1,
            inner: Family::Pgm.default_spec::<u64>(),
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
        let inner = Family::Rmi.default_spec::<u64>();
        assert!(EngineSpec::Single(inner).cached_engine(&data, SearchStrategy::Binary).is_err());
        assert!(spec.sharded_engine(&data, SearchStrategy::Binary).is_err());
    }

    #[test]
    fn negative_flag_round_trips_and_defaults_off() {
        let data = Arc::new(SortedData::new((0..1_000u64).map(|i| i * 2).collect()).unwrap());
        for negative in [true, false] {
            let spec = EngineSpec::Cached {
                capacity: 64,
                stripes: 2,
                negative,
                inner: Box::new(EngineSpec::Single(Family::Rmi.default_spec::<u64>())),
            };
            let label = spec.label::<u64>();
            assert_eq!(label.contains(",neg["), negative, "{label}");
            // The built engine honors the flag: absence is cached only
            // when it is set.
            let cached = spec.cached_engine(&data, SearchStrategy::Binary).unwrap();
            assert_eq!(cached.negative_enabled(), negative);
            assert_eq!(cached.get(3), None);
            assert_eq!(cached.peek(3), negative.then_some(None), "{label}");
        }
    }

    #[test]
    fn scheduler_specs_round_trip_and_serve() {
        let config = SchedulerConfig {
            wave_size: 16,
            linger: std::time::Duration::from_micros(50),
            workers: 2,
            queue_cap: 512,
        };

        // Build the full stack over a plain engine spec…
        let data = Arc::new(SortedData::new((0..10_000u64).map(|i| i * 2).collect()).unwrap());
        let sched = EngineSpec::Single(Family::Pgm.default_spec::<u64>())
            .scheduler(config, &data, SearchStrategy::Binary)
            .unwrap();
        assert_eq!(sched.config(), config);
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
        let sched = cached_spec.scheduler(config, &data, SearchStrategy::Binary).unwrap();
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
}
