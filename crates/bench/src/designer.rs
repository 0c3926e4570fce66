//! Profile-driven storage auto-tuning: the `StoreDesigner`.
//!
//! When an index serves from a block store instead of RAM, the dominant
//! lookup cost flips from model evaluation to page fetches: a lookup pays
//! the device's fixed latency per contiguous page run plus bandwidth for
//! every transferred byte, and the number of pages it touches is set by
//! the index's error bound and the snapshot's page size. The best
//! configuration therefore depends on the device — a wide-bound model that
//! wins in RAM can lose badly on NFS-like latencies, and a page size that
//! amortizes seeks on one profile wastes bandwidth on another.
//!
//! [`StoreDesigner`] searches that space without running a single storage
//! benchmark. For each candidate index family it builds the index once
//! over the data (page-size independent), measures its model evaluation
//! time and error-bound width empirically, then scores every
//! family × page-size pair with a closed-form cost:
//!
//! ```text
//! predicted_ns = model_ns                     (index evaluation, in RAM)
//!              + read_latency_ns              (the payload run's seek)
//!              + read_cost_ns((window_pages + 1) * page_size)
//!                                 (the key-window run's seek + every byte)
//!              + mean_log2 * step_ns          (last-mile search, in RAM)
//! ```
//!
//! The device terms go through [`StorageProfile::read_cost_ns`], the same
//! curve [`sosd_core::ProfiledStore`] charges — one fixed latency per
//! contiguous ascending page run, bandwidth per byte — which is what keeps
//! predictions on the same scale as measurements (`ext10_storage` gates
//! the designer's pick within a small factor of the best measured
//! configuration per profile).

use crate::registry::{Family, IndexSpec};
use sosd_core::stats::{log2_error_stats, stride_sample};
use sosd_core::{BuildError, Key, SortedData, StorageProfile};
use std::time::Instant;

/// Default page sizes scored by the designer (bytes, small to large).
pub const DEFAULT_PAGE_SIZES: [usize; 3] = [512, 4096, 16384];

/// Default candidate families: the paper's learned triple plus the B+Tree
/// baseline (hash families cannot serve ordered paged lookups, and the
/// remaining tree variants are dominated on this cost model by BTree).
pub const DEFAULT_FAMILIES: [Family; 4] = [Family::Rmi, Family::Pgm, Family::Rs, Family::BTree];

/// In-RAM binary-search step cost used for the last-mile term,
/// nanoseconds. The term only matters when profiles are near-RAM; on real
/// device latencies it is noise.
const STEP_NS: f64 = 3.0;

/// Model-timing probe budget: enough for a stable mean, cheap enough to
/// run per family inside an experiment loop.
const MODEL_PROBES: usize = 4_096;

/// One scored candidate: a family at a page size, with the measured model
/// characteristics and the resulting cost prediction.
#[derive(Debug, Clone)]
pub struct CandidateCost {
    /// The index configuration scored (the family's default spec).
    pub spec: IndexSpec,
    /// Snapshot page size in bytes.
    pub page_size: usize,
    /// Measured mean `search_bound` evaluation time, nanoseconds.
    pub model_ns: f64,
    /// Measured mean log2 of the search-bound width.
    pub mean_log2: f64,
    /// Measured mean bound width in key positions.
    pub mean_bound_len: f64,
    /// Expected key pages fetched per lookup.
    pub window_pages: f64,
    /// The cost-model prediction, nanoseconds per lookup.
    pub predicted_ns: f64,
}

/// Cost-model-driven picker of index family × page size for a storage
/// profile.
///
/// ```
/// use sosd_bench::designer::StoreDesigner;
/// use sosd_core::{SortedData, StorageProfile};
///
/// let data = SortedData::new((0..100_000u64).map(|i| i * 7).collect()).unwrap();
/// let pick = StoreDesigner::new().design(&data, StorageProfile::NVME).unwrap();
/// assert!(pick.predicted_ns > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct StoreDesigner {
    families: Vec<Family>,
    page_sizes: Vec<usize>,
}

impl Default for StoreDesigner {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreDesigner {
    /// A designer over [`DEFAULT_FAMILIES`] and [`DEFAULT_PAGE_SIZES`].
    pub fn new() -> Self {
        StoreDesigner {
            families: DEFAULT_FAMILIES.to_vec(),
            page_sizes: DEFAULT_PAGE_SIZES.to_vec(),
        }
    }

    /// Restrict the candidate families.
    pub fn with_families(mut self, families: &[Family]) -> Self {
        self.families = families.to_vec();
        self
    }

    /// Restrict the candidate page sizes.
    pub fn with_page_sizes(mut self, page_sizes: &[usize]) -> Self {
        self.page_sizes = page_sizes.to_vec();
        self
    }

    /// Score every candidate family × page size under `profile`, cheapest
    /// prediction first. Families whose default spec fails to build on
    /// `data` are skipped; an empty result is an error.
    pub fn score_all<K: Key>(
        &self,
        data: &SortedData<K>,
        profile: StorageProfile,
    ) -> Result<Vec<CandidateCost>, BuildError> {
        let probes = stride_sample(data, MODEL_PROBES);
        let mut out = Vec::new();
        for &family in &self.families {
            let spec = family.default_spec::<K>();
            // The index structure is page-size independent: build and
            // measure once, score across every page size.
            let Ok(index) = spec.builder::<K>().build_boxed(data) else {
                continue;
            };
            let stats = log2_error_stats(index.as_ref(), data, &probes);
            let model_ns = time_model_ns(index.as_ref(), &probes);
            for &page_size in &self.page_sizes {
                let window_pages = window_pages::<K>(stats.mean_bound_len, page_size);
                let predicted_ns =
                    predict_ns(model_ns, stats.mean_log2, window_pages, page_size, profile);
                out.push(CandidateCost {
                    spec,
                    page_size,
                    model_ns,
                    mean_log2: stats.mean_log2,
                    mean_bound_len: stats.mean_bound_len,
                    window_pages,
                    predicted_ns,
                });
            }
        }
        if out.is_empty() {
            return Err(BuildError::Unbuildable("no designer candidate built on this data".into()));
        }
        out.sort_by(|a, b| a.predicted_ns.total_cmp(&b.predicted_ns));
        Ok(out)
    }

    /// The cheapest-predicted candidate under `profile`.
    pub fn design<K: Key>(
        &self,
        data: &SortedData<K>,
        profile: StorageProfile,
    ) -> Result<CandidateCost, BuildError> {
        Ok(self.score_all(data, profile)?.remove(0))
    }
}

/// Expected key pages fetched per lookup: the bound window spread over
/// the page's key capacity, plus one for the straddle (a window almost
/// never starts page-aligned).
fn window_pages<K: Key>(mean_bound_len: f64, page_size: usize) -> f64 {
    let key_bytes = (K::BITS as usize).div_ceil(8).max(1);
    let keys_per_page = ((page_size - 8) / key_bytes).max(1);
    mean_bound_len.max(1.0) / keys_per_page as f64 + 1.0
}

/// The closed-form cost shared with the module docs: model + the key
/// window and payload page runs priced on the profile's read-cost curve +
/// the in-RAM last-mile search.
fn predict_ns(
    model_ns: f64,
    mean_log2: f64,
    window_pages: f64,
    page_size: usize,
    profile: StorageProfile,
) -> f64 {
    let read_bytes = ((window_pages + 1.0) * page_size as f64) as usize;
    model_ns
        + profile.read_latency_ns as f64
        + profile.read_cost_ns(read_bytes) as f64
        + mean_log2 * STEP_NS
}

/// Mean `search_bound` evaluation time over `probes`, nanoseconds.
fn time_model_ns<K: Key>(index: &dyn sosd_core::Index<K>, probes: &[K]) -> f64 {
    let start = Instant::now();
    let mut acc = 0usize;
    for &k in probes {
        acc = acc.wrapping_add(std::hint::black_box(index.search_bound(k)).hi);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / probes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::time_lookups_batched;
    use sosd_core::{
        write_snapshot, BlockStore, MemStore, PagedData, PagedEngine, ProfiledStore, QueryEngine,
        SearchStrategy,
    };
    use std::sync::Arc;

    fn sample(n: u64) -> SortedData<u64> {
        SortedData::new((0..n).map(|i| i * 7 + 3).collect()).unwrap()
    }

    #[test]
    fn scores_cover_every_candidate_and_sort_by_prediction() {
        let data = sample(50_000);
        let designer = StoreDesigner::new();
        let scored = designer.score_all(&data, StorageProfile::NVME).unwrap();
        assert_eq!(scored.len(), DEFAULT_FAMILIES.len() * DEFAULT_PAGE_SIZES.len());
        assert!(scored.windows(2).all(|w| w[0].predicted_ns <= w[1].predicted_ns));
        for c in &scored {
            assert!(c.predicted_ns.is_finite() && c.predicted_ns > 0.0);
            assert!(c.window_pages >= 1.0, "window always touches a page");
            assert!(c.model_ns >= 0.0);
        }
        // design() returns the head of its own scoring run. Model timing
        // varies run to run, so near-tied candidates may legitimately
        // reorder against `scored` above — require membership and a
        // prediction in the same league as this run's best, not identity.
        let pick = designer.design(&data, StorageProfile::NVME).unwrap();
        assert!(
            scored.iter().any(|c| c.spec == pick.spec && c.page_size == pick.page_size),
            "pick must be one of the scored candidates"
        );
        assert!(
            pick.predicted_ns <= 2.0 * scored[0].predicted_ns,
            "pick {} vs best scored {}",
            pick.predicted_ns,
            scored[0].predicted_ns
        );
    }

    #[test]
    fn slower_profiles_cost_more_for_the_same_candidate() {
        let data = sample(50_000);
        let designer = StoreDesigner::new().with_families(&[Family::Pgm]);
        let by_profile: Vec<f64> = [StorageProfile::RAM, StorageProfile::NVME, StorageProfile::NFS]
            .into_iter()
            .map(|p| {
                designer
                    .score_all(&data, p)
                    .unwrap()
                    .iter()
                    .find(|c| c.page_size == 4096)
                    .unwrap()
                    .predicted_ns
            })
            .collect();
        assert!(by_profile[0] < by_profile[1], "RAM must be cheaper than NVMe");
        assert!(by_profile[1] < by_profile[2], "NVMe must be cheaper than NFS");
        // On RAM the device terms vanish: prediction is model + last-mile.
        assert!(by_profile[0] < 10_000.0, "RAM prediction is pure compute: {}", by_profile[0]);
        // On NFS the two latency charges dominate everything else.
        assert!(by_profile[2] >= 2.0 * StorageProfile::NFS.read_latency_ns as f64);
    }

    #[test]
    fn wider_bounds_predict_more_pages_on_small_pages() {
        // A wide-eps PGM must be charged more window pages than a tight
        // one at the same page size — the lever the designer exists to
        // pull.
        let data = sample(200_000);
        let tight = IndexSpec::new(crate::registry::IndexParams::Pgm { eps: 8, eps_internal: 4 });
        let wide =
            IndexSpec::new(crate::registry::IndexParams::Pgm { eps: 1024, eps_internal: 16 });
        let probes = stride_sample(&data, 1024);
        let mut windows = Vec::new();
        for spec in [tight, wide] {
            let index = spec.builder::<u64>().build_boxed(&data).unwrap();
            let stats = log2_error_stats(index.as_ref(), &data, &probes);
            windows.push(window_pages::<u64>(stats.mean_bound_len, 512));
        }
        assert!(windows[1] > windows[0], "wide eps must touch more pages: {windows:?}");
    }

    #[test]
    fn predictions_track_measured_paged_lookups_on_nvme() {
        // The self-consistency the ext10 gate depends on: the cost model
        // and the ProfiledStore charge the same terms, so a prediction
        // lands within a small factor of a measurement.
        let data = Arc::new(sample(50_000));
        let designer = StoreDesigner::new().with_families(&[Family::Pgm]);
        let candidate = designer
            .score_all(&data, StorageProfile::NVME)
            .unwrap()
            .into_iter()
            .find(|c| c.page_size == 4096)
            .unwrap();
        let mut store = MemStore::new(candidate.page_size).unwrap();
        write_snapshot(&mut store, &data, &[]).unwrap();
        let store: Arc<dyn BlockStore> = Arc::new(ProfiledStore::new(store, StorageProfile::NVME));
        let paged = Arc::new(PagedData::open(store).unwrap());
        let index = candidate.spec.builder::<u64>().build_boxed(&data).unwrap();
        let engine = PagedEngine::with_strategy(index, paged, SearchStrategy::Binary);
        let lookups = stride_sample(&data, 400);
        let timing = time_lookups_batched(&engine, QueryEngine::get_batch, &lookups, 1, 1);
        let ratio = timing.ns_per_lookup / candidate.predicted_ns;
        // The injected latency dominates both sides; allow generous slack
        // for spin-wait overshoot on loaded machines.
        assert!(
            (0.4..=4.0).contains(&ratio),
            "measured {:.0}ns vs predicted {:.0}ns (ratio {ratio:.2})",
            timing.ns_per_lookup,
            candidate.predicted_ns
        );
    }
}
