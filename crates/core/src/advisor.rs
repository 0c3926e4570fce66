//! The self-tuning index advisor: pick the index per shard, automatically,
//! at every rebuild.
//!
//! The paper's central finding is that no single index family wins
//! everywhere — the best choice depends on the key distribution and the
//! workload. The serving stack already rebuilds the write-behind base from
//! scratch at every merge, so this module closes the loop: at rebuild time,
//! build every candidate index on each shard, **time every build** over a
//! deterministic sample of the shard's keys, and emit a possibly
//! heterogeneous [`ShardedEngine`] — an RMI on a smooth shard, a PGM on a
//! bursty one, a plain binary-search engine on a tiny shard. The input is
//! the shard's data alone.
//!
//! # How scoring works
//!
//! Candidates are injected (label + an [`Index`] factory), so the crate
//! stays independent of any concrete index implementation. Per shard, each
//! candidate is built once and its end-to-end lookup cost (model + last
//! mile + payload fetch) is measured over the shard's stride sample, best
//! of three passes; the cheapest measurement wins, and the winner's build
//! is reused as the serving engine. Nothing predicts the cost: the paper's
//! §4.3 shows that log2 error alone does not explain lookup time, and with
//! every candidate already built, timing ~1k probes each costs a few
//! milliseconds per advise.
//!
//! # Re-advise at every rebuild
//!
//! An advisor-driven [`base factory`](Advisor::base_factory) re-advises
//! the merged data at **every** write-behind base rebuild — threshold and
//! forced merges, and compactions that fold into the base. Because the
//! rebuild swaps generations behind the epoch pointer, a re-pick never
//! changes the visible mapping: readers see either the old heterogeneous
//! engine or the new one, both answering identically.
//!
//! ```
//! use sosd_core::advisor::{Advisor, Candidate};
//! use sosd_core::testutil::MirrorIndex;
//! use sosd_core::{QueryEngine, SortedData};
//!
//! let candidates = vec![Candidate::new("mirror", |d: &SortedData<u64>| {
//!     Ok(Box::new(MirrorIndex::over(d)) as Box<_>)
//! })];
//! let advisor = Advisor::new(candidates).unwrap();
//! let data = SortedData::new((0..10_000u64).map(|i| i * 3).collect()).unwrap();
//! let plan = advisor.advise(&data, 4).unwrap();
//! assert_eq!(plan.engine.get(300), Some(data.payload(100)));
//! assert_eq!(plan.picks.len(), plan.engine.num_shards());
//! ```

use crate::data::SortedData;
use crate::engine::{QueryEngine, StaticEngine};
use crate::error::BuildError;
use crate::index::Index;
use crate::key::Key;
use crate::shard::{partition_points, ShardedEngine};
use crate::stats::stride_sample;
use crate::writebehind::BaseFactory;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-shard probe-sample budget for timing candidates (even-stride
/// deterministic sample).
const SAMPLE_CAP: usize = 1_024;

/// The shape of a [`Candidate`]'s index factory.
type CandidateFactory<K> =
    Arc<dyn Fn(&SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError> + Send + Sync>;

/// One injected index candidate: a label plus a factory building the index
/// over any [`SortedData`]. The factory must be pure — the advisor builds
/// candidates freely during scoring and reuses the winner's build as the
/// serving engine.
#[derive(Clone)]
pub struct Candidate<K: Key> {
    label: String,
    build: CandidateFactory<K>,
}

impl<K: Key> Candidate<K> {
    /// A candidate from a label and an index factory.
    pub fn new<F>(label: impl Into<String>, build: F) -> Self
    where
        F: Fn(&SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError> + Send + Sync + 'static,
    {
        Candidate { label: label.into(), build: Arc::new(build) }
    }

    /// The candidate's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Build the candidate's index over `data`.
    pub fn build(&self, data: &SortedData<K>) -> Result<Box<dyn Index<K>>, BuildError> {
        (self.build)(data)
    }
}

impl<K: Key> std::fmt::Debug for Candidate<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Candidate").field("label", &self.label).finish()
    }
}

/// One candidate's score on one shard.
#[derive(Debug, Clone)]
pub struct CandidateScore {
    /// Index into the advisor's candidate list.
    pub candidate: usize,
    /// The candidate's label.
    pub label: String,
    /// Measured nanoseconds per lookup over the shard's stride sample.
    /// `f64::INFINITY` when the build failed.
    pub measured_ns: f64,
}

/// The advisor's decision for one shard: the winning candidate plus every
/// candidate's score (cheapest first) for observability.
#[derive(Debug, Clone)]
pub struct ShardPick {
    /// Index into the advisor's candidate list.
    pub candidate: usize,
    /// The winning candidate's label.
    pub label: String,
    /// The winner's measured nanoseconds per lookup.
    pub measured_ns: f64,
    /// Keys in the shard.
    pub shard_len: usize,
    /// All candidate scores on this shard, cheapest first.
    pub scores: Vec<CandidateScore>,
}

/// An advised heterogeneous engine plus the per-shard decisions that
/// produced it.
pub struct AdvisedPlan<K: Key> {
    /// The fence-routed engine, one (possibly different) index per shard.
    pub engine: ShardedEngine<K>,
    /// Per-shard decisions, in shard order.
    pub picks: Vec<ShardPick>,
}

/// The candidate-injected index advisor. It holds only the candidate pool:
/// every pick is a measurement on the shard being advised.
#[derive(Debug)]
pub struct Advisor<K: Key> {
    candidates: Vec<Candidate<K>>,
}

impl<K: Key> Advisor<K> {
    /// An advisor over `candidates`, in scoring order. An empty pool is an
    /// error. A candidate that fails to build on a shard scores infinite
    /// there; [`Advisor::advise`] fails only on a shard where none builds.
    pub fn new(candidates: Vec<Candidate<K>>) -> Result<Self, BuildError> {
        if candidates.is_empty() {
            return Err(BuildError::InvalidConfig("advisor needs at least one candidate".into()));
        }
        Ok(Advisor { candidates })
    }

    /// The injected candidates, in scoring order.
    pub fn candidates(&self) -> &[Candidate<K>] {
        &self.candidates
    }

    /// Score every candidate on one shard: build each, time every build
    /// over the shard's stride sample, and pick the cheapest measurement.
    /// Returns the built winner index alongside the pick so callers can
    /// serve from it without a second build. Fails only when no candidate
    /// builds on the shard.
    fn score_shard(
        &self,
        shard: &SortedData<K>,
    ) -> Result<(ShardPick, Box<dyn Index<K>>), BuildError> {
        let probes = stride_sample(shard, SAMPLE_CAP);
        let mut scores: Vec<CandidateScore> = Vec::with_capacity(self.candidates.len());
        // The first strictly cheapest build: after the stable sort below it
        // is also `scores[0]`.
        let mut winner: Option<(Box<dyn Index<K>>, f64)> = None;
        for (candidate, cand) in self.candidates.iter().enumerate() {
            let label = cand.label().to_string();
            let measured_ns = match cand.build(shard) {
                Ok(index) => {
                    let ns = min_lookup_ns(index.as_ref(), shard, &probes);
                    if winner.as_ref().is_none_or(|&(_, best_ns)| ns < best_ns) {
                        winner = Some((index, ns));
                    }
                    ns
                }
                Err(_) => f64::INFINITY,
            };
            scores.push(CandidateScore { candidate, label, measured_ns });
        }
        let Some((index, _)) = winner else {
            return Err(BuildError::Unbuildable("no advisor candidate built on this shard".into()));
        };
        scores.sort_by(|a, b| a.measured_ns.total_cmp(&b.measured_ns));
        let best = &scores[0];
        Ok((
            ShardPick {
                candidate: best.candidate,
                label: best.label.clone(),
                measured_ns: best.measured_ns,
                shard_len: shard.len(),
                scores,
            },
            index,
        ))
    }

    /// Advise a heterogeneous engine: partition `data` into (at most)
    /// `shards` key ranges, score every candidate per shard, and serve
    /// each shard from its winner (the scoring build is reused — no
    /// double construction).
    pub fn advise(
        &self,
        data: &SortedData<K>,
        shards: usize,
    ) -> Result<AdvisedPlan<K>, BuildError> {
        let mut picks = Vec::new();
        let engine = ShardedEngine::build_with(data, shards, |part| {
            let (pick, index) = self.score_shard(&part)?;
            picks.push(pick);
            Ok(Box::new(StaticEngine::new(index, Arc::new(part))) as Box<dyn QueryEngine<K>>)
        })?;
        Ok(AdvisedPlan { engine, picks })
    }

    /// A write-behind [`BaseFactory`] that re-advises at every base
    /// rebuild: each rebuild scores every candidate per shard of the
    /// merged data and serves the new generation from the heterogeneous
    /// winner set. The generation swap makes the re-pick invisible: the
    /// mapping before and after is identical.
    pub fn base_factory(self: &Arc<Self>, shards: usize) -> BaseFactory<K> {
        let advisor = Arc::clone(self);
        Arc::new(move |data: Arc<SortedData<K>>| {
            let plan = advisor.advise(&data, shards)?;
            Ok(Box::new(plan.engine) as Box<dyn QueryEngine<K>>)
        })
    }
}

/// Measured end-to-end lookup cost over `probes`: model evaluation, last
/// mile inside the bound, duplicate-group payload sum — the same work a
/// [`StaticEngine`] `get` performs.
fn time_lookup_ns<K: Key>(index: &dyn Index<K>, data: &SortedData<K>, probes: &[K]) -> f64 {
    let keys = data.keys();
    let start = Instant::now();
    let mut acc = 0u64;
    for &k in probes {
        let b = index.search_bound(k);
        let pos = b.lo + keys[b.lo..b.hi].partition_point(|&x| x < k);
        acc = acc.wrapping_add(data.payload_sum_from(k, pos).unwrap_or(0));
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / probes.len() as f64
}

/// The cheapest of three [`time_lookup_ns`] passes — what a score records,
/// so one scheduler burst cannot decide a pick.
fn min_lookup_ns<K: Key>(index: &dyn Index<K>, data: &SortedData<K>, probes: &[K]) -> f64 {
    (0..3).map(|_| time_lookup_ns(index, data, probes)).fold(f64::INFINITY, f64::min)
}

/// Exhaustively partition-and-measure helper used by tests and the ext11
/// experiment: the measured mean lookup nanoseconds of `candidate` over
/// one shard's stride sample, in a single pass.
pub fn measure_candidate_ns<K: Key>(
    candidate: &Candidate<K>,
    shard: &SortedData<K>,
    probes_cap: usize,
) -> Result<f64, BuildError> {
    let index = candidate.build(shard)?;
    let probes = stride_sample(shard, probes_cap);
    Ok(time_lookup_ns(index.as_ref(), shard, &probes))
}

/// The advisor's shard cuts for `data` — exposed so harnesses can measure
/// candidates over exactly the shards the advisor will advise.
pub fn advisor_partitions<K: Key>(data: &SortedData<K>, shards: usize) -> Vec<SortedData<K>> {
    let keys = data.keys();
    let payloads = data.payloads();
    let cuts = partition_points(keys, shards);
    let mut out = Vec::with_capacity(cuts.len() + 1);
    let mut start = 0usize;
    for end in cuts.iter().copied().chain(std::iter::once(keys.len())) {
        out.push(
            SortedData::with_payloads(keys[start..end].to_vec(), payloads[start..end].to_vec())
                .expect("partition slices are sorted and non-empty"),
        );
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SearchBound;
    use crate::index::{Capabilities, IndexKind};
    use crate::testutil::MirrorIndex;

    /// A deliberately bad candidate: full-array bounds, so every lookup
    /// pays a whole binary search.
    struct FullScan {
        n: usize,
    }

    impl Index<u64> for FullScan {
        fn name(&self) -> &'static str {
            "FullScan"
        }
        fn size_bytes(&self) -> usize {
            8
        }
        fn search_bound(&self, _key: u64) -> SearchBound {
            SearchBound::full(self.n)
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::BinarySearch }
        }
    }

    /// The opposite extreme: a perfect linear model of an evenly spaced
    /// key array, answering every probe with its exact single-position
    /// bound in O(1). Valid only over evenly spaced keys — the only data
    /// these tests give it.
    struct Exact {
        first: u64,
        step: u64,
        n: usize,
    }

    impl Index<u64> for Exact {
        fn name(&self) -> &'static str {
            "Exact"
        }
        fn size_bytes(&self) -> usize {
            24
        }
        fn search_bound(&self, key: u64) -> SearchBound {
            let p = key.saturating_sub(self.first).div_ceil(self.step).min(self.n as u64) as usize;
            SearchBound { lo: p, hi: (p + 1).min(self.n) }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::Learned }
        }
    }

    fn exact_candidate() -> Candidate<u64> {
        Candidate::new("exact", |d: &SortedData<u64>| {
            let n = d.len();
            let step = ((d.max_key() - d.min_key()) / (n as u64 - 1).max(1)).max(1);
            Ok(Box::new(Exact { first: d.min_key(), step, n }) as Box<dyn Index<u64>>)
        })
    }

    /// Exact bounds reached the slow way: a linear scan per probe.
    struct Scan {
        keys: Vec<u64>,
    }

    impl Index<u64> for Scan {
        fn name(&self) -> &'static str {
            "Scan"
        }
        fn size_bytes(&self) -> usize {
            self.keys.len() * 8
        }
        fn search_bound(&self, key: u64) -> SearchBound {
            let p = self.keys.iter().position(|&k| k >= key).unwrap_or(self.keys.len());
            SearchBound { lo: p, hi: (p + 1).min(self.keys.len()) }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::BinarySearch }
        }
    }

    fn scan_candidate() -> Candidate<u64> {
        Candidate::new("scan", |d: &SortedData<u64>| {
            Ok(Box::new(Scan { keys: d.keys().to_vec() }) as Box<dyn Index<u64>>)
        })
    }

    fn mirror_candidate() -> Candidate<u64> {
        Candidate::new("mirror", |d: &SortedData<u64>| {
            Ok(Box::new(MirrorIndex::over(d)) as Box<dyn Index<u64>>)
        })
    }

    fn fullscan_candidate() -> Candidate<u64> {
        Candidate::new("fullscan", |d: &SortedData<u64>| {
            Ok(Box::new(FullScan { n: d.len() }) as Box<dyn Index<u64>>)
        })
    }

    fn failing_candidate() -> Candidate<u64> {
        Candidate::new("failing", |_d: &SortedData<u64>| {
            Err(BuildError::Unbuildable("always fails".into()))
        })
    }

    #[test]
    fn prefers_fast_candidates_over_linear_scans() {
        let advisor = Advisor::new(vec![exact_candidate(), scan_candidate()]).unwrap();
        let data = SortedData::new((0..50_000u64).map(|i| i * 3).collect()).unwrap();
        let plan = advisor.advise(&data, 4).unwrap();
        assert_eq!(plan.picks.len(), plan.engine.num_shards());
        for pick in &plan.picks {
            assert_eq!(pick.label, "exact", "exact bounds must beat linear scans: {pick:?}");
            assert_eq!(pick.scores.len(), 2);
            let scan = pick.scores.iter().find(|s| s.label == "scan").expect("scan scored");
            assert!(scan.measured_ns > pick.measured_ns, "scan must time above the winner");
        }
    }

    #[test]
    fn advised_engine_answers_like_the_data() {
        let advisor = Advisor::new(vec![mirror_candidate()]).unwrap();
        let data = SortedData::new((0..10_000u64).map(|i| i * 7 + 1).collect()).unwrap();
        let plan = advisor.advise(&data, 8).unwrap();
        for i in (0..data.len()).step_by(97) {
            let k = data.key(i);
            assert_eq!(plan.engine.get(k), Some(data.payload_sum_at(k)));
        }
        assert_eq!(plan.engine.get(3), None);
    }

    /// No candidate is pruned unmeasured: every build is timed, the
    /// cheapest measurement is the pick, and scores come back
    /// cheapest-first.
    #[test]
    fn every_built_candidate_is_measured() {
        let pool =
            vec![scan_candidate(), failing_candidate(), fullscan_candidate(), exact_candidate()];
        let advisor = Advisor::new(pool).unwrap();
        let shard = SortedData::new((0..4_096u64).map(|i| i * 5).collect()).unwrap();
        let (pick, _) = advisor.score_shard(&shard).unwrap();
        let finite = pick.scores.iter().filter(|s| s.measured_ns.is_finite()).count();
        assert_eq!(finite, 3, "every built candidate is timed: {pick:?}");
        let failing = pick.scores.iter().find(|s| s.label == "failing").expect("failing scored");
        assert_eq!(failing.measured_ns, f64::INFINITY);
        assert_eq!(pick.label, "exact", "{pick:?}");
        assert_eq!(pick.label, pick.scores[0].label);
        assert!(pick.scores.windows(2).all(|w| w[0].measured_ns <= w[1].measured_ns));
    }

    #[test]
    fn failing_candidates_score_infinite_but_do_not_poison() {
        let shard = SortedData::new((0..4_096u64).collect()).unwrap();
        // A pool that builds nowhere is accepted, but cannot advise.
        let advisor = Advisor::new(vec![failing_candidate()]).unwrap();
        assert!(advisor.advise(&shard, 2).is_err());
        // Beside a candidate that builds, a failing one only scores infinite.
        let advisor = Advisor::new(vec![failing_candidate(), mirror_candidate()]).unwrap();
        let (pick, _) = advisor.score_shard(&shard).unwrap();
        assert_eq!(pick.label, "mirror");
        assert_eq!(pick.scores.len(), 2);
        assert_eq!(pick.scores[1].measured_ns, f64::INFINITY);
    }

    #[test]
    fn empty_candidate_list_is_rejected() {
        assert!(Advisor::<u64>::new(Vec::new()).is_err());
    }

    #[test]
    fn partitions_match_sharded_engine_cuts() {
        let data = SortedData::new((0..1_000u64).collect()).unwrap();
        let parts = advisor_partitions(&data, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(SortedData::len).sum::<usize>(), data.len());
        assert_eq!(parts[1].min_key(), 250);
    }

    #[test]
    fn measure_candidate_reports_finite_cost() {
        let shard = SortedData::new((0..4_096u64).collect()).unwrap();
        let ns = measure_candidate_ns(&mirror_candidate(), &shard, 512).unwrap();
        assert!(ns.is_finite() && ns >= 0.0);
    }
}
