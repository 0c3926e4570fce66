//! The self-tuning index advisor: pick the index per shard, automatically,
//! at every rebuild.
//!
//! The paper's central finding is that no single index family wins
//! everywhere — the best choice depends on the key distribution and the
//! workload. The serving stack already rebuilds the write-behind base from
//! scratch at every merge, so this module closes the loop: at rebuild time,
//! sample each shard's key distribution, score every candidate index with
//! a **trained-once linear cost model**, and emit a possibly heterogeneous
//! [`ShardedEngine`] — an RMI on a smooth shard, a PGM on a bursty one, a
//! plain binary-search engine on a tiny shard. The inputs are the shard's
//! data alone: the same features (§4.3's log2 error, `log2 n`) the paper
//! uses to explain lookup time.
//!
//! # How scoring works
//!
//! Candidates are injected (label + an [`Index`] factory), so the crate
//! stays independent of any concrete index implementation. At
//! construction, [`Advisor::train`] builds every candidate over a small
//! grid of synthetic distributions × sizes, measures actual end-to-end
//! lookup cost (model + last-mile + payload fetch), and fits one OLS
//! regression **per candidate**:
//!
//! ```text
//! predicted_ns = w0 + w1 * mean_log2(sample) + w2 * log2(n)
//! ```
//!
//! `mean_log2` is the paper's Figure-12 model-fit statistic over a
//! deterministic key sample, so family-specific model cost lands in the
//! per-candidate intercept and the distribution sensitivity in `w1`. At
//! advise time each candidate is built once on the shard (the winner's
//! build is reused as the serving engine), its bound stats are computed
//! over the sample, and the trained weights predict the cost. A
//! two-feature linear model cannot resolve near-ties — its errors on
//! unusual shards (a shard straddling two distribution regimes, say) are
//! larger than the margins between good candidates — so the model's job
//! is to *prune*: candidates predicted within `RUNOFF_FACTOR`× of the
//! model's favorite enter a measured runoff over the same probe sample
//! (the indexes are already built; timing ~1k probes costs microseconds),
//! and the runoff decides the pick.
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
//! let advisor = Advisor::train(candidates).unwrap();
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
use crate::ols;
use crate::shard::{partition_points, ShardedEngine};
use crate::stats::log2_error_stats;
use crate::util::splitmix64;
use crate::writebehind::BaseFactory;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-shard probe-sample budget for feature extraction (even-stride
/// deterministic sample).
const SAMPLE_CAP: usize = 1_024;

/// Training-grid sizes (keys per synthetic dataset). Three sizes give the
/// `log2(n)` regressor spread; kept small so training stays in the tens of
/// milliseconds.
const TRAIN_SIZES: [usize; 3] = [4_096, 16_384, 65_536];

/// Lookups timed per training cell.
const TRAIN_PROBES: usize = 2_048;

/// Candidates whose model-predicted cost is within this factor of the
/// model's favorite enter the measured runoff that decides the pick. The
/// linear model's shard-level error is roughly 2× in the worst case, so
/// anything within 3× of the favorite is a genuine contender.
const RUNOFF_FACTOR: f64 = 3.0;

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
    /// Cost-model prediction, nanoseconds per lookup. `f64::INFINITY` when
    /// the build failed.
    pub predicted_ns: f64,
    /// Measured runoff cost — `Some` only for candidates predicted within
    /// `RUNOFF_FACTOR`× of the model's favorite. The pick minimizes this
    /// among runoff entrants.
    pub runoff_ns: Option<f64>,
    /// Mean log2 bound width over the shard's stride sample.
    pub mean_log2: f64,
}

/// The advisor's decision for one shard: the winning candidate plus every
/// candidate's score (cheapest first) for observability.
#[derive(Debug, Clone)]
pub struct ShardPick {
    /// Index into the advisor's candidate list.
    pub candidate: usize,
    /// The winning candidate's label.
    pub label: String,
    /// The winner's predicted nanoseconds per lookup.
    pub predicted_ns: f64,
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

/// Per-candidate trained weights: `predicted_ns = w0 + w1 * mean_log2 +
/// w2 * log2(n)`.
#[derive(Debug, Clone, Copy)]
struct CandidateWeights {
    w0: f64,
    w1: f64,
    w2: f64,
}

/// The trained-once, candidate-injected index advisor.
///
/// Construction ([`Advisor::train`]) is where the cost model is timed; the
/// model's prediction on a shard is deterministic given the shard data
/// (bound stats plus trained weights), and the only clock on the advise
/// path is the measured runoff among the model's shortlist.
pub struct Advisor<K: Key> {
    candidates: Vec<Candidate<K>>,
    weights: Vec<CandidateWeights>,
}

impl<K: Key> std::fmt::Debug for Advisor<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Advisor")
            .field("candidates", &self.candidates.iter().map(|c| c.label()).collect::<Vec<_>>())
            .finish()
    }
}

impl<K: Key> Advisor<K> {
    /// Train the cost model once over a synthetic distribution × size grid
    /// and return the ready advisor. Candidates that fail to build on
    /// every training dataset are an error (a candidate failing on *some*
    /// distributions is fine — it is scored infinite where it fails).
    pub fn train(candidates: Vec<Candidate<K>>) -> Result<Self, BuildError> {
        if candidates.is_empty() {
            return Err(BuildError::InvalidConfig("advisor needs at least one candidate".into()));
        }
        let grid: Vec<SortedData<K>> =
            TRAIN_SIZES.iter().flat_map(|&n| training_shapes(n)).collect();
        let mut weights = Vec::with_capacity(candidates.len());
        for cand in &candidates {
            let mut xs: Vec<Vec<f64>> = Vec::new();
            let mut ys: Vec<f64> = Vec::new();
            for data in &grid {
                let Ok(index) = cand.build(data) else {
                    continue;
                };
                let probes = stride_sample(data, TRAIN_PROBES);
                let stats = log2_error_stats(index.as_ref(), data, &probes);
                let ns = min_lookup_ns(index.as_ref(), data, &probes);
                xs.push(vec![stats.mean_log2, (data.len() as f64).log2()]);
                ys.push(ns);
            }
            if ys.is_empty() {
                return Err(BuildError::Unbuildable(format!(
                    "advisor candidate {} built on no training dataset",
                    cand.label()
                )));
            }
            weights.push(fit_weights(&xs, &ys));
        }
        Ok(Advisor { candidates, weights })
    }

    /// The injected candidates, in scoring order.
    pub fn candidates(&self) -> &[Candidate<K>] {
        &self.candidates
    }

    /// Score every candidate on one shard: the trained model prices all of
    /// them, then the candidates within `RUNOFF_FACTOR`× of the model's
    /// favorite are timed over the probe sample and the measured runoff
    /// decides. Returns the built winner index alongside the pick so
    /// callers can serve from it without a second build. Fails only when
    /// no candidate builds on the shard.
    fn score_shard(
        &self,
        shard: &SortedData<K>,
    ) -> Result<(ShardPick, Box<dyn Index<K>>), BuildError> {
        let probes = stride_sample(shard, SAMPLE_CAP);
        let mut scores: Vec<CandidateScore> = Vec::with_capacity(self.candidates.len());
        let mut built: Vec<Option<Box<dyn Index<K>>>> = Vec::with_capacity(self.candidates.len());
        for (i, cand) in self.candidates.iter().enumerate() {
            let index = cand.build(shard);
            let (predicted_ns, mean_log2) = match &index {
                Ok(index) => {
                    let stats = log2_error_stats(index.as_ref(), shard, &probes);
                    let w = &self.weights[i];
                    let lookup_ns =
                        w.w0 + w.w1 * stats.mean_log2 + w.w2 * (shard.len() as f64).log2();
                    (lookup_ns.max(0.0), stats.mean_log2)
                }
                Err(_) => (f64::INFINITY, f64::INFINITY),
            };
            built.push(index.ok());
            scores.push(CandidateScore {
                candidate: i,
                label: cand.label().to_string(),
                predicted_ns,
                runoff_ns: None,
                mean_log2,
            });
        }
        let mut by_cost: Vec<f64> = scores.iter().map(|s| s.predicted_ns).collect();
        by_cost.sort_by(f64::total_cmp);
        let favorite = by_cost[0];
        if !favorite.is_finite() {
            return Err(BuildError::Unbuildable("no advisor candidate built on this shard".into()));
        }
        // The shortlist never falls below the two cheapest predictions: a
        // model trained through a timing burst can price its favorite at
        // <= 0 ns, and a multiple of that would prune every competitor.
        let shortlist_ns = (RUNOFF_FACTOR * favorite).max(*by_cost.get(1).unwrap_or(&favorite));
        // Measured runoff among the model's shortlist.
        let mut winner: Option<(usize, f64)> = None;
        for (i, score) in scores.iter_mut().enumerate() {
            let Some(index) = &built[i] else { continue };
            if score.predicted_ns > shortlist_ns {
                continue;
            }
            let measured = min_lookup_ns(index.as_ref(), shard, &probes);
            score.runoff_ns = Some(measured);
            if winner.is_none_or(|(_, best_ns)| measured < best_ns) {
                winner = Some((i, measured));
            }
        }
        let (winner, _) = winner.expect("finite favorite implies at least one runoff entrant");
        let index = built.into_iter().nth(winner).flatten().expect("runoff winner was built");
        let picked = scores[winner].clone();
        let mut sorted = scores;
        sorted.sort_by(|a, b| {
            let key = |s: &CandidateScore| s.runoff_ns.unwrap_or(s.predicted_ns);
            key(a).total_cmp(&key(b))
        });
        Ok((
            ShardPick {
                candidate: picked.candidate,
                label: picked.label,
                predicted_ns: picked.predicted_ns,
                shard_len: shard.len(),
                scores: sorted,
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

/// Deterministic even-stride sample with a half-stride offset (never all
/// segment-aligned), up to `cap` keys.
fn stride_sample<K: Key>(data: &SortedData<K>, cap: usize) -> Vec<K> {
    let n = data.len();
    let count = cap.min(n).max(1);
    let stride = n / count;
    (0..count).map(|i| data.key((i * stride + stride / 2).min(n - 1))).collect()
}

/// The synthetic training shapes at one size: a linear ramp, a smooth
/// quadratic curve, a duplicate-heavy array, and uniform-random keys. All
/// values stay below 2^31 so every [`Key`] width round-trips.
fn training_shapes<K: Key>(n: usize) -> Vec<SortedData<K>> {
    let linear: Vec<K> = (0..n).map(|i| K::from_u64(7 + 3 * i as u64)).collect();
    let quadratic: Vec<K> =
        (0..n).map(|i| K::from_u64((i as u64 * i as u64) / (n as u64 / 64 + 1))).collect();
    let duplicated: Vec<K> = (0..n).map(|i| K::from_u64((i as u64 / 64) * 97)).collect();
    let mut random: Vec<u64> =
        (0..n).map(|i| splitmix64(i as u64 ^ 0x5EED_5EED) % (1 << 31)).collect();
    random.sort_unstable();
    let random: Vec<K> = random.into_iter().map(K::from_u64).collect();
    [linear, quadratic, duplicated, random]
        .into_iter()
        .map(|keys| SortedData::new(keys).expect("training shapes are sorted and non-empty"))
        .collect()
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

/// The cheapest of three [`time_lookup_ns`] passes — what training and the
/// runoff record, so one scheduler burst cannot become a model weight or
/// decide a pick.
fn min_lookup_ns<K: Key>(index: &dyn Index<K>, data: &SortedData<K>, probes: &[K]) -> f64 {
    (0..3).map(|_| time_lookup_ns(index, data, probes)).fold(f64::INFINITY, f64::min)
}

/// Fit `ns = w0 + w1 * mean_log2 + w2 * log2(n)` by OLS, dropping
/// near-constant regressors first (an exact index's `mean_log2` is 0 on
/// every training set, which would make the design matrix singular). A
/// still-singular or too-small system falls back to the mean observed
/// cost as a flat intercept — a valid, if blunt, predictor.
fn fit_weights(xs: &[Vec<f64>], ys: &[f64]) -> CandidateWeights {
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    let variance = |col: usize| -> f64 {
        let mean = xs.iter().map(|r| r[col]).sum::<f64>() / xs.len() as f64;
        xs.iter().map(|r| (r[col] - mean) * (r[col] - mean)).sum::<f64>() / xs.len() as f64
    };
    let keep: Vec<usize> = (0..2).filter(|&c| variance(c) > 1e-9).collect();
    if !keep.is_empty() {
        let reduced: Vec<Vec<f64>> =
            xs.iter().map(|r| keep.iter().map(|&c| r[c]).collect()).collect();
        if let Ok(fit) = ols::fit(&reduced, ys) {
            let mut w = [0.0f64; 2];
            for (slot, &col) in keep.iter().enumerate() {
                w[col] = fit.coefficients[slot + 1];
            }
            return CandidateWeights { w0: fit.coefficients[0], w1: w[0], w2: w[1] };
        }
    }
    CandidateWeights { w0: mean_y, w1: 0.0, w2: 0.0 }
}

/// Exhaustively partition-and-measure helper used by tests and the ext11
/// experiment: the measured mean lookup nanoseconds of `candidate` over
/// one shard's stride sample (no cost model involved).
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
    /// pays a whole binary search and `mean_log2` is maximal.
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

    /// The opposite extreme: a stored copy of the keys answering every
    /// probe with an exact single-position bound (`mean_log2` ≈ 0).
    struct Exact {
        keys: Vec<u64>,
    }

    impl Index<u64> for Exact {
        fn name(&self) -> &'static str {
            "Exact"
        }
        fn size_bytes(&self) -> usize {
            self.keys.len() * 8
        }
        fn search_bound(&self, key: u64) -> SearchBound {
            let p = self.keys.partition_point(|&k| k < key);
            SearchBound { lo: p, hi: (p + 1).min(self.keys.len()) }
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::BinarySearch }
        }
    }

    fn exact_candidate() -> Candidate<u64> {
        Candidate::new("exact", |d: &SortedData<u64>| {
            Ok(Box::new(Exact { keys: d.keys().to_vec() }) as Box<dyn Index<u64>>)
        })
    }

    /// Exact bounds reached the slow way: a linear scan per probe, so both
    /// the trained intercept and the measured runoff see the real cost.
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
    fn trains_and_prefers_fast_candidates_over_linear_scans() {
        let advisor = Advisor::train(vec![exact_candidate(), scan_candidate()]).unwrap();
        let data = SortedData::new((0..50_000u64).map(|i| i * 3).collect()).unwrap();
        let plan = advisor.advise(&data, 4).unwrap();
        assert_eq!(plan.picks.len(), plan.engine.num_shards());
        for pick in &plan.picks {
            assert_eq!(pick.label, "exact", "exact bounds must beat linear scans: {pick:?}");
            assert_eq!(pick.scores.len(), 2);
            // Scores come back cheapest-first; at a >100x gap, the model
            // alone already rules the scan out of the runoff.
            let scan = pick.scores.iter().find(|s| s.label == "scan").expect("scan scored");
            assert!(
                scan.predicted_ns > pick.predicted_ns,
                "scan must price above the winner: {pick:?}"
            );
        }
    }

    #[test]
    fn advised_engine_answers_like_the_data() {
        let advisor = Advisor::train(vec![mirror_candidate()]).unwrap();
        let data = SortedData::new((0..10_000u64).map(|i| i * 7 + 1).collect()).unwrap();
        let plan = advisor.advise(&data, 8).unwrap();
        for i in (0..data.len()).step_by(97) {
            let k = data.key(i);
            assert_eq!(plan.engine.get(k), Some(data.payload_sum_at(k)));
        }
        assert_eq!(plan.engine.get(3), None);
    }

    #[test]
    fn failing_candidates_score_infinite_but_do_not_poison() {
        let advisor = Advisor::train(vec![mirror_candidate(), failing_candidate()]);
        // A candidate that builds nowhere fails training loudly.
        assert!(advisor.is_err());
        // But a candidate that merely loses still appears in the scores.
        let advisor = Advisor::train(vec![mirror_candidate(), fullscan_candidate()]).unwrap();
        let shard = SortedData::new((0..4_096u64).collect()).unwrap();
        let (pick, _) = advisor.score_shard(&shard).unwrap();
        assert_eq!(pick.scores.len(), 2);
        assert!(pick.scores.iter().all(|s| s.predicted_ns.is_finite()));
    }

    /// A model whose favorite prices at <= 0 ns (trained through a timing
    /// burst) must not talk the runoff out of measuring a competitor.
    #[test]
    fn non_positive_prediction_cannot_empty_the_runoff() {
        let flat = |w0| CandidateWeights { w0, w1: 0.0, w2: 0.0 };
        let advisor = Advisor {
            candidates: vec![scan_candidate(), exact_candidate(), fullscan_candidate()],
            weights: vec![flat(-40.0), flat(25.0), flat(1e6)],
        };
        let shard = SortedData::new((0..4_096u64).map(|i| i * 5).collect()).unwrap();
        let (pick, _) = advisor.score_shard(&shard).unwrap();
        let entrants: Vec<&str> = pick
            .scores
            .iter()
            .filter(|s| s.runoff_ns.is_some())
            .map(|s| s.label.as_str())
            .collect();
        assert_eq!(entrants.len(), 2, "the two cheapest predictions run off: {pick:?}");
        assert!(entrants.contains(&"exact"), "{pick:?}");
        assert_eq!(pick.label, "exact", "the measurement, not the 0 ns prediction, decides");
    }

    #[test]
    fn empty_candidate_list_is_rejected() {
        assert!(Advisor::<u64>::train(Vec::new()).is_err());
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
