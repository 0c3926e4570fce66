//! Index-quality statistics: the paper's log2-error metric (Figures 12/13),
//! the deterministic probe sample it and lookup timings are taken over, and
//! Pareto-front extraction (Figure 7).

use crate::data::SortedData;
use crate::index::Index;
use crate::key::Key;

/// Summary of an index's search-bound quality over a probe set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Log2ErrorStats {
    /// Mean of `log2(bound size)` — the expected binary-search steps, the
    /// paper's "log2 error".
    pub mean_log2: f64,
    /// Worst-case `log2(bound size)` observed.
    pub max_log2: f64,
    /// Mean bound width in positions.
    pub mean_bound_len: f64,
}

/// Measure bound quality of `index` over `probes`, asserting validity
/// (in debug builds) against the ground-truth lower bound.
pub fn log2_error_stats<K: Key, I: Index<K> + ?Sized>(
    index: &I,
    data: &SortedData<K>,
    probes: &[K],
) -> Log2ErrorStats {
    assert!(!probes.is_empty(), "need at least one probe key");
    let mut sum_log2 = 0.0f64;
    let mut max_log2 = 0.0f64;
    let mut sum_len = 0.0f64;
    for &x in probes {
        let b = index.search_bound(x);
        debug_assert!(
            b.contains(data.lower_bound(x)),
            "{} produced invalid bound {:?} for key {} (LB={})",
            index.name(),
            b,
            x,
            data.lower_bound(x)
        );
        let l2 = b.log2_len();
        sum_log2 += l2;
        max_log2 = max_log2.max(l2);
        sum_len += b.len() as f64;
    }
    let n = probes.len() as f64;
    Log2ErrorStats { mean_log2: sum_log2 / n, max_log2, mean_bound_len: sum_len / n }
}

/// Deterministic even-stride sample of up to `cap` of `data`'s keys, with
/// a half-stride offset so the probes are never all segment-aligned.
pub fn stride_sample<K: Key>(data: &SortedData<K>, cap: usize) -> Vec<K> {
    let n = data.len();
    let count = cap.min(n).max(1);
    let stride = n / count;
    (0..count).map(|i| data.key((i * stride + stride / 2).min(n - 1))).collect()
}

/// Indices of the Pareto-optimal points when minimizing both coordinates
/// (size, lookup time). Output is sorted by the first coordinate.
///
/// A point is Pareto optimal if no other point is `<=` in both coordinates
/// and `<` in at least one.
pub fn pareto_front(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| {
        points[a].0.total_cmp(&points[b].0).then(points[a].1.total_cmp(&points[b].1))
    });
    let mut front = Vec::new();
    let mut best_y = f64::INFINITY;
    for i in order {
        let (_, y) = points[i];
        if y < best_y {
            front.push(i);
            best_y = y;
        }
    }
    front
}

/// Basic summary of a sample: mean and population standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

/// Compute mean and population standard deviation of a sample.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty());
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    Summary { mean, std_dev: var.sqrt() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::SearchBound;
    use crate::index::{Capabilities, IndexKind};

    struct FixedWidth {
        w: usize,
        n: usize,
    }

    impl Index<u64> for FixedWidth {
        fn name(&self) -> &'static str {
            "FixedWidth"
        }
        fn size_bytes(&self) -> usize {
            0
        }
        fn search_bound(&self, key: u64) -> SearchBound {
            // Center a window of width w on the true position.
            let est = key as usize / 2; // keys are 2*i in the test data
            SearchBound::from_estimate(est, self.w / 2, self.w / 2, self.n)
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities { updates: false, ordered: true, kind: IndexKind::Learned }
        }
    }

    #[test]
    fn log2_stats_reflect_bound_width() {
        let keys: Vec<u64> = (0..1000).map(|i| i * 2).collect();
        let data = SortedData::new(keys).unwrap();
        let idx = FixedWidth { w: 64, n: 1000 };
        let probes: Vec<u64> = (100..900).map(|i| i * 2).collect();
        let s = log2_error_stats(&idx, &data, &probes);
        assert!((s.mean_log2 - 6.0).abs() < 0.1, "mean_log2 = {}", s.mean_log2);
        assert!((s.mean_bound_len - 64.0).abs() < 1.0);
    }

    #[test]
    fn pareto_front_filters_dominated_points() {
        // (size, time)
        let pts = vec![
            (1.0, 10.0), // optimal
            (2.0, 9.0),  // optimal
            (2.5, 9.5),  // dominated by (2.0, 9.0)
            (3.0, 5.0),  // optimal
            (4.0, 5.0),  // dominated (same time, bigger)
            (5.0, 1.0),  // optimal
        ];
        assert_eq!(pareto_front(&pts), vec![0, 1, 3, 5]);
    }

    #[test]
    fn pareto_front_of_empty_is_empty() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn pareto_front_handles_duplicates() {
        let pts = vec![(1.0, 1.0), (1.0, 1.0)];
        assert_eq!(pareto_front(&pts), vec![0]);
    }

    #[test]
    fn summarize_basics() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
    }
}
