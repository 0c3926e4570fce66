//! Order statistics for timing samples.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const BEYOND: usize = 10;

/// A timing summarised as the choosing-metrics guide asks: the median and
/// the highest percentile that still has [`BEYOND`] samples beyond it,
/// with the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    /// The tail value, at percentile `tail_q`.
    pub tail: f64,
    /// The percentile actually reported: the requested one when the sample
    /// supports it, lower otherwise.
    pub tail_q: f64,
    pub samples: usize,
}

/// The highest percentile `<= wanted` that leaves at least [`BEYOND`]
/// samples beyond it in a sample of `n`; 0.5 when even the median cannot.
pub fn supported_percentile(n: usize, wanted: f64) -> f64 {
    if n <= BEYOND {
        return 0.5;
    }
    wanted.min((n - BEYOND) as f64 / n as f64).max(0.5)
}

/// Value at percentile `q` (nearest rank) of an ascending-sorted sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` and summarise them with the tail at `wanted_tail`
/// (lowered by [`supported_percentile`] when the sample is too small).
pub fn summarize(samples: &mut [f64], wanted_tail: f64) -> Summary {
    samples.sort_unstable_by(f64::total_cmp);
    let tail_q = supported_percentile(samples.len(), wanted_tail);
    Summary {
        p50: percentile_sorted(samples, 0.5),
        tail: percentile_sorted(samples, tail_q),
        tail_q,
        samples: samples.len(),
    }
}

/// Windows a time-ordered sample is cut into by [`summarize_windows`].
pub const WINDOWS: usize = 10;

/// Summarise time-ordered samples so that a rare host stall cannot set the
/// tail: the median is taken over all samples, the tail is the **median of
/// the per-window tails** of [`WINDOWS`] consecutive windows. One stalled
/// window moves its own tail, not the reported one; a tail that is high in
/// most windows still shows. `samples` counts every sample.
pub fn summarize_windows(ordered: &[f64], wanted_tail: f64) -> Summary {
    assert!(!ordered.is_empty(), "summary of an empty sample");
    let window = ordered.len().div_ceil(WINDOWS);
    let per_window: Vec<Summary> =
        ordered.chunks(window).map(|w| summarize(&mut w.to_vec(), wanted_tail)).collect();
    let mut tails: Vec<f64> = per_window.iter().map(|s| s.tail).collect();
    Summary {
        p50: median(&mut ordered.to_vec()),
        tail: median(&mut tails),
        tail_q: per_window[0].tail_q,
        samples: ordered.len(),
    }
}

pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_unstable_by(f64::total_cmp);
    percentile_sorted(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(100_000, 0.99), 0.99);
        assert_eq!(supported_percentile(1_000, 0.99), 0.99); // exactly ten beyond
        assert_eq!(supported_percentile(999, 0.99), 989.0 / 999.0);
        assert_eq!(supported_percentile(100, 0.99), 0.90);
        assert_eq!(supported_percentile(20, 0.99), 0.5);
        assert_eq!(supported_percentile(10, 0.99), 0.5);
        assert_eq!(supported_percentile(0, 0.99), 0.5);
    }

    #[test]
    fn summarize_uses_nearest_rank() {
        let mut s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let sum = summarize(&mut s, 0.99);
        assert_eq!((sum.p50, sum.tail, sum.tail_q, sum.samples), (500.0, 990.0, 0.99, 1000));
        // The ten samples beyond p99 are 991..=1000.
        assert_eq!(s.iter().filter(|&&v| v > sum.tail).count(), BEYOND);

        let mut small: Vec<f64> = (1..=100).map(f64::from).collect();
        let sum = summarize(&mut small, 0.99);
        assert_eq!((sum.tail, sum.tail_q), (90.0, 0.90));
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        // Ten windows of 2000 samples whose values cycle 1..=100; every
        // sample of the fourth window is stalled a hundredfold.
        let mut ordered: Vec<f64> = (0..20_000).map(|i| f64::from(i % 100 + 1)).collect();
        let quiet = summarize_windows(&ordered, 0.99);
        assert_eq!(
            (quiet.p50, quiet.tail, quiet.tail_q, quiet.samples),
            (50.0, 99.0, 0.99, 20_000)
        );
        ordered[6_000..8_000].iter_mut().for_each(|v| *v *= 100.0);
        let stalled = summarize_windows(&ordered, 0.99);
        assert_eq!(stalled.tail, 99.0);
        assert!(summarize(&mut ordered.clone(), 0.99).tail > 5_000.0);
        // A tail that is high in most windows is reported.
        ordered.iter_mut().for_each(|v| *v *= 100.0);
        assert_eq!(summarize_windows(&ordered, 0.99).tail, 9_900.0);
        // Small samples lower the percentile per window.
        assert_eq!(summarize_windows(&[1.0; 50], 0.99).tail_q, 0.5);
    }
}
