//! Order statistics over timing samples.

/// The `q`-quantile (`q` in `[0, 1]`) of an ascending slice, nearest rank.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
}

/// Median of an unsorted sample (sorts a copy).
pub fn median(samples: &[u64]) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.5)
}

/// Median of unsorted floats.
pub fn median_f64(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 2]
}

/// The highest percentile that still has at least ten samples beyond it,
/// as `(percentile in [0, 100], value)`. With fewer than eleven samples
/// no percentile qualifies and the median is returned instead.
pub fn tail(sorted: &[u64]) -> (f64, u64) {
    let n = sorted.len();
    if n < 11 {
        return (50.0, percentile(sorted, 0.5));
    }
    let idx = n - 11;
    (100.0 * (idx + 1) as f64 / n as f64, sorted[idx])
}

/// Splits a run into `k` consecutive segments of as equal a number of
/// samples as possible (fewer segments when there are fewer samples) and
/// returns each segment's rate in ops per second. `samples[i]` is the
/// duration in nanoseconds of the `i`-th batch of `batch` ops.
pub fn segment_rates(samples: &[u64], batch: usize, k: usize) -> Vec<f64> {
    let k = k.min(samples.len());
    (0..k)
        .map(|g| {
            let segment = &samples[g * samples.len() / k..(g + 1) * samples.len() / k];
            (segment.len() * batch) as f64 * 1e9 / segment.iter().sum::<u64>() as f64
        })
        .collect()
}

/// `(max - min) / median` of the segment rates, in percent: the run's own
/// reading of how steady it was.
pub fn spread_pct(rates: &[f64]) -> f64 {
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    100.0 * (max - min) / median_f64(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=101).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 0.5), 51);
        assert_eq!(percentile(&v, 0.99), 100);
        assert_eq!(percentile(&v, 1.0), 101);
        assert_eq!(percentile(&[7], 0.9), 7);
        assert_eq!(median(&[9, 1, 5]), 5);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<u64> = (1..=1000).collect();
        let (pct, value) = tail(&v);
        assert_eq!(value, 990);
        assert!((pct - 99.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(tail(&[1, 2, 3]), (50.0, 2));
        let eleven: Vec<u64> = (1..=11).collect();
        assert_eq!(tail(&eleven).1, 1);
    }

    #[test]
    fn segments_hold_equal_counts_and_a_stall_moves_only_its_own() {
        // Ten batches of 4 ops at 100 ns, then ten at 900 ns.
        let mut samples = vec![100u64; 10];
        samples.extend(vec![900u64; 10]);
        let rates = segment_rates(&samples, 4, 2);
        assert_eq!(rates, vec![40.0 * 1e9 / 1_000.0, 40.0 * 1e9 / 9_000.0]);
        // One stalled batch in a steady run: one segment slows, the
        // median rate does not move.
        let mut stalled = vec![50u64; 600];
        stalled[300] = 50_000;
        let rates = segment_rates(&stalled, 1, 15);
        assert_eq!(rates.len(), 15);
        assert_eq!(median_f64(&rates), 1e9 / 50.0);
        assert!(spread_pct(&rates) > 90.0);
        // A perfectly even run has no spread; fewer samples than segments
        // give one segment a sample.
        assert!(spread_pct(&segment_rates(&[50; 600], 1, 6)) < 1e-9);
        assert_eq!(segment_rates(&[10, 20, 40], 1, 15), vec![1e8, 5e7, 2.5e7]);
        assert!((spread_pct(&[90.0, 100.0, 110.0]) - 20.0).abs() < 1e-9);
    }
}
