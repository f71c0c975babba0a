//! The benchmark's own arithmetic: medians, quartiles, the tail rule, the
//! open-loop freshness mapping and the failure shares. Everything here is
//! pure so the self-tests below can pin it.

/// Median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail percentile: the highest order statistic with at least
/// [`TAIL_BEYOND`] samples above it. Returns `(value, percentile)` where
/// the percentile is the share of samples at or below the value, or
/// `None` when the sample is too small to support any tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(values);
    let rank = n - TAIL_BEYOND - 1;
    Some((s[rank], (rank + 1) as f64 / n as f64 * 100.0))
}

/// Samples that must lie beyond the reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (0 for no samples).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Failed operations as a share of attempted ones (0 when nothing was
/// attempted, which callers treat as a failed run anyway).
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    failed as f64 / attempted as f64
}

/// Freshness of published snapshots under an open-loop schedule.
///
/// Paced record `k` (0-based, in send order) is due at `t0 + k / rate`
/// seconds. A snapshot first seen at `seen` covering `covered` paced
/// records is as fresh as the time since its `covered`-th record was due:
/// `seen - (t0 + (covered - 1) / rate)`. Snapshots covering no paced
/// record say nothing about the paced phase and are skipped. Returns
/// milliseconds.
pub fn freshness_ms(observations: &[(f64, u64)], t0: f64, rate: f64) -> Vec<f64> {
    observations
        .iter()
        .filter(|(_, covered)| *covered > 0)
        .map(|&(seen, covered)| (seen - (t0 + (covered - 1) as f64 / rate)) * 1e3)
        .collect()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_pass_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        // A single slow pass moves the mean, not the median.
        assert_eq!(median(&[1.0, 1.0, 1.0, 1.0, 50.0]), 1.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail(&[1.0; 10]), None, "ten samples support no tail");
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 1.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-9);
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail(&v).unwrap();
        assert_eq!(value, 90.0, "exactly ten samples (91..=100) beyond");
        assert!((pct - 90.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|x| **x > value).count(), TAIL_BEYOND);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 198.0);
        assert_eq!(percentile(&v, 100.0), 200.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn failed_share_denominators() {
        // analyze: malformed lines over lines read.
        assert_eq!(failed_share(3, 1_000), 0.003);
        // generate: records short of the corpus volume over the volume.
        let volume = 91_710u64;
        assert_eq!(
            failed_share(volume.abs_diff(91_700), volume),
            10.0 / 91_710.0
        );
        // serve: (missing + parse errors) over records sent.
        assert_eq!(failed_share(4 + 1, 500), 0.01);
        assert_eq!(failed_share(0, 0), 0.0);
    }

    #[test]
    fn freshness_maps_the_covering_record_due_time() {
        // 1000 rec/s from t0 = 10 s: record 499 (the 500th) is due at 10.499.
        let f = freshness_ms(&[(10.6, 500), (10.0, 0), (11.0, 1000)], 10.0, 1000.0);
        assert_eq!(f.len(), 2, "snapshots covering no paced record are skipped");
        assert!((f[0] - 101.0).abs() < 1e-9);
        assert!((f[1] - 1.0).abs() < 1e-9);
    }

    /// Simulate a daemon that ingests at `capacity` rec/s (stalled inside
    /// `stall`), publishes every 100 ms while not stalled, and is fed an
    /// open-loop schedule of `rate` rec/s. Returns (seen, covered) pairs.
    fn simulate(rate: f64, capacity: f64, stall: Option<(f64, f64)>) -> Vec<(f64, u64)> {
        let dt = 0.001;
        let (mut processed, mut t, mut next_publish) = (0.0f64, 0.0f64, 0.1f64);
        let mut obs = Vec::new();
        while t < 10.0 {
            t += dt;
            let stalled = stall.is_some_and(|(a, b)| t >= a && t < b);
            let arrived = (t * rate).floor();
            if !stalled {
                processed = (processed + capacity * dt).min(arrived);
            }
            if t >= next_publish && !stalled {
                obs.push((t, processed as u64));
                next_publish = t + 0.1;
            }
        }
        obs
    }

    #[test]
    fn a_stall_shows_up_in_the_tail() {
        let rate = 100_000.0;
        let steady = freshness_ms(&simulate(rate, 150_000.0, None), 0.0, rate);
        let stalled = freshness_ms(&simulate(rate, 150_000.0, Some((4.0, 5.0))), 0.0, rate);
        let (steady_tail, _) = tail(&steady).unwrap();
        let (stalled_tail, _) = tail(&stalled).unwrap();
        assert!(steady_tail < 5.0, "steady tail {steady_tail} ms");
        // A 1 s stall leaves a 1 s backlog that drains at 50 k rec/s over
        // the next 2 s, so well over ten snapshots are ≥ 300 ms stale.
        assert!(stalled_tail > 300.0, "stalled tail {stalled_tail} ms");
        // The median barely notices.
        assert!(median(&stalled) < 5.0, "median {}", median(&stalled));
    }
}
