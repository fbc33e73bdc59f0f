//! Sample statistics shared by every workload: medians, the tail-percentile
//! rule, and the process's peak resident set.

/// Milliseconds elapsed since `t`.
pub fn ms_since(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Percentiles the tail rule chooses from, lowest first.
const TAIL_CANDIDATES: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// Nearest-rank percentile of an ascending-sorted sample (`p` in 0–100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of an unsorted sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

/// Median (the mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond it, or
/// `None` when even p75 has fewer (the median is then the only honest
/// summary). 200 samples are the least that carry a p95; 1000 carry a p99.
pub fn tail_percentile(count: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .rfind(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// `VmHWM` of this process in MiB (0 when `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(12), None);
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(600), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn chosen_tail_has_ten_samples_beyond_it() {
        for n in [40usize, 200, 600, 1000, 5000] {
            let sorted: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let p = tail_percentile(n).unwrap();
            let value = percentile_sorted(&sorted, p);
            let beyond = sorted.iter().filter(|v| **v > value).count();
            assert!(beyond >= 10, "n={n} p={p}: only {beyond} samples beyond");
        }
    }

    #[test]
    fn nearest_rank_percentiles_and_median() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(median(&s), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
