//! Order statistics for the benchmark's timings.

/// Samples sorted ascending (NaN-free by construction: every sample is a
/// measured duration).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of the samples (mean of the middle pair for even counts).
///
/// # Panics
/// On an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Nearest-rank quantile `q ∈ [0, 1]` of ascending-sorted samples: the
/// smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
/// On an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly above the tail value that the tail rule requires.
pub const TAIL_BEYOND: usize = 10;

/// The tail latency: the highest percentile, up to `cap`, that leaves at
/// least [`TAIL_BEYOND`] samples strictly beyond it (nearest rank; ties
/// with the value do not count as beyond). The cap fixes the statistic a
/// workload reports whenever its run is long enough, so two runs compare
/// the same percentile; a shorter run reports a lower one rather than
/// none. `None` when no sample has ten beyond it.
pub fn tail(samples: &[f64], cap: f64) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let q = cap.min((n - TAIL_BEYOND) as f64 / n as f64);
    let mut rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    loop {
        let value = s[rank - 1];
        let beyond = n - s.partition_point(|&x| x <= value);
        if beyond >= TAIL_BEYOND {
            return Some(Tail {
                value,
                percentile: 100.0 * (n - beyond) as f64 / n as f64,
                samples: n,
                beyond,
            });
        }
        rank = rank.checked_sub(1).filter(|&r| r > 0)?;
    }
}

/// How a workload's tail latency is taken: [`tail`] with `cap` in each
/// consecutive window of `window` samples, then the median over windows.
/// Windows keep a stall of the shared host that covers a minority of the
/// run from setting the figure; a run shorter than two windows is one
/// window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailRule {
    /// Highest percentile, as a fraction.
    pub cap: f64,
    /// Samples per window.
    pub window: usize,
}

/// The tail under `rule`: the median over windows of each window's tail,
/// with the smallest per-window percentile and count beyond it, or `None`
/// when some window has no sample with ten beyond it.
pub fn windowed_tail(samples: &[f64], rule: TailRule) -> Option<(Tail, usize)> {
    let windows: Vec<&[f64]> = if samples.len() >= 2 * rule.window {
        samples.chunks_exact(rule.window).collect()
    } else {
        vec![samples]
    };
    let tails: Vec<Tail> = windows.iter().map(|w| tail(w, rule.cap)).collect::<Option<_>>()?;
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    let fold = |f: fn(&Tail) -> f64| tails.iter().map(f).fold(f64::INFINITY, f64::min);
    Some((
        Tail {
            value,
            percentile: fold(|t| t.percentile),
            samples: windows[0].len(),
            beyond: fold(|t| t.beyond as f64) as usize,
        },
        windows.len(),
    ))
}

/// A tail latency with the percentile it was taken at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the percentile.
    pub value: f64,
    /// Share of the samples at or below `value`, in percent.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples strictly beyond `value`.
    pub beyond: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beyond(samples: &[f64], v: f64) -> usize {
        samples.iter().filter(|&&x| x > v).count()
    }

    #[test]
    fn tail_has_ten_samples_beyond() {
        for (n, cap) in
            [(11usize, 0.9), (79, 0.9), (100, 0.9), (250, 0.9), (1000, 0.99), (60_000, 0.99)]
        {
            let samples: Vec<f64> = (0..n).map(|i| ((i * 7919) % n) as f64).collect();
            let t = tail(&samples, cap).expect("more than ten samples");
            assert!(beyond(&samples, t.value) >= TAIL_BEYOND, "n = {n}");
            assert_eq!(beyond(&samples, t.value), t.beyond);
            assert_eq!(t.samples, n);
            if n - t.beyond > (cap * n as f64).ceil() as usize {
                panic!("n = {n}: tail above the cap");
            }
        }
    }

    #[test]
    fn tail_is_the_highest_percentile_up_to_the_cap() {
        // Below the cap: exactly ten beyond, one rank higher leaves nine.
        let samples: Vec<f64> = (0..79).map(f64::from).collect();
        let t = tail(&samples, 0.9).expect("enough samples");
        assert_eq!((t.value, t.beyond), (68.0, 10));
        // At the cap: the nominal percentile, with more than ten beyond.
        let samples: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&samples, 0.9).expect("enough samples");
        assert_eq!((t.value, t.beyond, t.percentile), (899.0, 100, 90.0));
    }

    #[test]
    fn tail_walks_below_ties() {
        let mut samples: Vec<f64> = (0..30).map(f64::from).collect();
        samples.extend(std::iter::repeat_n(100.0, 12));
        let t = tail(&samples, 0.99).expect("enough samples");
        assert_eq!((t.value, t.beyond), (29.0, 12));
        assert_eq!(tail(&[1.0; 10], 0.9), None);
        assert_eq!(tail(&[1.0; 40], 0.9), None, "all ties: nothing lies beyond any value");
    }

    #[test]
    fn windowed_tail_is_the_median_window() {
        // Five windows of 1000; the third is uniformly ten times slower.
        let samples: Vec<f64> = (0..5000)
            .map(|i| (i % 1000) as f64 * if (2000..3000).contains(&i) { 10.0 } else { 1.0 })
            .collect();
        let rule = TailRule { cap: 0.99, window: 1000 };
        let (t, windows) = windowed_tail(&samples, rule).expect("enough samples");
        assert_eq!((t.value, t.beyond, windows), (989.0, 10, 5));
        // Fewer than two windows: one window over every sample.
        let (t, windows) = windowed_tail(&samples[..1500], rule).expect("enough samples");
        assert_eq!((windows, t.samples), (1, 1500));
        assert_eq!(windowed_tail(&samples[..10], rule), None);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = sorted(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
    }
}
