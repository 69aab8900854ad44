//! Order statistics for timing samples: medians, and the tail rule the
//! benchmark reports every latency with.

/// Percentiles a tail may be reported at, lowest first. Rounding the tail
/// down to this ladder keeps the reported percentile fixed while the sample
/// count drifts a little between runs. Held in tenths of a percent so
/// ranks are exact integer arithmetic.
const LADDER: [usize; 7] = [500, 750, 900, 950, 990, 995, 999];

/// A tail percentile with the sample accounting that justifies it.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. `95.0`).
    pub pct: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples taken.
    pub n: usize,
    /// Samples strictly beyond the reported one.
    pub beyond: usize,
}

/// Index of the `permille` quantile in `n` sorted samples (nearest rank).
fn rank(permille: usize, n: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The median of `samples` (mean of the middle two for an even count).
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest ladder percentile that keeps at least ten samples beyond
/// it. With fewer than 20 samples no percentile qualifies and the median
/// is reported with its shortfall visible in `beyond`.
///
/// # Panics
///
/// On an empty slice.
#[must_use]
pub fn tail(samples: &[f64]) -> Tail {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best = (LADDER[0], rank(LADDER[0], n));
    for permille in LADDER {
        let i = rank(permille, n);
        if n - 1 - i >= 10 {
            best = (permille, i);
        }
    }
    Tail {
        pct: best.0 as f64 / 10.0,
        value: v[best.1],
        n,
        beyond: n - 1 - best.1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        for n in [20, 21, 40, 199, 200, 201, 999, 1000, 1001, 5000, 20_000] {
            let samples: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let t = tail(&samples);
            assert_eq!(t.n, n);
            assert!(t.beyond >= 10, "n={n}: p{} has {} beyond", t.pct, t.beyond);
            assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), t.beyond);
            // The next rung up would leave fewer than ten beyond.
            let reported = (t.pct * 10.0).round() as usize;
            if let Some(&next) = LADDER.iter().find(|&&p| p > reported) {
                assert!(n - 1 - rank(next, n) < 10, "n={n}: {next}‰ also qualifies");
            }
        }
    }

    #[test]
    fn tail_climbs_the_ladder_with_more_samples() {
        let few: Vec<f64> = (0..200).map(f64::from).collect();
        let many: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&few).pct, 95.0);
        assert_eq!(tail(&many).pct, 99.9);
    }

    #[test]
    fn small_samples_fall_back_to_the_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.beyond, 1);
    }
}
