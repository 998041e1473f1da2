//! Order statistics shared by the runner and its reports.

/// Median of `xs` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Exclusive method: 1-based position i*(n+1)/4, clamped to the
        // data, interpolating (or extrapolating, when clamped) linearly.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a bound must exceed.
pub fn iqr_share(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Start value of an [`fnv`] digest.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `x` into the FNV-1a digest `h` — the run digests compare
/// virtual outputs with it.
pub fn fnv(mut h: u64, x: u64) -> u64 {
    for b in x.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// An exact latency histogram in whole virtual ticks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TickHist {
    counts: Vec<u64>,
    n: u64,
}

impl TickHist {
    /// Records one sample.
    pub fn record(&mut self, ticks: u64) {
        let i = usize::try_from(ticks).expect("latency fits in usize");
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.n += 1;
    }

    /// Number of samples.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `(ticks, count)` for every non-empty bucket, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(t, &c)| (t as u64, c))
    }

    /// The smallest tick count at or below which at least `p` percent of
    /// the samples fall (nearest rank); `0` when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        // The epsilon keeps p * n / 100 that is whole in exact arithmetic
        // (99.9% of 10 000) from rounding up past its rank.
        let rank = ((p * self.n as f64) / 100.0 - 1e-9).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (t, c) in self.buckets() {
            seen += c;
            if seen >= rank {
                return t;
            }
        }
        self.max()
    }

    /// Largest sample; `0` when empty.
    pub fn max(&self) -> u64 {
        self.buckets().last().map_or(0, |(t, _)| t)
    }
}

/// The percentiles a report may quote, highest last, in thousandths of a
/// percent (integer, so rank arithmetic is exact).
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// The highest percentile of [`LADDER`] that has at least ten samples
/// beyond its nearest rank in a population of `n`; `None` below twenty
/// samples.
pub fn top_percentile(n: u64) -> Option<f64> {
    LADDER.iter().rev().find(|&&p| n - (n * p).div_ceil(100_000) >= 10).map(|&p| p as f64 / 1_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let share = iqr_share(&xs).expect("enough samples");
        assert!((share - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn top_percentile_keeps_ten_samples_beyond() {
        assert_eq!(top_percentile(19), None);
        assert_eq!(top_percentile(20), Some(50.0));
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(999), Some(90.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = TickHist::default();
        for t in 1..=100 {
            h.record(t);
        }
        assert_eq!(h.len(), 100);
        assert_eq!(h.percentile(50.0), 50);
        assert_eq!(h.percentile(99.0), 99);
        assert_eq!(h.percentile(100.0), 100);
        let mut big = TickHist::default();
        for t in 1..=10_000 {
            big.record(t);
        }
        assert_eq!(big.percentile(99.9), 9_990);
        assert_eq!(h.max(), 100);
        assert_eq!(TickHist::default().percentile(50.0), 0);
    }
}
