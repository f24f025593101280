//! Aggregation helpers: percentiles, CDFs, and the paper's two headline
//! metrics — throughput ratio and data-loss ratio (§8.1).

/// A percentile over a sample set (linear interpolation). Sorts a copy;
/// to read several percentiles of one set, sort it once with
/// [`sort_samples`] and read [`percentile_sorted`].
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = samples.to_vec();
    sort_samples(&mut v);
    percentile_sorted(&v, p)
}

/// Sorts samples ascending in the order [`percentile_sorted`] reads:
/// a stable sort by `partial_cmp`, so equal values (`-0.0` and `+0.0`
/// among them) keep their input order.
pub fn sort_samples(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// A percentile, by linear interpolation, of samples already sorted by
/// [`sort_samples`].
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = idx - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// An empirical CDF over samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples.
    pub fn new(mut samples: Vec<f64>) -> Self {
        sort_samples(&mut samples);
        Self { sorted: samples }
    }

    /// `P(X ≤ x)`.
    pub fn at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.partition_point(|&v| v <= x);
        n as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF (quantile).
    pub fn quantile(&self, p: f64) -> f64 {
        percentile_sorted(&self.sorted, p)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Evenly spaced `(x, P(X ≤ x))` points for printing/plotting.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("nonempty");
        (0..=n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / n as f64;
                (x, self.at(x))
            })
            .collect()
    }
}

/// Running totals of one simulation arm (FFC or non-FFC), in
/// bandwidth-unit × seconds (e.g. Gb when capacities are Gbps).
#[derive(Debug, Clone, Default)]
pub struct RunTotals {
    /// Granted throughput volume per priority.
    pub delivered: [f64; 3],
    /// Congestion loss volume per priority.
    pub lost_congestion: [f64; 3],
    /// Blackhole loss volume per priority.
    pub lost_blackhole: [f64; 3],
}

impl RunTotals {
    /// Adds one interval's per-priority volumes.
    pub fn add(
        &mut self,
        delivered: &[f64; 3],
        lost_congestion: &[f64; 3],
        lost_blackhole: &[f64; 3],
    ) {
        for (total, interval) in [
            (&mut self.delivered, delivered),
            (&mut self.lost_congestion, lost_congestion),
            (&mut self.lost_blackhole, lost_blackhole),
        ] {
            for (t, v) in total.iter_mut().zip(interval) {
                *t += v;
            }
        }
    }

    /// Total delivered volume.
    pub fn total_delivered(&self) -> f64 {
        self.delivered.iter().sum()
    }

    /// Total lost volume (congestion + blackhole).
    pub fn total_lost(&self) -> f64 {
        self.lost_congestion.iter().sum::<f64>() + self.lost_blackhole.iter().sum::<f64>()
    }

    /// Lost volume of one priority index.
    pub fn lost_of(&self, p: usize) -> f64 {
        self.lost_congestion[p] + self.lost_blackhole[p]
    }

    /// The paper's throughput ratio: `self` (FFC) over `base` (non-FFC).
    pub fn throughput_ratio(&self, base: &RunTotals) -> f64 {
        ratio(self.total_delivered(), base.total_delivered())
    }

    /// The paper's data-loss ratio: `self` (FFC) over `base` (non-FFC).
    pub fn loss_ratio(&self, base: &RunTotals) -> f64 {
        ratio(self.total_lost(), base.total_lost())
    }
}

/// `a / b` with the convention 0/0 = 1 (no traffic on either side).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b.abs() < 1e-12 {
        if a.abs() < 1e-12 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 0.5);
    }

    /// `percentile` as it was before the sorted-slice split: every call
    /// sorts its own copy.
    fn percentile_sorting_each_call(samples: &[f64], p: f64) -> f64 {
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
        let idx = p * (v.len() - 1) as f64;
        let (lo, hi) = (idx.floor() as usize, idx.ceil() as usize);
        if lo == hi {
            v[lo]
        } else {
            let frac = idx - lo as f64;
            v[lo] * (1.0 - frac) + v[hi] * frac
        }
    }

    #[test]
    fn one_sort_reads_the_bits_of_a_sort_per_percentile() {
        let mut state = 0x9e37_79b9u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for n in [1usize, 2, 3, 7, 100, 1001] {
            // Few distinct values, so ties everywhere, both zeros among
            // them, in record order.
            let series: Vec<f64> = (0..n)
                .map(|_| match (next() * 5.0) as usize {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 0.9,
                    _ => (next() * 8.0).floor() / 8.0,
                })
                .collect();
            let mut sorted = series.clone();
            sort_samples(&mut sorted);
            let cdf = Cdf::new(series.clone());
            for p in [0.0, 0.01, 0.25, 0.37, 0.5, 0.9, 0.99, 1.0] {
                let want = percentile_sorting_each_call(&series, p).to_bits();
                assert_eq!(
                    percentile(&series, p).to_bits(),
                    want,
                    "percentile, n {n}, p {p}"
                );
                assert_eq!(
                    percentile_sorted(&sorted, p).to_bits(),
                    want,
                    "sorted, n {n}, p {p}"
                );
                assert_eq!(
                    cdf.quantile(p).to_bits(),
                    want,
                    "Cdf::quantile, n {n}, p {p}"
                );
            }
        }
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(cdf.at(0.0), 0.0);
        assert_eq!(cdf.at(2.0), 0.5);
        assert_eq!(cdf.at(10.0), 1.0);
        assert_eq!(cdf.quantile(1.0), 4.0);
        assert_eq!(cdf.len(), 4);
        let pts = cdf.points(3);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].0, 1.0);
        assert_eq!(pts[3], (4.0, 1.0));
    }

    #[test]
    fn cdf_empty_behaviour() {
        let cdf = Cdf::new(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.at(1.0), 0.0);
        assert!(cdf.points(5).is_empty());
    }

    #[test]
    fn totals_and_ratios() {
        let ffc = RunTotals {
            delivered: [90.0, 0.0, 0.0],
            lost_congestion: [1.0, 0.0, 0.0],
            lost_blackhole: [0.5, 0.0, 0.0],
        };
        let base = RunTotals {
            delivered: [100.0, 0.0, 0.0],
            lost_congestion: [10.0, 0.0, 0.0],
            lost_blackhole: [5.0, 0.0, 0.0],
        };
        assert!((ffc.throughput_ratio(&base) - 0.9).abs() < 1e-12);
        assert!((ffc.loss_ratio(&base) - 0.1).abs() < 1e-12);
        assert_eq!(ffc.lost_of(0), 1.5);
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(1.0, 0.0), f64::INFINITY);
        assert_eq!(ratio(1.0, 2.0), 0.5);
    }
}
