//! Order statistics for latency samples.
//!
//! A tail percentile is only reported where the sample supports it:
//! at least ten samples must lie beyond the chosen rank. When a sample
//! is too small for the percentile a metric names, the highest
//! supported one from [`LADDER`] is used instead, and the percentile
//! actually used and the sample count travel with the value so the
//! report can print them.

/// Percentiles tried, highest first, when the requested one is not
/// supported by the sample size.
pub const LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// Samples that must lie beyond a reported percentile.
pub const BEYOND: usize = 10;

/// A percentile read from a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The percentile the metric asked for, as a fraction.
    pub requested: f64,
    /// The percentile the value was read at (lower than `requested`
    /// when the sample was too small).
    pub used: f64,
    /// The value at `used`.
    pub value: f64,
    /// Samples behind the value.
    pub n: usize,
}

/// 1-based nearest rank of percentile `q` in `n` sorted samples.
pub fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps `0.99 * 1000` from rounding up past 990.
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Whether `n` samples leave at least [`BEYOND`] samples above the
/// rank of `q`. The median is always reported.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && (q <= 0.5 || n - rank(n, q) >= BEYOND)
}

/// Nearest-rank percentile of an already sorted, non-empty slice.
pub fn at(sorted: &[f64], q: f64) -> f64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// Percentile `q` of `samples`, or the highest lower rung of
/// [`LADDER`] that the sample supports. An empty sample reads 0.
pub fn tail(samples: &[f64], q: f64) -> Quantile {
    let n = samples.len();
    if n == 0 {
        return Quantile {
            requested: q,
            used: q,
            value: 0.0,
            n,
        };
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let used = std::iter::once(q)
        .chain(LADDER.iter().copied().filter(|&l| l < q))
        .find(|&l| supported(n, l))
        .unwrap_or(0.5);
    Quantile {
        requested: q,
        used,
        value: at(&sorted, used),
        n,
    }
}

/// Samples a [`Series`] keeps.
const RESERVOIR: usize = 1 << 16;

/// The samples of a measured phase: a uniform random subset of at most
/// 65 536 of them (reservoir sampling), so the benchmark's own memory
/// does not grow with the run's length or the engine's throughput and
/// show up in `peak_rss_mb`.
#[derive(Default)]
pub struct Series {
    seen: u64,
    kept: Vec<f64>,
    rng: u64,
}

impl Series {
    /// Record the sample `x`.
    pub fn push(&mut self, x: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(x);
        } else {
            // xorshift64*: deterministic, and independent of the data.
            if self.rng == 0 {
                self.rng = 0x9e37_79b9_7f4a_7c15;
            }
            self.rng ^= self.rng >> 12;
            self.rng ^= self.rng << 25;
            self.rng ^= self.rng >> 27;
            let j = self.rng.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.seen;
            if (j as usize) < RESERVOIR {
                self.kept[j as usize] = x;
            }
        }
    }

    /// Samples seen, kept or not.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Percentile `q` of the kept samples.
    pub fn quantile(&self, q: f64) -> Quantile {
        tail(&self.kept, q)
    }
}

/// The best (lowest) sample at each position of a slice, over the
/// untraced slices. Every slice of a run does the same work, so the
/// n-th sample of one slice measures the same operation as the n-th of
/// any other; each position's best is that operation's cost on its
/// least disturbed pass, and percentiles are taken over those bests.
/// On a shared host other tenants slow an operation down and never
/// speed it up, and they come and go within milliseconds, so the best
/// of a dozen or more passes is steady where a percentile of all
/// samples follows the host.
#[derive(Default)]
pub struct Positions {
    best: Vec<f64>,
    slice: usize,
    next: usize,
}

impl Positions {
    /// Record `x` as the next sample of slice `slice`; samples of a
    /// traced slice carry tracing cost and are left out.
    pub fn push(&mut self, slice: usize, traced: bool, x: f64) {
        if traced {
            return;
        }
        if slice != self.slice {
            (self.slice, self.next) = (slice, 0);
        }
        match self.best.get_mut(self.next) {
            Some(b) => *b = b.min(x),
            None => self.best.push(x),
        }
        self.next += 1;
    }

    /// Percentile `q` of the positions' bests; its `n` counts positions.
    pub fn quantile(&self, q: f64) -> Quantile {
        tail(&self.best, q)
    }
}

/// Median (mean of the two middle values for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Largest value; 0 for an empty slice.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(200, 0.95));
        assert!(!supported(199, 0.95));
        assert!(supported(1, 0.5));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn tail_falls_back_to_the_highest_supported_percentile() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let q = tail(&s, 0.99);
        assert_eq!((q.used, q.value, q.n), (0.99, 990.0, 1000));

        let s: Vec<f64> = (1..=300).map(f64::from).collect();
        let q = tail(&s, 0.99);
        assert_eq!(
            (q.requested, q.used, q.value, q.n),
            (0.99, 0.95, 285.0, 300)
        );

        let s = [5.0, 1.0, 3.0];
        let q = tail(&s, 0.99);
        assert_eq!((q.used, q.value), (0.5, 3.0));
        assert_eq!(tail(&[], 0.99).value, 0.0);
    }

    #[test]
    fn tail_sorts_its_input() {
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        s.reverse();
        assert_eq!(tail(&s, 0.5).value, 500.0);
    }

    #[test]
    fn series_bounds_its_memory_and_stays_uniform() {
        let mut s = Series::default();
        for i in 1..=1000 {
            s.push(f64::from(i));
        }
        let q = s.quantile(0.99);
        assert_eq!((q.value, q.n), (990.0, 1000));

        let mut big = Series::default();
        for i in 0..(3 * RESERVOIR as u64) {
            big.push(i as f64);
        }
        assert_eq!(
            (big.seen(), big.kept.len()),
            (3 * RESERVOIR as u64, RESERVOIR)
        );
        // The reservoir stays a uniform sample: its median is near the middle.
        let m = big.quantile(0.5).value / (3 * RESERVOIR) as f64;
        assert!((0.45..0.55).contains(&m), "{m}");
    }

    #[test]
    fn positions_keep_each_positions_best_over_untraced_slices() {
        let mut p = Positions::default();
        // Three slices of four operations; slice 1 is disturbed at
        // position 2 and slice 2 is traced.
        for slice in 0..3 {
            for pos in 0..4 {
                let x = 10.0 * (pos + 1) as f64 + slice as f64;
                let x = if slice == 1 && pos == 2 { 1e6 } else { x };
                p.push(slice, slice == 2, if slice == 2 { 0.0 } else { x });
            }
        }
        assert_eq!(p.best, vec![10.0, 20.0, 30.0, 40.0]);
        let q = p.quantile(0.5);
        assert_eq!((q.value, q.n), (20.0, 4));
        // A later slice that is faster everywhere lowers every best.
        for pos in 0..4 {
            p.push(3, false, pos as f64);
        }
        assert_eq!(p.best, vec![0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
