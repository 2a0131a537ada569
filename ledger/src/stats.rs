//! Order statistics of a metric's samples.

/// The central value and spread of one metric on one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// The reported value: the median of the samples, except for `cpu_s`,
    /// whose 10 ms clock makes the mean over a run's reps the honest figure.
    pub value: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two nearest ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let at = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

impl Stats {
    /// Median, quartiles and range of `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Stats> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Stats {
            value: quantile(&sorted, 0.5),
            q1: quantile(&sorted, 0.25),
            q3: quantile(&sorted, 0.75),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        })
    }

    /// The same spread around the samples' mean instead of their median.
    pub fn around_mean(samples: &[f64]) -> Option<Stats> {
        let mut stats = Stats::of(samples)?;
        stats.value = samples.iter().sum::<f64>() / samples.len() as f64;
        Some(stats)
    }

    /// Interquartile range as a share of the central value.
    pub fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample_counts_hit_exact_ranks() {
        let s = Stats::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.value, s.q1, s.q3), (3.0, 2.0, 4.0));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
    }

    #[test]
    fn even_sample_counts_interpolate() {
        let s = Stats::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!((s.value, s.q1, s.q3), (2.5, 1.75, 3.25));
        assert_eq!(s.spread(), 1.5 / 2.5);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(Stats::of(&[]), None);
        let one = Stats::of(&[7.0]).unwrap();
        assert_eq!((one.value, one.q1, one.q3, one.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(Stats::around_mean(&[1.0, 2.0, 6.0]).unwrap().value, 3.0);
    }
}
