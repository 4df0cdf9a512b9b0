//! Order statistics and bookkeeping shared by every workload.

/// Nearest-rank quantile of an unsorted sample; `None` when empty.
pub fn quantile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median by nearest rank; `None` when empty.
pub fn median(sample: &[f64]) -> Option<f64> {
    quantile(sample, 0.5)
}

/// Samples strictly beyond a percentile that a result must have before
/// the percentile is reported.
pub const MIN_BEYOND: usize = 10;

/// Like [`quantile`], but `None` unless at least [`MIN_BEYOND`] samples
/// lie beyond the quantile (`n * (1 - q) >= 10`, so p99 needs 1000
/// samples). Below that the "percentile" is one of the few largest
/// samples and swings from run to run.
pub fn supported_quantile(sample: &[f64], q: f64) -> Option<f64> {
    let beyond = sample.len() as f64 * (1.0 - q);
    if beyond + 1e-9 < MIN_BEYOND as f64 {
        return None;
    }
    quantile(sample, q)
}

/// What is left of an end-to-end time once its measured parts are taken
/// out. Negative when the parts overlap (they are summed over threads).
pub fn remainder(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// Operations a workload phase attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts `n` operations, `failed` of which failed.
    pub fn record(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed.min(n);
    }

    pub fn succeeded(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.5), Some(2.0));
        assert_eq!(quantile(&v, 0.99), Some(4.0));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(supported_quantile(&v, 0.99), None, "9.99 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(supported_quantile(&v, 0.99), Some(990.0));
        assert_eq!(supported_quantile(&v[..19], 0.5), None);
        assert_eq!(supported_quantile(&v[..20], 0.5), Some(10.0));
        assert_eq!(supported_quantile(&[], 0.5), None);
    }

    #[test]
    fn remainder_is_total_minus_parts() {
        assert_eq!(remainder(10.0, &[2.5, 3.5]), 4.0);
        assert_eq!(remainder(10.0, &[]), 10.0);
        assert_eq!(remainder(1.0, &[0.75, 0.75]), -0.5);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.record(10, 0);
        t.record(5, 2);
        t.record(1, 7); // a failure count can never exceed the attempts
        assert_eq!(
            t,
            Tally {
                attempted: 16,
                failed: 3
            }
        );
        assert_eq!(t.succeeded(), 13);
        let mut total = Tally::default();
        total.add(t);
        total.add(Tally {
            attempted: 4,
            failed: 4,
        });
        assert_eq!(
            total,
            Tally {
                attempted: 20,
                failed: 7
            }
        );
    }
}
