//! Percentiles that refuse to extrapolate, and small summaries.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A nearest-rank percentile together with the sample count behind it.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `samples` (`0 < q < 1`). `Err` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it: the tail is then not
/// measured, and the benchmark refuses to report a number for it.
pub fn percentile(samples: &[f64], q: f64) -> Result<Percentile, String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} needs {MIN_BEYOND} samples beyond it, {n} samples leave {beyond}",
            q * 100.0
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a non-empty slice (the mean of the middle pair for even
/// lengths); 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.9).unwrap();
        assert_eq!((p90.value, p90.samples, p90.beyond), (90.0, 100, 10));
        assert!(percentile(&samples[..99], 0.9).is_err());
        assert!(percentile(&samples, 0.99).is_err());
        assert_eq!(percentile(&samples, 0.5).unwrap().value, 50.0);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
