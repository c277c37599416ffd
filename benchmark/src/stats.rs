//! Sample arithmetic shared by the report, the comparison and the stage
//! walk: percentiles, quartile spread, shares.

/// The `p`-th percentile (0..=100) of `samples` by linear interpolation
/// between closest ranks — Python's `statistics.quantiles(...,
/// method="inclusive")`. Sorts in place. 0.0 for an empty slice.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (samples.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
}

pub fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values, n=4)`
/// gives (its default "exclusive" method: rank `q * (n + 1)`, clamped to
/// the sample). This is the spread the acceptance rule is written in.
pub fn quartile_spread(samples: &mut [f64]) -> f64 {
    let n = samples.len();
    if n < 2 {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let rank = (q * (n + 1) as f64 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        samples[lo] + (samples[hi] - samples[lo]) * (rank - lo as f64)
    };
    let med = at(0.5);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

/// `part / whole`, 0.0 when the whole is empty (a layer that did no work
/// has no share of anything).
pub fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let mut v = vec![40.0, 10.0, 30.0, 20.0];
        assert_eq!(percentile(&mut v, 0.0), 10.0);
        assert_eq!(percentile(&mut v, 100.0), 40.0);
        assert_eq!(median(&mut v), 25.0);
        assert_eq!(percentile(&mut v, 95.0), 38.5);
        assert_eq!(median(&mut [7.0]), 7.0);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&mut v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert!((quartile_spread(&mut [4.0, 1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&mut [3.0]), 0.0);
        assert_eq!(quartile_spread(&mut [0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn share_of_nothing_is_nothing() {
        assert_eq!(share(1.0, 4.0), 0.25);
        assert_eq!(share(1.0, 0.0), 0.0);
    }
}
