//! Order statistics for the report: a timing is a median plus the highest
//! percentile that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, lowest first.
const TAIL_LADDER: [f64; 6] = [75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Sort `values` ascending in place (NaN-free inputs).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Percentile `pct` (0..=100) of an ascending slice, linearly interpolated
/// between ranks; 0.0 for an empty slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    let Some(last) = sorted.len().checked_sub(1) else {
        return 0.0;
    };
    let rank = (pct / 100.0).clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// The highest ladder percentile with at least ten samples beyond it, as
/// `(percentile, value)`; the median when the sample supports none.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let pct = TAIL_LADDER
        .iter()
        .copied()
        .rfind(|p| n * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
        .unwrap_or(50.0);
    (pct, percentile(sorted, pct))
}

/// Nanosecond samples to an ascending vector in `unit_ns` units
/// (1e3 = µs, 1e6 = ms).
pub fn sorted_in(samples_ns: &[u64], unit_ns: f64) -> Vec<f64> {
    let mut v: Vec<f64> = samples_ns.iter().map(|&ns| ns as f64 / unit_ns).collect();
    sort(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&v).0, 99.0);
        let v: Vec<f64> = (0..12).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }
}
