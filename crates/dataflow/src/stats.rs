//! Empirical statistics for the paper's analyses.
//!
//! * [`Ecdf`] — empirical cumulative distribution functions (Figures 3 & 4).
//!   §5.3 invokes the Glivenko–Cantelli theorem to bound `‖F_n − F‖∞` for
//!   the 800 000-pair sample; [`dkw_epsilon`] is the quantitative
//!   (Dvoretzky–Kiefer–Wolfowitz) version of that bound.
//! * [`Kde`] — Gaussian kernel density estimation (the "PDF estimation of 96
//!   communities" in Figure 5).
//! * [`Histogram`], [`Summary`] — the degree summaries of §3 and §5.1.

/// An empirical CDF over `f64` samples.
///
/// Construction sorts a copy of the data; evaluation is a binary search.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from samples. Non-finite values are dropped.
    pub fn new(mut values: Vec<f64>) -> Ecdf {
        values.retain(|v| v.is_finite());
        values.sort_by(f64::total_cmp);
        Ecdf { sorted: values }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if no samples were retained.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F_n(x)` = fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1), by the inverse-CDF (type-1) definition.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[idx - 1])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Step points `(x, F_n(x))` at every distinct sample — the series a
    /// plotting tool needs to draw the CDF curve.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut out = Vec::new();
        let mut i = 0;
        while i < n {
            let x = self.sorted[i];
            let mut j = i + 1;
            while j < n && self.sorted[j] == x {
                j += 1;
            }
            out.push((x, j as f64 / n as f64));
            i = j;
        }
        out
    }

    /// Evaluate on an evenly spaced grid of `steps` points spanning the data.
    pub fn grid(&self, steps: usize) -> Vec<(f64, f64)> {
        match (self.min(), self.max()) {
            (Some(lo), Some(hi)) if steps >= 2 => {
                let span = hi - lo;
                (0..steps)
                    .map(|i| {
                        let x = lo + span * i as f64 / (steps - 1) as f64;
                        (x, self.eval(x))
                    })
                    .collect()
            }
            _ => Vec::new(),
        }
    }
}

/// Dvoretzky–Kiefer–Wolfowitz bound: with probability at least `1 − alpha`,
/// `‖F_n − F‖∞ ≤ ε` where `ε = sqrt(ln(2/alpha) / (2 n))`.
///
/// This is the finite-sample sharpening of the Glivenko–Cantelli theorem the
/// paper cites for its 800 000-pair sample. (The paper quotes ε = 0.0196 at
/// 99 % for n = 800 000; the DKW value is ~0.00182 — the theorem guarantees
/// at least their claimed accuracy.)
pub fn dkw_epsilon(n: usize, alpha: f64) -> f64 {
    assert!(n > 0, "DKW bound needs at least one sample");
    let alpha = alpha.clamp(1e-12, 1.0);
    ((2.0 / alpha).ln() / (2.0 * n as f64)).sqrt()
}

/// Gaussian kernel density estimator.
#[derive(Debug, Clone)]
pub struct Kde {
    samples: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Build with Silverman's rule-of-thumb bandwidth
    /// `0.9 · min(σ, IQR/1.34) · n^(−1/5)`.
    pub fn new(values: Vec<f64>) -> Kde {
        let mut samples: Vec<f64> = values.into_iter().filter(|v| v.is_finite()).collect();
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        let bandwidth = if n < 2 {
            1.0
        } else {
            let mean = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let sd = var.sqrt();
            let q1 = samples[(n as f64 * 0.25) as usize];
            let q3 = samples[((n as f64 * 0.75) as usize).min(n - 1)];
            let iqr = (q3 - q1).max(0.0);
            let spread = if iqr > 0.0 { sd.min(iqr / 1.34) } else { sd };
            let spread = if spread > 0.0 { spread } else { 1.0 };
            0.9 * spread * (n as f64).powf(-0.2)
        };
        Kde { samples, bandwidth }
    }

    /// Estimated density at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.samples.len() as f64);
        self.samples
            .iter()
            .map(|&s| (-0.5 * ((x - s) / h).powi(2)).exp())
            .sum::<f64>()
            * norm
    }

    /// Density on an evenly spaced grid padded by 3 bandwidths — the series
    /// behind Figure 5.
    pub fn grid(&self, steps: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || steps < 2 {
            return Vec::new();
        }
        let lo = self.samples[0] - 3.0 * self.bandwidth;
        let hi = self.samples[self.samples.len() - 1] + 3.0 * self.bandwidth;
        let span = hi - lo;
        (0..steps)
            .map(|i| {
                let x = lo + span * i as f64 / (steps - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// A fixed-width histogram over a closed range.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// `bins` equal-width bins over `[lo, hi]`; out-of-range values clamp to
    /// the edge bins.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(hi > lo, "histogram range must be non-empty");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins.max(1)],
            total: 0,
        }
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        let bins = self.counts.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let idx = ((t * bins as f64) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `(bin_center, fraction)` series.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f64;
        let denom = self.total.max(1) as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + width * (i as f64 + 0.5), c as f64 / denom))
            .collect()
    }
}

/// Five-number-plus summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n<2).
    pub sd: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Summarize a sample; `None` if no finite values remain.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let ecdf = Ecdf::new(values.to_vec());
        if ecdf.is_empty() {
            return None;
        }
        let n = ecdf.len();
        let mean = ecdf.sorted.iter().sum::<f64>() / n as f64;
        let sd = if n > 1 {
            (ecdf.sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        Some(Summary {
            n,
            mean,
            sd,
            min: ecdf.min()?,
            median: ecdf.median()?,
            max: ecdf.max()?,
        })
    }
}

/// Pearson correlation coefficient of two equal-length samples.
/// `None` if lengths differ, n < 2, or either sample is constant.
pub fn pearson(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx).powi(2);
        syy += (b - my).powi(2);
    }
    if sxx <= 0.0 || syy <= 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Average ranks (1-based, ties averaged) of a sample.
fn ranks(values: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let mut out = vec![0.0; values.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j < idx.len() && values[idx[j]] == values[idx[i]] {
            j += 1;
        }
        let avg = (i + j + 1) as f64 / 2.0;
        for &k in &idx[i..j] {
            out[k] = avg;
        }
        i = j;
    }
    out
}

/// Spearman rank correlation (Pearson over average ranks).
pub fn spearman(x: &[f64], y: &[f64]) -> Option<f64> {
    if x.len() != y.len() || x.len() < 2 {
        return None;
    }
    pearson(&ranks(x), &ranks(y))
}

/// Two-sided permutation p-value for a Pearson correlation: shuffle `y`
/// `permutations` times (deterministic splitmix shuffles keyed by `seed`)
/// and count how often |r_perm| ≥ |r_observed|. Add-one smoothing keeps the
/// estimate conservative and never exactly zero.
pub fn permutation_p_value(x: &[f64], y: &[f64], permutations: usize, seed: u64) -> Option<f64> {
    let observed = pearson(x, y)?.abs();
    let mut shuffled: Vec<f64> = y.to_vec();
    let mut hits = 0usize;
    let mut state = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..permutations.max(1) {
        // Fisher–Yates with the local generator.
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        if let Some(r) = pearson(x, &shuffled) {
            if r.abs() >= observed {
                hits += 1;
            }
        }
    }
    Some((hits + 1) as f64 / (permutations.max(1) + 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basic_evaluation() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 3.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(2.5), 0.75);
        assert_eq!(e.eval(10.0), 1.0);
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn ecdf_quantiles() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.median(), Some(50.0));
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.quantile(1.0), Some(100.0));
        assert_eq!(e.quantile(0.25), Some(25.0));
        assert_eq!(e.min(), Some(1.0));
        assert_eq!(e.max(), Some(100.0));
    }

    #[test]
    fn ecdf_empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert_eq!(e.median(), None);
        assert!(e.points().is_empty());
    }

    #[test]
    fn ecdf_points_are_a_step_function() {
        let e = Ecdf::new(vec![1.0, 1.0, 2.0, 5.0]);
        assert_eq!(e.points(), vec![(1.0, 0.5), (2.0, 0.75), (5.0, 1.0)]);
    }

    #[test]
    fn ecdf_grid_is_monotone() {
        let e = Ecdf::new((0..500).map(|i| (i as f64).sqrt()).collect());
        let grid = e.grid(64);
        assert_eq!(grid.len(), 64);
        for w in grid.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(grid.last().unwrap().1, 1.0);
    }

    #[test]
    fn dkw_matches_closed_form() {
        // n = 800_000, alpha = 0.01 (the paper's Glivenko–Cantelli setting).
        let eps = dkw_epsilon(800_000, 0.01);
        assert!((eps - 0.001820).abs() < 1e-5, "eps = {eps}");
        // Paper's quoted 0.0196 is a (loose) upper bound of the true band.
        assert!(eps < 0.0196);
        // Shrinks with n.
        assert!(dkw_epsilon(100, 0.01) > dkw_epsilon(10_000, 0.01));
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn dkw_rejects_zero_samples() {
        dkw_epsilon(0, 0.05);
    }

    #[test]
    fn kde_integrates_to_one() {
        let kde = Kde::new(vec![0.0, 1.0, 2.0, 2.5, 3.0, 10.0]);
        let grid = kde.grid(2000);
        let dx = grid[1].0 - grid[0].0;
        let integral: f64 = grid.iter().map(|(_, y)| y * dx).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral = {integral}");
    }

    #[test]
    fn kde_peaks_near_data_mass() {
        let kde = Kde::new(vec![5.0; 50].into_iter().chain(vec![20.0; 5]).collect());
        assert!(kde.eval(5.0) > kde.eval(20.0));
        assert!(kde.eval(5.0) > kde.eval(12.0));
    }

    #[test]
    fn kde_degenerate_inputs() {
        assert_eq!(Kde::new(vec![]).eval(0.0), 0.0);
        let single = Kde::new(vec![3.0]);
        assert!(single.eval(3.0) > 0.0);
        // Constant sample: the spread falls back to 1.0 rather than 0, so
        // the density stays finite instead of dividing by a zero bandwidth.
        let constant = Kde::new(vec![2.0; 10]);
        assert!(constant.eval(2.0).is_finite());
        assert!(constant.eval(2.0) > constant.eval(5.0));
    }

    #[test]
    fn histogram_bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 2.6, 9.9, -5.0, 15.0, f64::NAN] {
            h.add(x);
        }
        assert_eq!(h.total(), 7); // NaN dropped
        // Bin width 2: {0.5, 1.5, clamped -5.0} → bin 0, {2.5, 2.6} → bin 1,
        // {9.9, clamped 15.0} → bin 4.
        assert_eq!(h.counts(), &[3, 2, 0, 0, 2]);
    }

    #[test]
    fn histogram_normalized_sums_to_one() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.add(i as f64 / 1000.0);
        }
        let total: f64 = h.normalized().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_matches_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.0);
        assert!((s.sd - 2.138).abs() < 0.01);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn pearson_known_values() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0, 8.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[8.0, 6.0, 4.0, 2.0]).unwrap() + 1.0).abs() < 1e-12);
        // Orthogonal-ish pattern.
        let r = pearson(&x, &[1.0, -1.0, 1.0, -1.0]).unwrap();
        assert!(r.abs() < 0.5);
    }

    #[test]
    fn pearson_degenerate_inputs() {
        assert!(pearson(&[1.0], &[2.0]).is_none());
        assert!(pearson(&[1.0, 2.0], &[3.0]).is_none());
        assert!(pearson(&[1.0, 1.0], &[1.0, 2.0]).is_none()); // constant x
    }

    #[test]
    fn spearman_is_rank_based() {
        // Monotone but nonlinear: Spearman 1, Pearson < 1.
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!(pearson(&x, &y).unwrap() < 1.0);
        // Ties get averaged ranks without panicking.
        let t = spearman(&[1.0, 1.0, 2.0], &[3.0, 3.0, 5.0]).unwrap();
        assert!(t > 0.9);
    }

    #[test]
    fn permutation_p_value_separates_signal_from_noise() {
        let n = 60;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let strong: Vec<f64> = x.iter().map(|v| v * 2.0 + 1.0).collect();
        let p_strong = permutation_p_value(&x, &strong, 500, 1).unwrap();
        assert!(p_strong < 0.01, "p = {p_strong}");
        // Deterministically scrambled y: no relationship.
        let noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 101) as f64).collect();
        let p_noise = permutation_p_value(&x, &noise, 500, 1).unwrap();
        assert!(p_noise > 0.05, "p = {p_noise}");
    }
}
