//! Figure 3: CDF of the number of investments made by each investor.
//!
//! "The CDF clearly shows the presence of a long-tailed distribution, where
//! a small number of investors make a large number of investments."

use crate::error::CoreError;
use crate::features::investors_and_roles;
use crate::pipeline::PipelineOutcome;
use crowdnet_dataflow::stats::Ecdf;

/// The Figure 3 series plus its summary landmarks.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// `(investments, F(investments))` step points — the plotted curve.
    pub cdf_points: Vec<(f64, f64)>,
    /// Number of investing investors in the sample.
    pub investors: usize,
    /// Mean investments (paper: 3.3).
    pub mean: f64,
    /// Median (paper: 1).
    pub median: f64,
    /// Maximum (paper: ~1000).
    pub max: f64,
    /// Fraction of investors with exactly one investment.
    pub single_investment_share: f64,
}

/// Compute the Figure 3 CDF from the investor half of the suite's one
/// pass over the user documents.
pub fn run(outcome: &PipelineOutcome) -> Result<Fig3Result, CoreError> {
    let counts: Vec<f64> = investors_and_roles(outcome)?
        .investors
        .iter()
        .filter(|i| !i.investments.is_empty())
        .map(|i| i.investments.len() as f64)
        .collect();
    if counts.is_empty() {
        return Err(CoreError::EmptyInput("investing investors".into()));
    }
    let ecdf = Ecdf::new(counts.clone());
    Ok(Fig3Result {
        investors: ecdf.len(),
        mean: counts.iter().sum::<f64>() / counts.len() as f64,
        median: ecdf.median().expect("non-empty"),
        max: ecdf.max().expect("non-empty"),
        single_investment_share: ecdf.eval(1.0),
        cdf_points: ecdf.points(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn cdf_is_long_tailed_like_the_paper() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let r = run(&outcome).unwrap();
        assert_eq!(r.median, 1.0);
        // Most investors make a single investment…
        assert!(r.single_investment_share > 0.4, "{}", r.single_investment_share);
        // …while the tail stretches far beyond the mean.
        assert!(r.max > 5.0 * r.mean);
        // The CDF is a valid monotone step function ending at 1.
        for w in r.cdf_points.windows(2) {
            assert!(w[1].0 > w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(r.cdf_points.last().unwrap().1, 1.0);
    }
}
