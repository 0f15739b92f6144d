//! §3 dataset statistics.
//!
//! Paper (at full scale): 744,036 AngelList companies; 10,156 CrunchBase
//! profiles; 37,761 Facebook and 70,563 Twitter company profiles; 1,109,441
//! users of which 4.3 % investors, 18.3 % founders, 44.2 % employees; each
//! investor follows 247 companies on average but invests in only 3.3 with a
//! median of 1.

use crate::error::CoreError;
use crate::features::investors_and_roles;
use crate::pipeline::PipelineOutcome;
use crate::report::TextTable;
use crowdnet_dataflow::stats::Summary;
use std::fmt;

/// Measured §3 statistics.
#[derive(Debug, Clone)]
pub struct DatasetStatsResult {
    /// Companies crawled from AngelList.
    pub companies: usize,
    /// CrunchBase profiles resolved.
    pub crunchbase: usize,
    /// Facebook pages fetched.
    pub facebook: usize,
    /// Twitter profiles fetched.
    pub twitter: usize,
    /// AngelList users crawled.
    pub users: usize,
    /// (role, count) pairs.
    pub roles: Vec<(String, usize)>,
    /// Mean follows per investor (paper: 247).
    pub mean_investor_follows: f64,
    /// Mean investments per *investing* investor (paper: 3.3).
    pub mean_investments: f64,
    /// Median investments (paper: 1).
    pub median_investments: f64,
    /// Max investments by one investor (paper: ~1000).
    pub max_investments: f64,
}

/// Run the §3 measurement over the crawled store: one pass over the user
/// documents yields both the investor records and the role counts.
pub fn run(outcome: &PipelineOutcome) -> Result<DatasetStatsResult, CoreError> {
    let users = investors_and_roles(outcome)?;
    let investors = &users.investors;
    let follows: Vec<f64> = investors.iter().map(|i| i.follow_count as f64).collect();
    let follow_summary =
        Summary::of(&follows).ok_or_else(|| CoreError::EmptyInput("investors".into()))?;
    let counts: Vec<f64> = investors
        .iter()
        .filter(|i| !i.investments.is_empty())
        .map(|i| i.investments.len() as f64)
        .collect();
    let inv_summary =
        Summary::of(&counts).ok_or_else(|| CoreError::EmptyInput("investments".into()))?;

    Ok(DatasetStatsResult {
        companies: outcome.dataset.companies,
        crunchbase: outcome.dataset.crunchbase,
        facebook: outcome.dataset.facebook,
        twitter: outcome.dataset.twitter,
        users: outcome.dataset.users,
        roles: users.roles.clone(),
        mean_investor_follows: follow_summary.mean,
        mean_investments: inv_summary.mean,
        median_investments: inv_summary.median,
        max_investments: inv_summary.max,
    })
}

impl fmt::Display for DatasetStatsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(&["metric", "measured", "paper (full scale)"]);
        let rows: Vec<(&str, String, &str)> = vec![
            ("AngelList companies", self.companies.to_string(), "744,036"),
            ("CrunchBase profiles", self.crunchbase.to_string(), "10,156"),
            ("Facebook profiles", self.facebook.to_string(), "37,761"),
            ("Twitter profiles", self.twitter.to_string(), "70,563"),
            ("AngelList users", self.users.to_string(), "1,109,441"),
            (
                "mean follows/investor",
                format!("{:.1}", self.mean_investor_follows),
                "247",
            ),
            (
                "mean investments/investor",
                format!("{:.2}", self.mean_investments),
                "3.3",
            ),
            (
                "median investments",
                format!("{:.0}", self.median_investments),
                "1",
            ),
            (
                "max investments",
                format!("{:.0}", self.max_investments),
                "~1000",
            ),
        ];
        for (m, v, p) in rows {
            t.row(&[m.to_string(), v, p.to_string()]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "\nroles:")?;
        let total: usize = self.roles.iter().map(|(_, n)| n).sum();
        for (role, n) in &self.roles {
            writeln!(
                f,
                "  {role:<10} {n:>8}  ({:.1}%)",
                *n as f64 / total.max(1) as f64 * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};

    #[test]
    fn shapes_match_the_paper() {
        let outcome = Pipeline::new(PipelineConfig::tiny(42)).run().unwrap();
        let r = run(&outcome).unwrap();
        // Long tail: median 1, mean around 3.3 (tiny worlds are noisy).
        assert_eq!(r.median_investments, 1.0);
        assert!(r.mean_investments > 1.5 && r.mean_investments < 6.0);
        assert!(r.max_investments >= 10.0);
        // Investors follow far more than they invest.
        assert!(r.mean_investor_follows > 5.0 * r.mean_investments);
        // Source proportions: TW > FB, both ≪ companies.
        assert!(r.twitter > r.facebook);
        assert!(r.facebook < r.companies / 10);
        let display = r.to_string();
        assert!(display.contains("744,036"));
        assert!(display.contains("roles:"));
    }

    #[test]
    fn one_users_pass_equals_the_two_pass_oracle() {
        use crate::features::{investor_records, role_counts};
        for seed in [7, 42] {
            let outcome = Pipeline::new(PipelineConfig::tiny(seed)).run().unwrap();
            let calls = outcome.telemetry.counter("store.scan.calls");
            let before = calls.value();
            let r = run(&outcome).unwrap();
            assert_eq!(calls.value() - before, 1, "seed {seed}: one scan per run");

            let investors = investor_records(&outcome).unwrap();
            let follows: Vec<f64> = investors.iter().map(|i| i.follow_count as f64).collect();
            let counts: Vec<f64> = investors
                .iter()
                .filter(|i| !i.investments.is_empty())
                .map(|i| i.investments.len() as f64)
                .collect();
            let invested = Summary::of(&counts).unwrap();
            assert_eq!(r.roles, role_counts(&outcome).unwrap(), "seed {seed}");
            assert_eq!(r.mean_investor_follows, Summary::of(&follows).unwrap().mean);
            assert_eq!(
                (r.mean_investments, r.median_investments, r.max_investments),
                (invested.mean, invested.median, invested.max),
                "seed {seed}"
            );
        }
    }
}
