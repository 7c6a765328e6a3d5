//! Experiment configuration.

use crate::api::{SourceSpec, StreamingSink};
use windjoin_core::{ConfigError, Params, Residual};
use windjoin_gen::{KeyDist, RateSchedule};
use windjoin_sim::{CostModel, LinkSpec};

/// A full experiment description. `RunConfig::paper_default(n)`
/// reproduces the paper's §VI-A methodology: Table I parameters,
/// Poisson arrivals, b-model keys, 20-minute runs with a 10-minute
/// warm-up, over `n` slaves.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Protocol parameters (Table I defaults).
    pub params: Params,
    /// Provisioned slaves (upper bound for adaptive growth).
    pub total_slaves: usize,
    /// Initially active slaves (the paper's fixed "slave population"
    /// when `adaptive_dod` is off).
    pub initial_slaves: usize,
    /// Per-stream arrival rate schedule (λ, tuples/s).
    pub rate: RateSchedule,
    /// Join-attribute distribution.
    pub keys: KeyDist,
    /// Run length in simulated microseconds (paper: 20 min).
    pub run_us: u64,
    /// Warm-up; statistics before this are discarded (paper: 10 min).
    pub warmup_us: u64,
    /// Enable §V-A adaptive degree of declustering.
    pub adaptive_dod: bool,
    /// Enable dynamic distribution-epoch tuning (the paper's §VIII
    /// future work; see `windjoin_core::tune_epoch`). `None` keeps the
    /// fixed Table I epoch.
    pub adaptive_epoch: Option<windjoin_core::EpochTuning>,
    /// Master seed; everything derives deterministically from it.
    pub seed: u64,
    /// CPU cost model (calibrated to the paper's testbed class).
    pub cost: CostModel,
    /// Master → slave distribution path link model.
    pub dist_link: LinkSpec,
    /// Slave → collector result path link model.
    pub collector_link: LinkSpec,
    /// Collect full output pairs (small runs / tests only).
    pub capture_outputs: bool,
    /// Residual predicate composed with the equi-join
    /// ([`Residual::ALWAYS`] reproduces the paper's plain equi-join
    /// bit-identically). The simulator carries no payload bytes, so
    /// payload-inspecting predicates see empty payloads here — use the
    /// threaded or TCP runtime for those.
    pub residual: Residual,
    /// Arrival source override; `None` keeps the classic synthetic
    /// generator pair derived from `rate`/`keys`/`seed`.
    pub source: Option<SourceSpec>,
    /// Streaming sink invoked with each emitted output batch, in
    /// virtual-time order. `None` keeps report-only delivery.
    pub sink: Option<StreamingSink>,
}

impl RunConfig {
    /// The paper's methodology with `slaves` active slave nodes.
    pub fn paper_default(slaves: usize) -> Self {
        RunConfig {
            params: Params::default_paper(),
            total_slaves: slaves,
            initial_slaves: slaves,
            rate: RateSchedule::constant(1500.0),
            keys: KeyDist::paper_default(),
            run_us: 20 * 60 * 1_000_000,
            warmup_us: 10 * 60 * 1_000_000,
            adaptive_dod: false,
            adaptive_epoch: None,
            seed: 0xC1_05_7E_12,
            cost: CostModel::paper_calibrated(),
            dist_link: LinkSpec::distribution_default(),
            collector_link: LinkSpec::collector_default(),
            capture_outputs: false,
            residual: Residual::ALWAYS,
            source: None,
            sink: None,
        }
    }

    /// Sets the per-stream rate (tuples/s), keeping everything else.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = RateSchedule::constant(rate);
        self
    }

    /// Scales the run for quick tests/benches: `secs` of simulated time
    /// with `warmup_secs` warm-up and windows shortened to `window_secs`.
    pub fn scaled_down(mut self, secs: u64, warmup_secs: u64, window_secs: u64) -> Self {
        self.run_us = secs * 1_000_000;
        self.warmup_us = warmup_secs * 1_000_000;
        self.params = self.params.with_window_secs(window_secs);
        self
    }

    /// Basic consistency checks.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.params.validate()?;
        if self.initial_slaves == 0 || self.initial_slaves > self.total_slaves {
            return Err(ConfigError::OutOfRange {
                field: "initial_slaves",
                constraint: "1 <= initial_slaves <= total_slaves",
            });
        }
        if self.warmup_us >= self.run_us {
            return Err(ConfigError::Inconsistent {
                why: format!(
                    "warm-up ({} us) must end before the run does ({} us)",
                    self.warmup_us, self.run_us
                ),
            });
        }
        if let Some(t) = &self.adaptive_epoch {
            t.validate()?;
            if self.params.ng != 1 {
                return Err(ConfigError::Inconsistent {
                    why: "adaptive epoch currently requires ng = 1".into(),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_matches_methodology() {
        let c = RunConfig::paper_default(4);
        c.validate().unwrap();
        assert_eq!(c.run_us, 1_200_000_000);
        assert_eq!(c.warmup_us, 600_000_000);
        assert_eq!(c.initial_slaves, 4);
    }

    #[test]
    fn validation_catches_bad_slave_counts() {
        let mut c = RunConfig::paper_default(2);
        c.initial_slaves = 3;
        assert!(c.validate().is_err());
        let mut c = RunConfig::paper_default(2);
        c.warmup_us = c.run_us;
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaled_down_adjusts_window_and_horizon() {
        let c = RunConfig::paper_default(2).scaled_down(60, 20, 30).with_rate(800.0);
        assert_eq!(c.run_us, 60_000_000);
        assert_eq!(c.warmup_us, 20_000_000);
        assert_eq!(c.params.sem.w_left_us, 30_000_000);
        assert_eq!(c.rate.rate_at(0), 800.0);
        c.validate().unwrap();
    }
}
