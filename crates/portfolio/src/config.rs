//! Portfolio configuration.

use crate::engines::Engine;
use std::time::Duration;
use wlac_atpg::CheckerOptions;

/// Seed of the random-simulation engine, so its reports are reproducible.
pub const RANDOM_SEED: u64 = 0xDAC2000;

/// Configuration of a [`crate::Portfolio`].
#[derive(Debug, Clone)]
pub struct PortfolioConfig {
    /// The strategies to run, in the order they take their turns; the first
    /// is the race's lead. Defaults to all three.
    pub engines: Vec<Engine>,
    /// ATPG checker options; `max_frames` also bounds the BMC unrolling so
    /// bounded verdicts from both engines talk about the same depth.
    pub checker: CheckerOptions,
    /// SAT decision budget per BMC query (each bound and the induction step).
    pub bmc_decision_budget: u64,
    /// Random-simulation runs per property.
    pub random_runs: usize,
    /// Cycles per random-simulation run.
    pub random_cycles: usize,
    /// Hard wall-clock budget per job. When set, the race token carries a
    /// deadline: every engine reads as cancelled once it passes, and a race
    /// no engine decided in time reports [`crate::Verdict::Timeout`] instead
    /// of occupying its worker indefinitely. `None` (the default) preserves
    /// the unbounded behaviour.
    pub job_budget: Option<Duration>,
}

impl PortfolioConfig {
    /// Defaults: all three engines, 8 frames and 30 s per property per
    /// engine.
    pub fn new() -> Self {
        let checker = CheckerOptions {
            max_frames: 8,
            time_limit: Duration::from_secs(30),
            ..CheckerOptions::default()
        };
        PortfolioConfig {
            engines: vec![Engine::Atpg, Engine::SatBmc, Engine::RandomSim],
            checker,
            bmc_decision_budget: 500_000,
            random_runs: 16,
            random_cycles: 64,
            job_budget: None,
        }
    }

    /// Replaces the engine list.
    pub fn with_engines(mut self, engines: Vec<Engine>) -> Self {
        self.engines = engines;
        self
    }

    /// Sets the hard per-job wall-clock budget.
    pub fn with_job_budget(mut self, budget: Duration) -> Self {
        self.job_budget = Some(budget);
        self
    }
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_run_all_engines() {
        let config = PortfolioConfig::default();
        assert_eq!(config.engines.len(), 3);
        assert_eq!(config.job_budget, None);
    }
}
