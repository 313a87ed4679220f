//! Engine adapters: run one strategy on one property. Each engine reports
//! in the shared [`Verdict`] vocabulary itself; an adapter wires in the
//! race's cancellation and observers. Every engine runs cold.
//!
//! Every engine's trace has been re-simulated once, by
//! [`wlac_atpg::validated_verdict`], before the engine returns it: ATPG and
//! SAT BMC run it at the end of the shared bound loop
//! ([`wlac_atpg::check_bounds`]) and random simulation on its hit. An engine
//! bug can at worst demote a result to `Unknown`, never smuggle in a bogus
//! counter-example.

use crate::config::{PortfolioConfig, RANDOM_SEED};
use std::fmt;
use std::time::{Duration, Instant};
use wlac_atpg::{AssertionChecker, CancelToken, CheckStats, Verdict, Verification};
use wlac_baselines::{bounded_model_check, random_simulation_cancellable};
use wlac_telemetry::{ProgressHandle, RecorderHandle};

/// One verification strategy of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Engine {
    /// Word-level ATPG + modular arithmetic (the paper's engine).
    Atpg,
    /// Bit-level SAT bounded model checking (Tseitin + CDCL) with the
    /// induction step ATPG closes.
    SatBmc,
    /// Random-input simulation (only ever finds traces, never proves).
    RandomSim,
}

impl Engine {
    /// Every engine, in the canonical order: the order in which the default
    /// configuration's race gives them their turns, and the order of
    /// [`Engine::code`].
    pub const ALL: [Engine; 3] = [Engine::Atpg, Engine::SatBmc, Engine::RandomSim];

    /// Stable wire/disk code of this engine (the index in [`Engine::ALL`]).
    pub fn code(self) -> u8 {
        match self {
            Engine::Atpg => 0,
            Engine::SatBmc => 1,
            Engine::RandomSim => 2,
        }
    }

    /// Inverse of [`Engine::code`]; `None` for a code no engine owns (a
    /// corrupt or future snapshot).
    pub fn from_code(code: u8) -> Option<Engine> {
        Engine::ALL.get(code as usize).copied()
    }

    /// The engine's name, as it displays and travels on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Engine::Atpg => "atpg",
            Engine::SatBmc => "sat-bmc",
            Engine::RandomSim => "random-sim",
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Engine-specific effort statistics, for attribution in reports.
#[derive(Debug, Clone)]
pub enum EngineStats {
    /// ATPG search counters.
    Atpg(CheckStats),
    /// CNF size, memory and CDCL effort of the BMC run.
    Bmc {
        /// Total CNF variables across all bounds.
        variables: usize,
        /// Total CNF clauses across all bounds.
        clauses: usize,
        /// Peak CNF memory in bytes.
        peak_memory_bytes: usize,
        /// CDCL solver counters (propagations, conflicts, restarts, learned
        /// and deleted clauses) accumulated across all unrolling depths.
        sat: wlac_baselines::SatStats,
    },
    /// Random simulation effort.
    RandomSim {
        /// Runs simulated.
        runs: usize,
        /// Cycles per run.
        cycles_per_run: usize,
    },
}

/// The outcome of one engine on one property.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Which strategy ran.
    pub engine: Engine,
    /// Its re-simulation-validated conclusion.
    pub verdict: Verdict,
    /// Wall-clock time the engine spent.
    pub elapsed: Duration,
    /// `true` when the run was stopped before it reached a definitive
    /// verdict: by the lead's head start, or by the job budget.
    pub cancelled: bool,
    /// Effort statistics for attribution.
    pub stats: EngineStats,
}

/// Runs `engine` on `verification`, observed, polling `cancel`
/// cooperatively. The ATPG engine is [`AssertionChecker::check`], the check
/// Table 2 runs, and SAT BMC is [`bounded_model_check`]: each run starts
/// from nothing and keeps nothing. `recorder` and `progress` are threaded
/// into the ATPG engine's checker options, so core search events carry the
/// owning job's id and the search publishes bound advances and effort
/// counters into the race's progress cell while still running. The SAT and
/// simulation engines run no core
/// search; their lifecycle is visible through the race-level events the
/// portfolio emits, and their final statistics reach the progress surface
/// through it too (see `RaceProgress::record_final`).
pub(crate) fn run_engine(
    engine: Engine,
    verification: &Verification,
    config: &PortfolioConfig,
    cancel: &CancelToken,
    recorder: &RecorderHandle,
    progress: &ProgressHandle,
) -> EngineRun {
    let start = Instant::now();
    let (verdict, stats) = match engine {
        Engine::Atpg => run_atpg(verification, config, cancel, recorder, progress),
        Engine::SatBmc => run_bmc(verification, config, cancel),
        Engine::RandomSim => run_random(verification, config, cancel),
    };
    EngineRun {
        engine,
        cancelled: cancel.is_cancelled() && !verdict.is_definitive(),
        verdict,
        elapsed: start.elapsed(),
        stats,
    }
}

fn run_atpg(
    verification: &Verification,
    config: &PortfolioConfig,
    cancel: &CancelToken,
    recorder: &RecorderHandle,
    progress: &ProgressHandle,
) -> (Verdict, EngineStats) {
    let options = config
        .checker
        .clone()
        .with_cancel(cancel.clone())
        .with_recorder(recorder.clone())
        .with_progress(progress.clone());
    let report = AssertionChecker::new(options).check(verification);
    (report.result, EngineStats::Atpg(report.stats))
}

fn run_bmc(
    verification: &Verification,
    config: &PortfolioConfig,
    cancel: &CancelToken,
) -> (Verdict, EngineStats) {
    let report = bounded_model_check(
        verification,
        config.checker.max_frames,
        config.bmc_decision_budget,
        cancel,
    );
    (
        report.verdict,
        EngineStats::Bmc {
            variables: report.variables,
            clauses: report.clauses,
            peak_memory_bytes: report.peak_memory_bytes,
            sat: report.sat,
        },
    )
}

fn run_random(
    verification: &Verification,
    config: &PortfolioConfig,
    cancel: &CancelToken,
) -> (Verdict, EngineStats) {
    let report = random_simulation_cancellable(
        verification,
        config.random_runs,
        config.random_cycles,
        RANDOM_SEED,
        cancel,
    );
    (
        report.verdict,
        EngineStats::RandomSim {
            runs: report.runs,
            cycles_per_run: report.cycles_per_run,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PortfolioConfig;
    use wlac_atpg::Property;
    use wlac_bv::Bv;
    use wlac_netlist::Netlist;

    /// One engine run, unobserved.
    fn cold(
        engine: Engine,
        verification: &Verification,
        config: &PortfolioConfig,
        cancel: &CancelToken,
    ) -> EngineRun {
        let (recorder, progress) = (RecorderHandle::disabled(), ProgressHandle::disabled());
        run_engine(engine, verification, config, cancel, &recorder, &progress)
    }

    /// A counter wrapping at `wrap`, asserted to stay below `limit`.
    fn counter(limit: u64, wrap: u64) -> Verification {
        let mut nl = Netlist::new("counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let wrap_net = nl.constant(&Bv::from_u64(4, wrap));
        let at_wrap = nl.eq(q, wrap_net);
        let zero = nl.constant(&Bv::zero(4));
        let next = nl.mux(at_wrap, zero, plus);
        nl.connect_dff_data(ff, next);
        let limit_net = nl.constant(&Bv::from_u64(4, limit));
        let ok = nl.lt(q, limit_net);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, format!("below_{limit}"), ok);
        Verification::new(nl, property)
    }

    #[test]
    fn all_three_engines_find_the_same_violation() {
        let verification = counter(5, 12);
        let config = PortfolioConfig::default();
        let cancel = CancelToken::new();
        for engine in [Engine::Atpg, Engine::SatBmc] {
            let run = cold(engine, &verification, &config, &cancel);
            match &run.verdict {
                Verdict::Violated { trace } => {
                    assert!(trace.len() >= 5, "{engine}: needs 5 cycles to reach 5");
                }
                other => panic!("{engine}: expected violation, got {other:?}"),
            }
            assert!(!run.cancelled);
        }
    }

    #[test]
    fn engines_agree_on_a_passing_property() {
        let verification = counter(12, 5);
        let config = PortfolioConfig::default();
        let cancel = CancelToken::new();
        let atpg = cold(Engine::Atpg, &verification, &config, &cancel);
        let bmc = cold(Engine::SatBmc, &verification, &config, &cancel);
        assert!(atpg.verdict.is_pass(), "{:?}", atpg.verdict);
        assert!(bmc.verdict.is_pass(), "{:?}", bmc.verdict);
        assert!(!atpg.verdict.conflicts_with(&bmc.verdict));
        // Attribution carries engine-specific stats.
        assert!(matches!(atpg.stats, EngineStats::Atpg(_)));
        assert!(matches!(bmc.stats, EngineStats::Bmc { clauses, .. } if clauses > 0));
    }

    #[test]
    fn cancelled_engine_reports_unknown() {
        let verification = counter(5, 12);
        let config = PortfolioConfig::default();
        let cancel = CancelToken::new();
        cancel.cancel();
        for engine in [Engine::Atpg, Engine::SatBmc, Engine::RandomSim] {
            let run = cold(engine, &verification, &config, &cancel);
            assert!(!run.verdict.is_definitive(), "{engine}: {:?}", run.verdict);
            assert!(run.cancelled, "{engine} should report cancellation");
        }
    }

    #[test]
    fn env_violating_random_hits_are_rejected() {
        // q' = i with env constraint i == 0: the assertion q == 0 holds under
        // the environment. Unconstrained random inputs drive i = 1 (breaking
        // the env), pollute q, and would "observe" a violation one cycle
        // later — that pseudo-hit must not survive as a Violated verdict.
        let mut nl = Netlist::new("env");
        let i = nl.input("i", 1);
        let (q, ff) = nl.dff_deferred(1, Some(Bv::zero(1)));
        nl.connect_dff_data(ff, i);
        let zero = nl.constant(&Bv::zero(1));
        let ok = nl.eq(q, zero);
        let env = nl.eq(i, zero);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, "q_zero", ok);
        let verification = Verification::new(nl, property).with_environment(env);

        let config = PortfolioConfig::default();
        let cancel = CancelToken::new();
        let random = cold(Engine::RandomSim, &verification, &config, &cancel);
        assert!(
            !matches!(random.verdict, Verdict::Violated { .. }),
            "env-violating trace must not count: {:?}",
            random.verdict
        );
        // The deterministic engines agree the assertion holds under the env.
        let atpg = cold(Engine::Atpg, &verification, &config, &cancel);
        assert!(atpg.verdict.is_pass(), "{:?}", atpg.verdict);
        assert!(!atpg.verdict.conflicts_with(&random.verdict));
    }

    #[test]
    fn bmc_trace_survives_validation() {
        // The BMC counter-example is decoded from a SAT model and must replay
        // to a real monitor violation — `run_engine` would demote it
        // otherwise.
        let verification = counter(3, 12);
        let run = cold(
            Engine::SatBmc,
            &verification,
            &PortfolioConfig::default(),
            &CancelToken::new(),
        );
        let Verdict::Violated { trace } = &run.verdict else {
            panic!("expected violation, got {:?}", run.verdict);
        };
        let replay = trace
            .replay_monitor(&verification.netlist, verification.property.monitor)
            .expect("replay");
        assert_eq!(replay.last(), Some(&false));
    }
}
