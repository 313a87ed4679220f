//! # wlac-portfolio — multi-strategy verification
//!
//! The paper's core observation is that word-level ATPG + modular arithmetic
//! and bit-blasted SAT shine on *different* workload shapes. This crate turns
//! that observation into an engine: a [`Portfolio`] races the ATPG checker
//! ([`wlac_atpg::AssertionChecker`]), SAT bounded model checking
//! ([`wlac_baselines::bounded_model_check`]) and random simulation on each
//! property and takes the first definitive answer. The race runs on the
//! calling thread, one engine at a time. It is hedged: the lead engine gets a
//! 5 ms head start, and the others take their turns only if it has not
//! decided by then (see [`Portfolio::race`]).
//!
//! Every engine runs cold: ATPG runs [`wlac_atpg::AssertionChecker::check`]
//! with its own ESTG, the same check Table 2 runs, and SAT BMC solves every
//! query from scratch. Nothing a race learns outlives it, so a verdict does
//! not depend on what was raced before.
//!
//! The race is the crate's one mode, and it checks one property on the
//! calling thread. A suite of properties runs through `wlac-service`'s
//! `VerificationService`, whose worker pool races each job; comparing the
//! engines property by property is the `compare` harness's proof audit
//! (`crates/bench`). Every trace-backed verdict has been re-simulated
//! against the design by [`wlac_atpg::validated_verdict`] before an engine
//! reports it.
//!
//! Every engine reports a [`Verdict`], the vocabulary `wlac-atpg` defines and
//! this crate re-exports.
//!
//! # Examples
//!
//! ```
//! use wlac_portfolio::{Portfolio, Verdict};
//! use wlac_atpg::{Property, Verification};
//! use wlac_bv::Bv;
//! use wlac_netlist::Netlist;
//!
//! // An 8-bit register that saturates at 10 must stay below 11.
//! let mut nl = Netlist::new("sat_counter");
//! let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
//! let one = nl.constant(&Bv::from_u64(8, 1));
//! let plus = nl.add(q, one);
//! let ten = nl.constant(&Bv::from_u64(8, 10));
//! let at_ten = nl.eq(q, ten);
//! let next = nl.mux(at_ten, ten, plus);
//! nl.connect_dff_data(ff, next);
//! let eleven = nl.constant(&Bv::from_u64(8, 11));
//! let ok = nl.lt(q, eleven);
//!
//! let property = Property::always(&nl, "below_11", ok);
//! let report = Portfolio::with_defaults().race(&Verification::new(nl, property));
//! assert!(report.verdict.is_pass());
//! assert!(report.winner.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engines;
mod progress;
mod warm;

pub use config::{PortfolioConfig, RANDOM_SEED};
pub use engines::{Engine, EngineRun, EngineStats};
pub use progress::RaceProgress;
pub use warm::{Harvest, WarmStart};
pub use wlac_atpg::Verdict;

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, Verification};
use wlac_telemetry::{MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer};

/// How long a race's lead engine runs before the other engines get a turn.
///
/// The lead (the first configured engine, ATPG by default) decides most
/// small designs in well under a millisecond, and on a machine with few
/// cores two more engines started at once took the CPU it needs: in a
/// design stream the first answer came three times later than ATPG alone
/// takes, and most engine time was thrown away. A sweep of 1–10 ms on such
/// a stream gave a flat throughput optimum from 3 to 10 ms; 5 ms sits in its
/// middle. That sweep ran the other engines side by side; since they take
/// turns on the calling thread the value is kept, not re-tuned.
/// The cost is bounded: a race the other engines would have won ends
/// at most this much later, and SAT-BMC's fastest paper-suite win takes
/// about 60 ms.
/// A lead still searching at its end runs again after the others, only if
/// none of them decided, so a race repeats at most this much lead work.
/// One value serves every caller, so it is a constant and not a knob.
pub(crate) const HEAD_START: Duration = Duration::from_millis(5);

/// What happened at one point of an engine race, for the
/// [`PortfolioReport::timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceEventKind {
    /// An engine started on the calling thread. A lead run again after its
    /// head start keeps the one `Spawned` of its first pass.
    Spawned,
    /// An engine's run was final: its verdict, or a lead pass the head start
    /// stopped that did not run again.
    Answered {
        /// `true` when the verdict was definitive (could decide the race).
        definitive: bool,
    },
    /// Never recorded: a decided race has no engine left running to
    /// cancel. Kept only because the benchmark package (`perfbench/`) still
    /// matches on it; it goes when ROADMAP item 3 un-pins that package.
    CancelIssued,
}

/// One entry of the race timeline: *when* (relative to dispatch) *which*
/// engine did *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// Offset from race dispatch.
    pub at: Duration,
    /// The engine concerned. Every recorded event names one; the `Option`
    /// stays because the benchmark package (`perfbench/`) still matches on
    /// it.
    pub engine: Option<Engine>,
    /// What happened.
    pub kind: RaceEventKind,
}

/// The result of checking one property with the portfolio.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Property name (e.g. `p7`).
    pub property: String,
    /// The winner's verdict. Without a winner: a structured timeout when
    /// the job budget ran out, else an `unknown` naming each engine's reason.
    pub verdict: Verdict,
    /// The engine that produced [`PortfolioReport::verdict`], when any
    /// engine was definitive.
    pub winner: Option<Engine>,
    /// Wall-clock time from dispatch to the last engine finishing.
    pub wall_clock: Duration,
    /// Every started engine's run, in the order each became final, with
    /// per-engine attribution. A race the lead decided alone has one.
    pub runs: Vec<EngineRun>,
    /// The race as it unfolded: engine starts and final answers, all
    /// timestamped relative to dispatch.
    pub timeline: Vec<RaceEvent>,
}

impl PortfolioReport {
    /// The run of a particular engine, if it participated.
    pub fn run_of(&self, engine: Engine) -> Option<&EngineRun> {
        self.runs.iter().find(|r| r.engine == engine)
    }
}

impl fmt::Display for PortfolioReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} in {:.3}s",
            self.property,
            self.verdict.label(),
            self.wall_clock.as_secs_f64()
        )?;
        if let Some(winner) = self.winner {
            write!(f, " (won by {winner})")?;
        }
        for run in &self.runs {
            write!(
                f,
                "\n    {:<11} {:<13} {:.3}s{}",
                run.engine.to_string(),
                run.verdict.label(),
                run.elapsed.as_secs_f64(),
                if run.cancelled { " [cancelled]" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// A multi-strategy verification engine.
///
/// See the crate-level docs for an example; [`Portfolio::race`] checks one
/// property with first-definitive-answer-wins semantics.
#[derive(Debug, Clone, Default)]
pub struct Portfolio {
    config: PortfolioConfig,
    metrics: Arc<MetricsRegistry>,
}

impl Portfolio {
    /// Creates a portfolio with the given configuration, recording its race
    /// telemetry into a private registry.
    pub fn new(config: PortfolioConfig) -> Self {
        Portfolio {
            config,
            metrics: Arc::default(),
        }
    }

    /// Publishes race telemetry (win counters, per-engine wall-clock
    /// histograms, cancelled runs) into `registry`. Purely
    /// observational: metrics never influence scheduling or verdicts, which
    /// is why the registry lives on the portfolio, not on
    /// [`PortfolioConfig`].
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// Creates a portfolio with the default configuration (all engines).
    pub fn with_defaults() -> Self {
        Portfolio::new(PortfolioConfig::default())
    }

    /// Races the configured engines on one property, one at a time on the
    /// calling thread; the first definitive verdict wins and no later
    /// engine starts.
    ///
    /// The race is hedged. The lead engine (the first of the list) runs
    /// first, for a 5 ms head start. A lead that decides in that time is the
    /// whole race: it reports a single run. Otherwise each other engine runs
    /// in its configured order, until one decides or the job budget ends. A
    /// lead the head start stopped runs again last, only if no engine
    /// decided; its one run covers both passes. When another engine decided,
    /// the stopped pass is the lead's cancelled run. A race uses no thread
    /// but the caller's, and the [`PortfolioReport::timeline`] shows when
    /// each engine started.
    pub fn race(&self, verification: &Verification) -> PortfolioReport {
        self.run_portfolio(verification, &RecorderHandle::disabled(), None)
    }

    /// [`Portfolio::race`], with the race's winner and engines copied into
    /// a [`Harvest`] whose clauses are empty; the [`WarmStart`] is ignored.
    /// Inert; kept only because the benchmark package (`perfbench/`) still
    /// calls it, and it goes when ROADMAP item 3 un-pins that package.
    pub fn race_warm(
        &self,
        verification: &Verification,
        _warm: &WarmStart,
    ) -> (PortfolioReport, Harvest) {
        let report = self.race(verification);
        let harvest = Harvest {
            clauses: Vec::new(),
            ran: report.runs.iter().map(|run| run.engine).collect(),
            winner: report.winner,
        };
        (report, harvest)
    }

    /// Like [`Portfolio::race`], but observed. Every flight-recorder
    /// event this race (and the core searches under it) emits is stamped
    /// through `recorder` — the per-job handle the verification service
    /// derives, so a remote `events` tail can be filtered down to one job.
    /// The race also publishes live progress into `progress`: the ATPG
    /// engine streams bound advances and effort counters from inside its
    /// search, and the race stores every engine's final statistics the
    /// moment its run is final. Observers on other threads snapshot
    /// `progress` while the race runs (the service's progress accessors feed
    /// the server's `progress`/`subscribe` ops from it); publication is
    /// lock-free, alloc-free and never influences scheduling or verdicts.
    pub fn race_probed(
        &self,
        verification: &Verification,
        recorder: &RecorderHandle,
        progress: &RaceProgress,
    ) -> PortfolioReport {
        self.run_portfolio(verification, recorder, Some(progress))
    }

    fn run_portfolio(
        &self,
        verification: &Verification,
        recorder: &RecorderHandle,
        progress: Option<&RaceProgress>,
    ) -> PortfolioReport {
        let start = Instant::now();
        // A job budget turns the race token into a deadline token: every
        // engine polls it cooperatively, so even one stuck in a pathological
        // search (or an injected hang) returns once the budget is gone, and
        // the race reports a structured timeout below.
        let token = match self.config.job_budget {
            Some(budget) => CancelToken::with_deadline(start + budget),
            None => CancelToken::new(),
        };
        let engines: &[Engine] = &self.config.engines;
        let mut runs: Vec<EngineRun> = Vec::with_capacity(engines.len());
        let mut winner: Option<usize> = None;
        let mut timeline: Vec<RaceEvent> = Vec::with_capacity(2 * engines.len());
        recorder.record(
            RecorderLayer::Portfolio,
            RecorderKind::Start,
            engines.len() as u64,
            self.config
                .job_budget
                .map(|b| b.as_millis() as u64)
                .unwrap_or(0),
        );
        let run = |engine: Engine, token: &CancelToken| {
            let progress_handle = progress
                .map(|p| p.handle(engine))
                .unwrap_or_else(wlac_telemetry::ProgressHandle::disabled);
            engines::run_engine(
                engine,
                verification,
                &self.config,
                token,
                recorder,
                &progress_handle,
            )
        };
        let spawned = |engine: Engine, timeline: &mut Vec<RaceEvent>| {
            timeline.push(RaceEvent {
                at: start.elapsed(),
                engine: Some(engine),
                kind: RaceEventKind::Spawned,
            });
            recorder.record(
                RecorderLayer::Portfolio,
                RecorderKind::Spawn,
                u64::from(engine.code()),
                0,
            );
        };
        // Collects one final run and returns whether it was definitive. The
        // race ends at its first definitive run, so that one wins.
        let mut absorb = |run: EngineRun, timeline: &mut Vec<RaceEvent>| {
            let definitive = run.verdict.is_definitive();
            if let Some(progress) = progress {
                progress.record_final(&run);
            }
            timeline.push(RaceEvent {
                at: start.elapsed(),
                engine: Some(run.engine),
                kind: RaceEventKind::Answered { definitive },
            });
            recorder.record(
                RecorderLayer::Portfolio,
                RecorderKind::Answer,
                u64::from(run.engine.code()),
                u64::from(definitive),
            );
            if definitive {
                winner = Some(runs.len());
            }
            runs.push(run);
            definitive
        };
        if let Some((&lead, others)) = engines.split_first() {
            // A lone lead runs on the race token; otherwise the head start
            // stops it, and never later than the job budget.
            let head = if others.is_empty() {
                token.clone()
            } else {
                let head_end = start + HEAD_START;
                CancelToken::with_deadline(token.deadline().map_or(head_end, |d| d.min(head_end)))
            };
            spawned(lead, &mut timeline);
            let pass = run(lead, &head);
            // Cancelled, but not by the race token: the head start ran out.
            // The pass waits to see whether the lead runs again.
            let (mut stopped, mut decided) = (None, false);
            if pass.cancelled && !token.is_cancelled() {
                stopped = Some(pass);
            } else {
                decided = absorb(pass, &mut timeline);
            }
            // The others take turns on this thread until one decides or the
            // budget ends.
            for &engine in others {
                if decided || token.is_cancelled() {
                    break;
                }
                spawned(engine, &mut timeline);
                let answer = run(engine, &token);
                decided = absorb(answer, &mut timeline);
            }
            // A stopped lead runs again last, only if nobody decided, and
            // keeps the `Spawned` event of its first pass.
            if let Some(pass) = stopped {
                let lead_run = if !decided && !token.is_cancelled() {
                    let mut again = run(lead, &token);
                    fold_pass(&mut again, &pass);
                    again
                } else {
                    pass
                };
                absorb(lead_run, &mut timeline);
            }
        }
        let verdict = match winner {
            Some(index) => runs[index].verdict.clone(),
            None => match self.config.job_budget {
                // No engine answered and the budget ran out: the structured
                // timeout outcome, not a free-form Unknown.
                Some(budget) if token.deadline_expired() => Verdict::Timeout { budget },
                _ => Verdict::Unknown {
                    reason: runs
                        .iter()
                        .map(|r| {
                            let reason = match &r.verdict {
                                Verdict::Unknown { reason } => reason.as_str(),
                                _ => "?",
                            };
                            format!("{}: {}", r.engine, reason)
                        })
                        .collect::<Vec<_>>()
                        .join("; "),
                },
            },
        };
        let report = PortfolioReport {
            property: verification.property.name.clone(),
            verdict,
            winner: winner.map(|index| runs[index].engine),
            wall_clock: start.elapsed(),
            runs,
            timeline,
        };
        record_race_metrics(&self.metrics, &report);
        recorder.record(
            RecorderLayer::Portfolio,
            RecorderKind::End,
            report.winner.map_or(u64::MAX, |w| u64::from(w.code())),
            report.wall_clock.as_nanos() as u64,
        );
        report
    }
}

/// Folds a lead pass the head start stopped into the lead's run after it
/// ran again, so the race reports one run per engine: the run's time covers
/// both passes, and so do ATPG's search counters.
fn fold_pass(run: &mut EngineRun, pass: &EngineRun) {
    run.elapsed += pass.elapsed;
    if let (EngineStats::Atpg(stats), EngineStats::Atpg(pass)) = (&mut run.stats, &pass.stats) {
        stats.absorb(pass);
    }
}

/// Engine name as a metric-name component (Prometheus forbids `-`).
fn metric_suffix(engine: Engine) -> &'static str {
    match engine {
        Engine::Atpg => "atpg",
        Engine::SatBmc => "sat_bmc",
        Engine::RandomSim => "random_sim",
    }
}

/// Publishes one race's attribution into the shared registry: race and
/// per-engine win counters, per-engine wall-clock and race wall-clock
/// histograms, and the cancelled-run counter.
fn record_race_metrics(registry: &MetricsRegistry, report: &PortfolioReport) {
    registry.counter("portfolio_races_total").inc();
    registry
        .histogram("portfolio_race_wall_ns")
        .record(report.wall_clock.as_nanos() as u64);
    if let Some(winner) = report.winner {
        registry
            .counter(&format!("portfolio_wins_{}_total", metric_suffix(winner)))
            .inc();
    } else {
        registry.counter("portfolio_no_winner_total").inc();
    }
    if matches!(report.verdict, Verdict::Timeout { .. }) {
        registry.counter("portfolio_timeouts_total").inc();
    }
    for run in &report.runs {
        registry
            .histogram(&format!(
                "portfolio_engine_{}_wall_ns",
                metric_suffix(run.engine)
            ))
            .record(run.elapsed.as_nanos() as u64);
        if run.cancelled {
            registry.counter("portfolio_cancelled_runs_total").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;
    use wlac_bv::Bv;
    use wlac_netlist::Netlist;

    fn counter(limit: u64, wrap: u64, name: &str) -> Verification {
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
        let property = Property::always(&nl, name, ok);
        Verification::new(nl, property)
    }

    /// A configuration whose lead engine (ATPG) hangs until its token is
    /// cancelled, so every race goes past the lead's head start.
    fn hung_lead() -> PortfolioConfig {
        use wlac_atpg::{FaultPlan, FaultSite};
        let mut config = PortfolioConfig::default();
        config.checker.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
        config
    }

    /// Races until `premise` holds, at most 20 times. A loaded host can
    /// delay a quick lead past its head start; that race escalates, which is
    /// correct but says nothing about the contract under test.
    fn race_until(
        portfolio: &Portfolio,
        verification: &Verification,
        premise: impl Fn(&PortfolioReport) -> bool,
    ) -> PortfolioReport {
        let mut timelines = Vec::new();
        for _ in 0..20 {
            let report = portfolio.race(verification);
            if premise(&report) {
                return report;
            }
            timelines.push(report.timeline);
        }
        panic!("the premise never held in 20 races: {timelines:?}");
    }

    fn spawns(report: &PortfolioReport) -> Vec<RaceEvent> {
        report
            .timeline
            .iter()
            .filter(|e| e.kind == RaceEventKind::Spawned)
            .copied()
            .collect()
    }

    #[test]
    fn race_produces_a_winner_and_attribution() {
        // The lead decides alone.
        let report = race_until(&Portfolio::with_defaults(), &counter(12, 5, "holds"), |r| {
            r.runs.len() == 1
        });
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert_eq!(report.winner, Some(Engine::Atpg));
        assert_eq!(report.property, "holds");
        let text = report.to_string();
        assert!(text.contains("won by"), "{text}");

        // A race past the head start attributes the winner and the lead's
        // stopped pass; random simulation never starts once SAT-BMC decides.
        let report = Portfolio::new(hung_lead()).race(&counter(12, 5, "holds"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert_eq!(report.winner, Some(Engine::SatBmc));
        assert_eq!(report.runs.len(), 2, "{:?}", report.timeline);
        let text = report.to_string();
        assert!(text.contains("won by sat-bmc"), "{text}");
        assert!(text.contains("[cancelled]"), "{text}");
    }

    #[test]
    fn a_lead_that_decides_within_the_head_start_runs_alone() {
        let report = race_until(&Portfolio::with_defaults(), &counter(5, 12, "alone"), |r| {
            r.runs.len() == 1
        });
        assert!(
            matches!(report.verdict, Verdict::Violated { .. }),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.winner, Some(Engine::Atpg));
        assert!(!report.runs[0].cancelled);
        // Nobody else started, so there was nobody to cancel.
        assert_eq!(
            report.timeline.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                RaceEventKind::Spawned,
                RaceEventKind::Answered { definitive: true }
            ],
            "{:?}",
            report.timeline
        );
    }

    #[test]
    fn a_hung_lead_is_joined_after_the_head_start_and_cancelled() {
        // SAT-BMC decides this counter, and random simulation cannot.
        let report = Portfolio::new(hung_lead()).race(&counter(12, 5, "hung"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert_eq!(report.winner, Some(Engine::SatBmc));
        // No two engines ran at once: their times fit in the race's.
        let busy: Duration = report.runs.iter().map(|r| r.elapsed).sum();
        assert!(
            busy <= report.wall_clock,
            "engines overlapped: {busy:?} of engine time in {:?}",
            report.wall_clock
        );
        // The head start stopped the lead, and SAT-BMC decided, so the lead
        // did not run again and random simulation never started.
        let lead = report.run_of(Engine::Atpg).expect("the lead ran");
        assert!(lead.cancelled, "{:?}", lead.verdict);
        assert!(report.run_of(Engine::RandomSim).is_none(), "{report}");
        let spawns = spawns(&report);
        assert_eq!(
            spawns.iter().map(|e| e.engine).collect::<Vec<_>>(),
            [Some(Engine::Atpg), Some(Engine::SatBmc)],
            "{:?}",
            report.timeline
        );
        assert!(spawns[1].at >= HEAD_START, "{:?}", report.timeline);
    }

    #[test]
    fn an_undecided_lead_escalates_without_waiting_out_the_head_start() {
        // `eventually (a | b)` needs one ATPG decision; a decision limit of
        // 0 makes the lead give up at once with an `unknown`.
        let mut nl = Netlist::new("either");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let either = nl.or2(a, b);
        nl.mark_output("either", either);
        let property = Property::eventually(&nl, "either", either);
        let mut config = PortfolioConfig::default();
        config.checker.decision_limit = 0;
        let report = race_until(
            &Portfolio::new(config),
            &Verification::new(nl, property),
            |r| spawns(r)[1..].iter().all(|e| e.at < HEAD_START),
        );
        assert!(
            matches!(report.verdict, Verdict::WitnessFound { .. }),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.winner, Some(Engine::SatBmc));
        let lead = report.run_of(Engine::Atpg).expect("the lead ran");
        assert!(!lead.verdict.is_definitive(), "{:?}", lead.verdict);
        assert!(!lead.cancelled, "{:?}", lead.verdict);
        // The lead's undecided answer, not the head start, handed the race
        // to SAT-BMC, whose witness ended it before random simulation's turn.
        assert_eq!(
            report.timeline.iter().map(|e| e.kind).collect::<Vec<_>>(),
            [
                RaceEventKind::Spawned,
                RaceEventKind::Answered { definitive: false },
                RaceEventKind::Spawned,
                RaceEventKind::Answered { definitive: true },
            ],
            "{:?}",
            report.timeline
        );
    }

    #[test]
    fn a_lead_stopped_by_the_head_start_runs_again_after_the_others() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // The lead hangs in its first pass only. Random simulation cannot
        // prove the counter, so only the lead's second run can decide the
        // race before its budget.
        let mut config = PortfolioConfig::default()
            .with_engines(vec![Engine::Atpg, Engine::RandomSim])
            .with_job_budget(Duration::from_secs(3));
        config.checker.faults = FaultPlan::new().fire_nth(FaultSite::EngineHang, 1);
        let report = Portfolio::new(config).race(&counter(12, 5, "restart"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert_eq!(report.winner, Some(Engine::Atpg));
        assert_eq!(report.runs.len(), 2, "{:?}", report.timeline);
        let spawns = spawns(&report);
        assert_eq!(
            spawns.iter().map(|e| e.engine).collect::<Vec<_>>(),
            [Some(Engine::Atpg), Some(Engine::RandomSim)],
            "{:?}",
            report.timeline
        );
        // Random simulation took its turn after the head start, and the
        // lead answered once, after it.
        assert!(spawns[1].at >= HEAD_START, "{:?}", report.timeline);
        let answers: Vec<_> = report
            .timeline
            .iter()
            .filter(|e| matches!(e.kind, RaceEventKind::Answered { .. }))
            .map(|e| e.engine)
            .collect();
        assert_eq!(
            answers,
            [Some(Engine::RandomSim), Some(Engine::Atpg)],
            "{:?}",
            report.timeline
        );
        // The stopped pass is part of the lead's one run.
        let lead = report.run_of(Engine::Atpg).expect("the lead ran");
        assert!(lead.elapsed >= HEAD_START, "{:?}", lead.elapsed);
    }

    #[test]
    fn a_budget_spent_inside_the_head_start_ends_the_race_with_the_lead() {
        let mut config = hung_lead();
        config.job_budget = Some(Duration::from_millis(2));
        let report = Portfolio::new(config).race(&counter(12, 5, "short"));
        assert!(
            matches!(report.verdict, Verdict::Timeout { .. }),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.runs.len(), 1, "{:?}", report.timeline);
        assert_eq!(report.runs[0].engine, Engine::Atpg);
        assert_eq!(spawns(&report).len(), 1, "{:?}", report.timeline);
    }

    #[test]
    fn race_on_a_violation_returns_a_validated_trace() {
        let report = Portfolio::with_defaults().race(&counter(5, 12, "fails"));
        match &report.verdict {
            Verdict::Violated { trace } => assert!(trace.len() >= 5),
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn race_timeline_orders_spawns_before_answers() {
        // A hung lead goes past its head start, so the timeline holds the
        // lead's pass and SAT-BMC's turn.
        let report = Portfolio::new(hung_lead()).race(&counter(12, 5, "timed"));
        let spawns = spawns(&report);
        assert_eq!(spawns.len(), 2, "{:?}", report.timeline);
        // A later engine carries its real start time.
        assert_eq!(spawns[0].engine, Some(Engine::Atpg));
        assert!(spawns[1].at >= HEAD_START, "{:?}", report.timeline);
        let answers = report
            .timeline
            .iter()
            .filter(|e| matches!(e.kind, RaceEventKind::Answered { .. }))
            .count();
        assert_eq!(answers, 2, "{:?}", report.timeline);
        // Timestamps are monotone, and every event names its engine.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].at <= pair[1].at, "{:?}", report.timeline);
        }
        assert!(
            report
                .timeline
                .iter()
                .all(|e| e.engine.is_some() && e.kind != RaceEventKind::CancelIssued),
            "{:?}",
            report.timeline
        );
    }

    fn engine_histogram_count(registry: &MetricsRegistry, engine: Engine) -> u64 {
        registry
            .histogram(&format!(
                "portfolio_engine_{}_wall_ns",
                metric_suffix(engine)
            ))
            .count()
    }

    #[test]
    fn metrics_registry_sees_races_and_wins() {
        // Only started engines feed the per-engine histograms: the lead's
        // counts every race, the others' count the races they joined (none,
        // unless a loaded host held the lead past its head start).
        let registry = Arc::new(MetricsRegistry::new());
        let portfolio = Portfolio::with_defaults().with_metrics(registry.clone());
        let reports = [
            portfolio.race(&counter(12, 5, "l0")),
            portfolio.race(&counter(5, 12, "l1")),
        ];
        assert_eq!(engine_histogram_count(&registry, Engine::Atpg), 2);
        for engine in Engine::ALL {
            let joined = reports.iter().filter(|r| r.run_of(engine).is_some());
            assert_eq!(
                engine_histogram_count(&registry, engine),
                joined.count() as u64
            );
        }

        // A race past the head start runs the lead and SAT-BMC, which
        // decides both counters, so random simulation never starts.
        let registry = Arc::new(MetricsRegistry::new());
        let portfolio = Portfolio::new(hung_lead()).with_metrics(registry.clone());
        let won = portfolio.race(&counter(12, 5, "m0"));
        let winner = won.winner.expect("definitive race");
        portfolio.race(&counter(5, 12, "m1"));
        assert_eq!(registry.counter("portfolio_races_total").get(), 2);
        let wins = registry
            .counter(&format!("portfolio_wins_{}_total", metric_suffix(winner)))
            .get();
        assert!(wins >= 1, "winner {winner} should be counted");
        assert_eq!(registry.histogram("portfolio_race_wall_ns").count(), 2);
        // Every run's wall clock lands in its per-engine histogram.
        assert_eq!(engine_histogram_count(&registry, Engine::Atpg), 2);
        assert_eq!(engine_histogram_count(&registry, Engine::SatBmc), 2);
        assert_eq!(engine_histogram_count(&registry, Engine::RandomSim), 0);
        // The hung lead's stopped pass is the cancelled run of each.
        assert_eq!(registry.counter("portfolio_cancelled_runs_total").get(), 2);
    }

    #[test]
    fn job_budget_times_out_a_hung_engine_within_twice_the_budget() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // One engine, hung from its first search step: without a budget this
        // race would never return. With one, the deadline token releases the
        // hang and the race reports a structured timeout.
        let mut config = PortfolioConfig::default().with_engines(vec![Engine::Atpg]);
        config.job_budget = Some(Duration::from_millis(250));
        config.checker.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
        let registry = Arc::new(MetricsRegistry::new());
        let started = Instant::now();
        let report = Portfolio::new(config)
            .with_metrics(registry.clone())
            .race(&counter(12, 5, "hung"));
        let elapsed = started.elapsed();
        assert!(
            matches!(report.verdict, Verdict::Timeout { .. }),
            "{:?}",
            report.verdict
        );
        assert_eq!(report.verdict.label(), "timeout");
        assert!(!report.verdict.is_definitive());
        assert!(report.winner.is_none());
        assert!(
            elapsed < Duration::from_millis(500),
            "worker freed within 2x budget, took {elapsed:?}"
        );
        assert_eq!(registry.counter("portfolio_timeouts_total").get(), 1);
    }

    #[test]
    fn job_budget_leaves_fast_races_untouched() {
        let config = PortfolioConfig::default().with_job_budget(Duration::from_secs(60));
        let report = Portfolio::new(config).race(&counter(12, 5, "fast"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert!(report.winner.is_some());
    }

    #[test]
    fn single_engine_portfolio_works() {
        let config = PortfolioConfig::default().with_engines(vec![Engine::Atpg]);
        let report = Portfolio::new(config).race(&counter(12, 5, "solo"));
        assert_eq!(report.runs.len(), 1);
        assert_eq!(report.winner, Some(Engine::Atpg));
    }
}
