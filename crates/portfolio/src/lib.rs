//! # wlac-portfolio — concurrent multi-strategy verification
//!
//! The paper's core observation is that word-level ATPG + modular arithmetic
//! and bit-blasted SAT shine on *different* workload shapes. This crate turns
//! that observation into an engine: a [`Portfolio`] races the ATPG checker
//! ([`wlac_atpg::AssertionChecker`]), SAT bounded model checking
//! ([`wlac_baselines::bounded_model_check_learning`]) and random simulation on each
//! property, takes the first definitive answer, and cooperatively cancels the
//! losers through [`wlac_atpg::CancelToken`]. The race is hedged: the lead
//! engine gets a 5 ms head start, and the others join only if it has not
//! decided by then (see [`Portfolio::race`]).
//!
//! Every race runs its engines one way: seeded from a [`WarmStart`] (an
//! empty one for [`Portfolio::race`] and [`Portfolio::check_all`]) and
//! harvesting what they learn. [`Portfolio::race_warm`] returns that
//! learning as a [`Harvest`] holding only what the race added over its
//! seed, so a knowledge base merges it exactly as it merges an import or a
//! replayed journal record. Only SAT BMC takes a seed (replayed CDCL
//! clauses) and harvests one; ATPG runs [`wlac_atpg::AssertionChecker::check`]
//! with its own ESTG, the same check Table 2 runs.
//!
//! Beyond single-property racing, [`Portfolio::check_batch`] shards a whole
//! suite of properties across a worker-thread pool. Every trace-backed
//! verdict has been re-simulated against the design by
//! [`wlac_atpg::validated_verdict`] before an engine reports it, and
//! disagreements between engines are detected and flagged rather than
//! silently resolved.
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
mod predictor;
mod progress;
mod warm;

pub use config::{PortfolioConfig, RANDOM_SEED};
pub use engines::{Engine, EngineRun, EngineStats};
pub use predictor::{predict_engines, EngineHistory, NetlistFeatures};
pub use progress::RaceProgress;
pub use warm::{Harvest, WarmStart};
pub use wlac_atpg::Verdict;

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, Verification};
use wlac_telemetry::{MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer};

/// How long a race's lead engine runs alone before the other engines join.
///
/// The lead (ATPG, or the predictor's top pick) decides most small designs
/// in well under a millisecond, and on a machine with few cores two more
/// engines started at once take the CPU it needs: in a design stream the
/// first answer came three times later than ATPG alone takes, and most
/// engine time was thrown away. A sweep of 1–10 ms on such a stream gave a
/// flat throughput optimum from 3 to 10 ms; 5 ms sits in its middle. The
/// cost is bounded: a race the other engines would have won ends at most
/// this much later, and SAT-BMC's fastest paper-suite win takes about 60 ms.
/// The lead spends its head start on the calling thread; a lead still
/// searching at its end restarts on its own thread beside the others, so
/// an escalating race repeats at most this much lead work.
/// One value serves every caller, so it is a constant and not a knob.
pub(crate) const HEAD_START: Duration = Duration::from_millis(5);

/// What happened at one point of an engine race, for the
/// [`PortfolioReport::timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RaceEventKind {
    /// An engine started: a racing lead on the calling thread, any other
    /// engine on its own thread. A lead restarted after its head start
    /// keeps the one `Spawned` of its first pass.
    Spawned,
    /// An engine delivered its verdict to the supervisor.
    Answered {
        /// `true` when the verdict was definitive (could decide the race).
        definitive: bool,
    },
    /// The supervisor told the remaining engines to stop.
    CancelIssued,
}

/// One entry of the race timeline: *when* (relative to dispatch) *which*
/// engine did *what*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RaceEvent {
    /// Offset from race dispatch.
    pub at: Duration,
    /// The engine concerned; `None` for supervisor-wide events
    /// ([`RaceEventKind::CancelIssued`]).
    pub engine: Option<Engine>,
    /// What happened.
    pub kind: RaceEventKind,
}

/// The result of checking one property with the portfolio.
#[derive(Debug, Clone)]
pub struct PortfolioReport {
    /// Property name (e.g. `p7`).
    pub property: String,
    /// The combined verdict: the winner's in racing mode, the first
    /// definitive one in cross-validation mode.
    pub verdict: Verdict,
    /// The engine that produced [`PortfolioReport::verdict`], when any
    /// engine was definitive.
    pub winner: Option<Engine>,
    /// Wall-clock time from dispatch to the last engine finishing.
    pub wall_clock: Duration,
    /// Every started engine's run, in finish order, with per-engine
    /// attribution. A hedged race the lead decided alone has one.
    pub runs: Vec<EngineRun>,
    /// Human-readable descriptions of cross-engine contradictions. Empty
    /// when all definitive verdicts agree.
    pub disagreements: Vec<String>,
    /// The race as it unfolded: engine spawns, answers in arrival order and
    /// the cancellation point, all timestamped relative to dispatch.
    pub timeline: Vec<RaceEvent>,
}

impl PortfolioReport {
    /// `true` when every pair of definitive verdicts is consistent.
    pub fn agreed(&self) -> bool {
        self.disagreements.is_empty()
    }

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
        for d in &self.disagreements {
            write!(f, "\n    DISAGREEMENT: {d}")?;
        }
        Ok(())
    }
}

/// A concurrent multi-strategy verification engine.
///
/// See the crate-level docs for an example; [`Portfolio::race`] checks one
/// property with first-definitive-answer-wins semantics,
/// [`Portfolio::check_all`] runs every engine to completion for maximum
/// cross-validation, and [`Portfolio::check_batch`] shards many properties
/// over a worker pool.
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
    /// histograms, win-margin distribution) into `registry`. Purely
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

    /// The active configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.config
    }

    /// Races the configured engines on one property; the first definitive
    /// verdict wins and the losing engines are cancelled cooperatively.
    ///
    /// The race is hedged. Only the lead engine (the first of the list)
    /// starts at dispatch, on the calling thread, for a 5 ms head start. A
    /// lead that decides in that time is the whole race: it reports a single
    /// run, starts no thread and issues no cancel. The others start when the
    /// lead has not decided within its head start, or as soon as it answers
    /// without deciding. A lead the head start stopped restarts on its own
    /// thread beside them, from the same warm start; its one run covers
    /// both passes. A race that is decided, or whose job budget has
    /// expired, starts no further engine. The [`PortfolioReport::timeline`]
    /// shows when each engine started.
    pub fn race(&self, verification: &Verification) -> PortfolioReport {
        self.race_warm(verification, &WarmStart::new()).0
    }

    /// Runs every configured engine to completion (no cancellation) and
    /// cross-validates all verdicts against each other.
    pub fn check_all(&self, verification: &Verification) -> PortfolioReport {
        let warm = WarmStart::new();
        self.run_portfolio(
            verification,
            false,
            &warm,
            &RecorderHandle::disabled(),
            None,
        )
        .0
    }

    /// Like [`Portfolio::race`], but warm-started from a knowledge base:
    /// `warm` seeds SAT BMC with replayed CDCL clauses and may replace the
    /// engine list with the scheduling predictor's choice, whose first
    /// engine leads the hedged race. ATPG runs the plain
    /// [`wlac_atpg::AssertionChecker::check`] either way. The returned
    /// [`Harvest`] carries only what this race learned on top of `warm`, so
    /// the base merges it as it is.
    ///
    /// Seeds must come from runs on a structurally identical netlist — the
    /// knowledge-base owner enforces that by keying on a design hash.
    pub fn race_warm(
        &self,
        verification: &Verification,
        warm: &WarmStart,
    ) -> (PortfolioReport, Harvest) {
        self.run_portfolio(verification, true, warm, &RecorderHandle::disabled(), None)
    }

    /// Like [`Portfolio::race_warm`], but observed. Every flight-recorder
    /// event this race (and the core searches under it) emits is stamped
    /// through `recorder` — the per-job handle the verification service
    /// derives, so a remote `events` tail can be filtered down to one job.
    /// The race also publishes live progress into `progress`: the ATPG
    /// engine streams bound advances and effort counters from inside its
    /// search, and the supervisor stores every engine's final statistics the
    /// moment it answers. Observers snapshot `progress` concurrently (the
    /// service's progress accessors feed the server's `progress`/`subscribe`
    /// ops from it); publication is lock-free, alloc-free and never
    /// influences scheduling or verdicts.
    pub fn race_warm_probed(
        &self,
        verification: &Verification,
        warm: &WarmStart,
        recorder: &RecorderHandle,
        progress: &RaceProgress,
    ) -> (PortfolioReport, Harvest) {
        self.run_portfolio(verification, true, warm, recorder, Some(progress))
    }

    /// Checks a batch of properties, sharding them across
    /// [`PortfolioConfig::workers`] worker threads. Each job is checked with
    /// [`Portfolio::race`] (or [`Portfolio::check_all`] when
    /// [`PortfolioConfig::cross_validate`] is set); results come back in job
    /// order.
    pub fn check_batch(&self, jobs: &[Verification]) -> Vec<PortfolioReport> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<PortfolioReport>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        let workers = self.config.workers.clamp(1, jobs.len());
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(job) = jobs.get(index) else { break };
                    let report = if self.config.cross_validate {
                        self.check_all(job)
                    } else {
                        self.race(job)
                    };
                    *slots[index].lock().expect("result slot") = Some(report);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("every job produced a report")
            })
            .collect()
    }

    fn run_portfolio(
        &self,
        verification: &Verification,
        cancel_losers: bool,
        warm: &WarmStart,
        recorder: &RecorderHandle,
        progress: Option<&RaceProgress>,
    ) -> (PortfolioReport, Harvest) {
        let start = Instant::now();
        // A job budget turns the race token into a deadline token: every
        // engine polls it cooperatively, so even one stuck in a pathological
        // search (or an injected hang) releases its thread once the budget
        // is gone — the supervisor then reports a structured timeout below.
        let token = match self.config.job_budget {
            Some(budget) => CancelToken::with_deadline(start + budget),
            None => CancelToken::new(),
        };
        let engines: &[Engine] = warm.engines.as_deref().unwrap_or(&self.config.engines);
        let mut runs: Vec<EngineRun> = Vec::with_capacity(engines.len());
        let mut harvest = Harvest::default();
        let mut winner: Option<usize> = None;
        let mut timeline: Vec<RaceEvent> = Vec::with_capacity(2 * engines.len() + 1);
        let mut first_definitive_at: Option<Duration> = None;
        let mut win_margin: Option<Duration> = None;
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
                warm,
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
        // Collects one answer: the first definitive one wins and (in racing
        // mode) cancels everyone still searching.
        let mut absorb = |(run, learned): (EngineRun, Harvest), timeline: &mut Vec<RaceEvent>| {
            let at = start.elapsed();
            let definitive = run.verdict.is_definitive();
            if let Some(progress) = progress {
                progress.record_final(&run);
            }
            timeline.push(RaceEvent {
                at,
                engine: Some(run.engine),
                kind: RaceEventKind::Answered { definitive },
            });
            recorder.record(
                RecorderLayer::Portfolio,
                RecorderKind::Answer,
                u64::from(run.engine.code()),
                u64::from(definitive),
            );
            match first_definitive_at {
                None if definitive => first_definitive_at = Some(at),
                Some(won_at) if win_margin.is_none() => {
                    win_margin = Some(at.saturating_sub(won_at));
                }
                _ => {}
            }
            if winner.is_none() && definitive {
                winner = Some(runs.len());
                if cancel_losers {
                    // Cancelling also keeps held engines from starting;
                    // the cancel event marks a race with losers running.
                    token.cancel();
                    let started = timeline
                        .iter()
                        .filter(|e| e.kind == RaceEventKind::Spawned)
                        .count();
                    if started > runs.len() + 1 {
                        timeline.push(RaceEvent {
                            at: start.elapsed(),
                            engine: None,
                            kind: RaceEventKind::CancelIssued,
                        });
                        recorder.record(
                            RecorderLayer::Portfolio,
                            RecorderKind::Cancel,
                            u64::from(run.engine.code()),
                            0,
                        );
                    }
                }
            }
            harvest.clauses.extend(learned.clauses);
            harvest.ran.push(run.engine);
            runs.push(run);
        };
        // Racing mode hedges: the lead engine runs on this thread for at most
        // HEAD_START, and the others join only if it has not decided by then
        // (or answers undecided sooner). Cross-validation mode starts every
        // engine on its own thread.
        let (lead, mut joining) = match engines.split_first() {
            Some((&lead, held)) if cancel_losers => (Some(lead), held),
            _ => (None, engines),
        };
        // A lead pass the head start stopped. The lead restarts beside the
        // joining engines, and the pass's time and effort fold into its run.
        let mut stopped: Option<EngineRun> = None;
        if let Some(lead) = lead {
            // A lone lead runs on the race token; otherwise the head start
            // stops it, and never later than the job budget.
            let head = if joining.is_empty() {
                token.clone()
            } else {
                let head_end = start + HEAD_START;
                CancelToken::with_deadline(token.deadline().map_or(head_end, |d| d.min(head_end)))
            };
            spawned(lead, &mut timeline);
            let (pass, learned) = run(lead, &head);
            // Cancelled, but not by the race token: the head start ran out.
            // The pass's learning goes with it; the restart learns again
            // from the same seed.
            if pass.cancelled && !token.is_cancelled() {
                stopped = Some(pass);
            } else {
                absorb((pass, learned), &mut timeline);
            }
            // A decided race has cancelled the token, and an expired budget
            // has too: either way nobody new starts.
            if token.is_cancelled() {
                joining = &[];
            }
        }
        if stopped.is_some() || !joining.is_empty() {
            thread::scope(|scope| {
                let (tx, rx) = mpsc::channel::<(EngineRun, Harvest)>();
                let launch = |engine: Engine| {
                    let tx = tx.clone();
                    let token = token.clone();
                    scope.spawn(move || {
                        // The supervisor receives until every sender is
                        // gone; a send only fails if it panicked, in which
                        // case the scope propagates that panic anyway.
                        let _ = tx.send(run(engine, &token));
                    });
                };
                for &engine in joining {
                    spawned(engine, &mut timeline);
                    launch(engine);
                }
                // The restarted lead starts last, so a free core goes to an
                // engine that has not run yet. Started first, it takes that
                // core and a joining engine shares one: on the paper suite's
                // p5 a lone ATPG then ties a halved SAT-BMC, and which of
                // `proved` and `holds(bound)` wins changes from run to run.
                // It keeps the `Spawned` event of its first pass.
                if let Some(pass) = &stopped {
                    launch(pass.engine);
                }
                drop(tx);
                while let Ok((mut answer, learned)) = rx.recv() {
                    if let Some(pass) = stopped.as_ref().filter(|p| p.engine == answer.engine) {
                        fold_pass(&mut answer, pass);
                    }
                    absorb((answer, learned), &mut timeline);
                }
            });
        }
        let disagreements = cross_validate(&runs);
        if !cancel_losers {
            // Cross-validation mode: every engine ran to completion, so pick
            // the most informative verdict instead of the earliest one — a
            // validated trace from a deep engine (e.g. a random-simulation
            // hit beyond the unrolling bound) beats a bounded hold.
            winner = runs
                .iter()
                .enumerate()
                .filter(|(_, run)| run.verdict.is_definitive())
                .max_by_key(|(index, run)| (run.verdict.rank(), usize::MAX - index))
                .map(|(index, _)| index);
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
        harvest.winner = winner.map(|index| runs[index].engine);
        let report = PortfolioReport {
            property: verification.property.name.clone(),
            verdict,
            winner: harvest.winner,
            wall_clock: start.elapsed(),
            runs,
            disagreements,
            timeline,
        };
        record_race_metrics(&self.metrics, &report, win_margin);
        recorder.record(
            RecorderLayer::Portfolio,
            RecorderKind::End,
            report.winner.map_or(u64::MAX, |w| u64::from(w.code())),
            report.wall_clock.as_nanos() as u64,
        );
        (report, harvest)
    }
}

/// Folds a lead pass the head start stopped into the lead's run after its
/// restart, so the race reports one run per engine: the run's time covers
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
/// histograms, cancelled-run and disagreement counters, and the win margin
/// (first definitive answer to the next engine's answer — how much racing
/// actually bought).
fn record_race_metrics(
    registry: &MetricsRegistry,
    report: &PortfolioReport,
    win_margin: Option<Duration>,
) {
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
    if !report.disagreements.is_empty() {
        registry
            .counter("portfolio_disagreements_total")
            .add(report.disagreements.len() as u64);
    }
    if let Some(margin) = win_margin {
        registry
            .histogram("portfolio_win_margin_ns")
            .record(margin.as_nanos() as u64);
    }
}

/// Pairwise consistency check over all definitive verdicts.
fn cross_validate(runs: &[EngineRun]) -> Vec<String> {
    let mut disagreements = Vec::new();
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            if a.verdict.conflicts_with(&b.verdict) {
                disagreements.push(format!(
                    "{} says {} but {} says {}",
                    a.engine,
                    a.verdict.label(),
                    b.engine,
                    b.verdict.label(),
                ));
            }
        }
    }
    disagreements
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

    /// A configuration whose lead engine (ATPG) hangs until the race is
    /// cancelled, so every race escalates to the full portfolio.
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
        assert!(report.agreed(), "{:?}", report.disagreements);
        assert_eq!(report.property, "holds");
        let text = report.to_string();
        assert!(text.contains("won by"), "{text}");

        // An escalated race runs and attributes the whole portfolio.
        let report = Portfolio::new(hung_lead()).race(&counter(12, 5, "holds"));
        assert!(report.verdict.is_pass(), "{:?}", report.verdict);
        assert_eq!(report.winner, Some(Engine::SatBmc));
        assert!(report.agreed(), "{:?}", report.disagreements);
        assert_eq!(report.runs.len(), 3);
        let text = report.to_string();
        assert!(text.contains("won by sat-bmc"), "{text}");
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
        let report = Portfolio::new(hung_lead()).race(&counter(5, 12, "hung"));
        assert!(
            matches!(report.verdict, Verdict::Violated { .. }),
            "{:?}",
            report.verdict
        );
        let winner = report.winner.expect("a joining engine decides");
        assert_ne!(winner, Engine::Atpg);
        let lead = report.run_of(Engine::Atpg).expect("the lead ran");
        assert!(lead.cancelled, "{:?}", lead.verdict);
        let spawns = spawns(&report);
        assert_eq!(spawns.len(), 3, "{:?}", report.timeline);
        assert_eq!(spawns[0].engine, Some(Engine::Atpg));
        for joined in &spawns[1..] {
            assert!(joined.at >= HEAD_START, "{:?}", report.timeline);
        }
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
        assert_eq!(spawns(&report).len(), 3, "{:?}", report.timeline);
        assert!(
            matches!(report.verdict, Verdict::WitnessFound { .. }),
            "{:?}",
            report.verdict
        );
        assert_ne!(report.winner, Some(Engine::Atpg));
        let lead = report.run_of(Engine::Atpg).expect("the lead ran");
        assert!(!lead.verdict.is_definitive(), "{:?}", lead.verdict);
        // The lead's undecided answer, not the head start, brought the others
        // in: they start right after it, before the head start is out.
        let kinds: Vec<_> = report.timeline.iter().take(4).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                RaceEventKind::Spawned,
                RaceEventKind::Answered { definitive: false },
                RaceEventKind::Spawned,
                RaceEventKind::Spawned,
            ],
            "{:?}",
            report.timeline
        );
    }

    #[test]
    fn a_lead_stopped_by_the_head_start_restarts_beside_the_others() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // The lead hangs in its first pass only. Random simulation cannot
        // prove the counter, so only the restarted lead can decide the race
        // before its budget.
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
        assert!(report.agreed(), "{:?}", report.disagreements);
    }

    #[test]
    fn check_all_runs_every_engine_to_completion() {
        let portfolio = Portfolio::new(PortfolioConfig::default().with_cross_validation());
        let report = portfolio.check_all(&counter(12, 5, "holds"));
        // Racing hedges and cancels losers; check_all starts every engine at
        // dispatch, before collecting any answer, and cancels none.
        assert_eq!(report.runs.len(), 3);
        assert!(
            report.timeline[..3]
                .iter()
                .all(|e| e.kind == RaceEventKind::Spawned),
            "{:?}",
            report.timeline
        );
        assert!(report.runs.iter().all(|r| !r.cancelled));
        // ATPG and BMC both reach a definitive pass verdict.
        for engine in [Engine::Atpg, Engine::SatBmc] {
            let run = report.run_of(engine).expect("engine ran");
            assert!(run.verdict.is_pass(), "{engine}: {:?}", run.verdict);
        }
        assert!(report.agreed());
    }

    #[test]
    fn batch_returns_reports_in_job_order() {
        let jobs = vec![
            counter(12, 5, "j0"),
            counter(5, 12, "j1"),
            counter(3, 12, "j2"),
            counter(9, 4, "j3"),
        ];
        let reports = Portfolio::with_defaults().check_batch(&jobs);
        assert_eq!(reports.len(), 4);
        for (i, report) in reports.iter().enumerate() {
            assert_eq!(report.property, format!("j{i}"));
            assert!(
                report.agreed(),
                "{}: {:?}",
                report.property,
                report.disagreements
            );
        }
        assert!(reports[0].verdict.is_pass());
        assert!(matches!(reports[1].verdict, Verdict::Violated { .. }));
        assert!(matches!(reports[2].verdict, Verdict::Violated { .. }));
        assert!(reports[3].verdict.is_pass());
    }

    #[test]
    fn deep_violation_beyond_the_bound_wins_cross_validation() {
        // The counter wraps at 9, so q = 8 violates "q < 8" — but only at
        // cycle 8, beyond an 8-frame unrolling (the violation needs 9
        // frames). The bounded engines correctly report holds-up-to-bound;
        // the 64-cycle random simulation finds the real violation, which is
        // not a disagreement (the trace is longer than the bound) and must
        // win the combined verdict.
        let portfolio = Portfolio::new(PortfolioConfig::default().with_cross_validation());
        let report = portfolio.check_all(&counter(8, 9, "deep"));
        assert!(report.agreed(), "{:?}", report.disagreements);
        assert_eq!(report.winner, Some(Engine::RandomSim));
        match &report.verdict {
            Verdict::Violated { trace } => assert!(trace.len() > 8),
            other => panic!("expected the deep violation, got {other:?}"),
        }
        let bounded = report.run_of(Engine::Atpg).expect("atpg ran");
        assert!(bounded.verdict.is_pass(), "{:?}", bounded.verdict);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Portfolio::with_defaults().check_batch(&[]).is_empty());
    }

    #[test]
    fn race_timeline_orders_spawns_before_answers() {
        // A hung lead escalates, so the timeline holds the full race.
        let report = Portfolio::new(hung_lead()).race(&counter(12, 5, "timed"));
        let spawns = spawns(&report);
        assert_eq!(spawns.len(), 3, "{:?}", report.timeline);
        // The held engines carry their real spawn time.
        assert_eq!(spawns[0].engine, Some(Engine::Atpg));
        assert!(spawns[1..].iter().all(|e| e.at >= HEAD_START));
        let answers = report
            .timeline
            .iter()
            .filter(|e| matches!(e.kind, RaceEventKind::Answered { .. }))
            .count();
        assert_eq!(answers, 3, "{:?}", report.timeline);
        // Racing mode cancels as soon as someone is definitive.
        assert!(report
            .timeline
            .iter()
            .any(|e| e.kind == RaceEventKind::CancelIssued));
        // Timestamps are monotone within the supervisor's view.
        for pair in report.timeline.windows(2) {
            assert!(pair[0].at <= pair[1].at, "{:?}", report.timeline);
        }
        // Every Answered names an engine; CancelIssued is supervisor-wide.
        for event in &report.timeline {
            match event.kind {
                RaceEventKind::CancelIssued => assert!(event.engine.is_none()),
                _ => assert!(event.engine.is_some()),
            }
        }
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

        // Escalated races run everyone.
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
        // Each escalated race runs all three engines; every run's wall clock
        // lands in its per-engine histogram.
        let per_engine: u64 = Engine::ALL
            .iter()
            .map(|&e| engine_histogram_count(&registry, e))
            .sum();
        assert_eq!(per_engine, 6);
        // At least the hung lead is cancelled in each.
        assert!(registry.counter("portfolio_cancelled_runs_total").get() >= 2);
    }

    #[test]
    fn job_budget_times_out_a_hung_engine_within_twice_the_budget() {
        use wlac_atpg::{FaultPlan, FaultSite};
        // One engine, hung from its first search step: without a budget this
        // race would never return. With one, the deadline token releases the
        // hang and the supervisor reports a structured timeout.
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
