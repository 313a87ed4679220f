//! The assertion checking framework (Fig. 1 of the paper).
//!
//! [`AssertionChecker::check`] drives the whole flow: the sequential design
//! is expanded over time-frames, the assertion is inverted into a
//! counter-example-generation problem whose value requirements seed the
//! word-level ATPG engine, and the combined ATPG + modular-arithmetic search
//! of [`crate::search`] either produces a counter-example/witness trace or
//! proves that none exists within the bound. A one-step induction check (an
//! extension over the paper) can upgrade a bounded result into a full proof.

use crate::config::CheckerOptions;
use crate::datapath::DatapathFacts;
use crate::estg::Estg;
use crate::knowledge::SearchKnowledge;
use crate::property::{PropertyKind, Verification};
use crate::search::{SearchContext, SearchGoal, SearchOutcome};
use crate::stats::CheckStats;
use crate::trace::Trace;
use std::time::Instant;
use wlac_bv::{Bv, Bv3, Tv};
use wlac_netlist::{NetId, Unrolling};

/// Outcome of checking one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// The assertion holds in every reachable state (proved by induction on
    /// top of the bounded search).
    Proved,
    /// No counter-example exists within the explored bound.
    HoldsUpToBound {
        /// Number of time-frames exhaustively explored.
        frames: usize,
    },
    /// The assertion fails; a validated counter-example is attached.
    CounterExample {
        /// Concrete failing execution.
        trace: Trace,
    },
    /// A witness satisfying the `Eventually` objective was found.
    WitnessFound {
        /// Concrete satisfying execution.
        trace: Trace,
    },
    /// No witness exists within the explored bound.
    WitnessNotFound {
        /// Number of time-frames exhaustively explored.
        frames: usize,
    },
    /// The check was aborted before reaching a conclusion.
    Unknown {
        /// Human-readable reason (time limit, backtrack limit, unresolved
        /// datapath constraints, failed validation).
        reason: String,
    },
}

impl CheckResult {
    /// `true` when the result certifies the assertion (proved or holds up to
    /// the bound) — the "assertion passes" outcomes of the paper's Table 2.
    pub fn is_pass(&self) -> bool {
        matches!(
            self,
            CheckResult::Proved | CheckResult::HoldsUpToBound { .. }
        )
    }

    /// `true` when a concrete trace (counter-example or witness) was produced.
    pub fn has_trace(&self) -> bool {
        matches!(
            self,
            CheckResult::CounterExample { .. } | CheckResult::WitnessFound { .. }
        )
    }
}

/// Result plus effort statistics for one property check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Property name (e.g. `p7`).
    pub property: String,
    /// Outcome of the check.
    pub result: CheckResult,
    /// Search statistics (CPU time, memory estimate, decisions, ...).
    pub stats: CheckStats,
}

/// The combined word-level ATPG + modular arithmetic assertion checker.
#[derive(Debug, Clone, Default)]
pub struct AssertionChecker {
    options: CheckerOptions,
}

impl AssertionChecker {
    /// Creates a checker with the given options.
    pub fn new(options: CheckerOptions) -> Self {
        AssertionChecker { options }
    }

    /// Creates a checker with default options.
    pub fn with_defaults() -> Self {
        AssertionChecker::new(CheckerOptions::default())
    }

    /// The active options.
    pub fn options(&self) -> &CheckerOptions {
        &self.options
    }

    /// Checks one property of a design.
    ///
    /// Runs cold: no cross-property knowledge is consulted or recorded (use
    /// [`AssertionChecker::check_learned`] for warm-started checks). Keeping
    /// the cold path free of the fact-memo bookkeeping preserves its exact
    /// allocation profile and makes it the oracle the learning-soundness
    /// differential tests compare against.
    pub fn check(&self, verification: &Verification) -> CheckReport {
        let mut estg = Estg::new();
        self.check_inner(verification, &mut estg, None)
    }

    /// Checks one property, seeded with (and feeding back into) a
    /// cross-property [`SearchKnowledge`] bundle for the same design.
    ///
    /// The ESTG conflict cubes bias decision ordering towards historically
    /// conflict-free assignments and the datapath facts short-circuit
    /// already-refuted island solves; neither can change a verdict, only the
    /// effort to reach it (the learning-soundness differential tests in
    /// `tests/service.rs` enforce this). On return the bundle additionally
    /// holds everything this run learned.
    ///
    /// The caller is responsible for only ever passing knowledge gathered on
    /// a **structurally identical** netlist — bind bundles to a design hash
    /// and reject mismatches.
    pub fn check_learned(
        &self,
        verification: &Verification,
        knowledge: &mut SearchKnowledge,
    ) -> CheckReport {
        let SearchKnowledge {
            estg,
            datapath_facts,
        } = knowledge;
        self.check_inner(verification, estg, Some(datapath_facts))
    }

    fn check_inner(
        &self,
        verification: &Verification,
        estg: &mut Estg,
        facts: Option<&mut DatapathFacts>,
    ) -> CheckReport {
        let start = Instant::now();
        let deadline = start + self.options.time_limit;
        let mut stats = CheckStats::default();
        // Check entry, recorded before any cancel check: bound 0 of
        // `max_frames`, nothing unrolled yet. So even a check cancelled
        // before its first bound leaves a core event for its job.
        self.options.recorder.record(
            wlac_telemetry::RecorderLayer::Core,
            wlac_telemetry::RecorderKind::Bound,
            0,
            self.options.max_frames as u64,
        );
        let result = match verification.property.kind {
            PropertyKind::Always => {
                self.check_always(verification, estg, facts, deadline, &mut stats)
            }
            PropertyKind::Eventually => {
                self.check_eventually(verification, estg, facts, deadline, &mut stats)
            }
        };
        stats.elapsed = start.elapsed();
        if self.options.trace {
            // The search loop attributed its own time; everything else this
            // check did (unrolling, requirement seeding, trace extraction and
            // replay validation) is the remainder, charged to `other` so the
            // phase breakdown partitions `elapsed`.
            let attributed = stats.phases.total() - stats.phases.other;
            stats.phases.other = (stats.elapsed.as_nanos() as u64).saturating_sub(attributed);
        }
        CheckReport {
            property: verification.property.name.clone(),
            result,
            stats,
        }
    }

    fn check_always(
        &self,
        verification: &Verification,
        estg: &mut Estg,
        mut facts: Option<&mut DatapathFacts>,
        deadline: Instant,
        stats: &mut CheckStats,
    ) -> CheckResult {
        // One unrolling grows monotonically across bounds: deepening by one
        // frame appends to the expanded circuit instead of rebuilding it.
        let mut unrolling = Unrolling::new(&verification.netlist, 1);
        for frames in 1..=self.options.max_frames {
            if self.options.cancel.is_cancelled() {
                return CheckResult::Unknown {
                    reason: "cancelled".into(),
                };
            }
            stats.frames_explored = frames;
            unrolling.extend_to(&verification.netlist, frames);
            if self.options.trace {
                self.options
                    .trace_sink
                    .event("bound", wlac_telemetry::SpanId::ROOT, frames as u64);
            }
            self.options.recorder.record(
                wlac_telemetry::RecorderLayer::Core,
                wlac_telemetry::RecorderKind::Bound,
                frames as u64,
                self.options.max_frames as u64,
            );
            self.options.progress.advance_bound(frames as u64);
            let outcome = self.solve_bound(
                verification,
                &unrolling,
                frames,
                true,
                false,
                SearchGoal::Prove,
                estg,
                facts.as_deref_mut(),
                deadline,
                stats,
            );
            match outcome {
                SearchOutcome::Sat(values) => {
                    let trace = self.extract_trace(verification, &unrolling, &values);
                    return match trace
                        .replay_monitor(&verification.netlist, verification.property.monitor)
                    {
                        Ok(monitor) if monitor.last() == Some(&false) => {
                            CheckResult::CounterExample { trace }
                        }
                        Ok(_) => CheckResult::Unknown {
                            reason: "counter-example failed replay validation".into(),
                        },
                        Err(e) => CheckResult::Unknown {
                            reason: format!("counter-example replay error: {e}"),
                        },
                    };
                }
                SearchOutcome::Unsat => {}
                SearchOutcome::Inconclusive(reason) => {
                    return CheckResult::Unknown {
                        reason: reason.into(),
                    };
                }
            }
            // After establishing the base case, try to close the proof with a
            // one-step induction: no state satisfying the monitor may have a
            // successor violating it.
            if frames == 1 && self.options.use_induction {
                unrolling.extend_to(&verification.netlist, 2);
                let outcome = self.solve_bound(
                    verification,
                    &unrolling,
                    2,
                    true,
                    true,
                    SearchGoal::Prove,
                    estg,
                    facts.as_deref_mut(),
                    deadline,
                    stats,
                );
                if outcome == SearchOutcome::Unsat {
                    return CheckResult::Proved;
                }
            }
        }
        CheckResult::HoldsUpToBound {
            frames: self.options.max_frames,
        }
    }

    fn check_eventually(
        &self,
        verification: &Verification,
        estg: &mut Estg,
        mut facts: Option<&mut DatapathFacts>,
        deadline: Instant,
        stats: &mut CheckStats,
    ) -> CheckResult {
        let mut unrolling = Unrolling::new(&verification.netlist, 1);
        for frames in 1..=self.options.max_frames {
            if self.options.cancel.is_cancelled() {
                return CheckResult::Unknown {
                    reason: "cancelled".into(),
                };
            }
            stats.frames_explored = frames;
            unrolling.extend_to(&verification.netlist, frames);
            if self.options.trace {
                self.options
                    .trace_sink
                    .event("bound", wlac_telemetry::SpanId::ROOT, frames as u64);
            }
            self.options.recorder.record(
                wlac_telemetry::RecorderLayer::Core,
                wlac_telemetry::RecorderKind::Bound,
                frames as u64,
                self.options.max_frames as u64,
            );
            self.options.progress.advance_bound(frames as u64);
            let outcome = self.solve_bound(
                verification,
                &unrolling,
                frames,
                false,
                false,
                SearchGoal::Witness,
                estg,
                facts.as_deref_mut(),
                deadline,
                stats,
            );
            match outcome {
                SearchOutcome::Sat(values) => {
                    let trace = self.extract_trace(verification, &unrolling, &values);
                    return match trace
                        .replay_monitor(&verification.netlist, verification.property.monitor)
                    {
                        Ok(monitor) if monitor.last() == Some(&true) => {
                            CheckResult::WitnessFound { trace }
                        }
                        Ok(_) => CheckResult::Unknown {
                            reason: "witness failed replay validation".into(),
                        },
                        Err(e) => CheckResult::Unknown {
                            reason: format!("witness replay error: {e}"),
                        },
                    };
                }
                SearchOutcome::Unsat => {}
                SearchOutcome::Inconclusive(reason) => {
                    return CheckResult::Unknown {
                        reason: reason.into(),
                    };
                }
            }
        }
        CheckResult::WitnessNotFound {
            frames: self.options.max_frames,
        }
    }

    /// Seeds the requirements over `frames` time-frames of the (already
    /// extended) unrolling and runs the justification search.
    ///
    /// `violation` selects the monitor value required at the last frame
    /// (`true` ⇒ require 0 for a counter-example, `false` ⇒ require 1 for a
    /// witness). `induction` drops the initial-state constraints and instead
    /// requires the monitor to hold at every frame but the last.
    #[allow(clippy::too_many_arguments)]
    fn solve_bound(
        &self,
        verification: &Verification,
        unrolling: &Unrolling,
        frames: usize,
        violation: bool,
        induction: bool,
        goal: SearchGoal,
        estg: &mut Estg,
        facts: Option<&mut DatapathFacts>,
        deadline: Instant,
        stats: &mut CheckStats,
    ) -> SearchOutcome {
        debug_assert_eq!(unrolling.frames(), frames, "bound/unrolling mismatch");
        let expanded = unrolling.circuit();
        let mut requirements: Vec<(NetId, Bv3)> = Vec::new();
        let one = Bv3::from_tv(Tv::One);
        let zero = Bv3::from_tv(Tv::Zero);

        if induction {
            // Assume the monitor in every frame but the last.
            for frame in 0..frames - 1 {
                requirements.push((
                    unrolling.net(frame, verification.property.monitor),
                    one.clone(),
                ));
            }
        } else {
            // Constrain the initial state to the declared reset values.
            for init in unrolling.initial_states() {
                if let Some(value) = &init.init {
                    requirements.push((init.net, Bv3::from_bv(value)));
                }
            }
        }
        // Environment constraints hold in every frame.
        for env in &verification.environment {
            for frame in 0..frames {
                requirements.push((unrolling.net(frame, *env), one.clone()));
            }
        }
        // The inverted assertion: require a violation (or the witness value)
        // in the last frame.
        let target = if violation { zero } else { one };
        requirements.push((
            unrolling.net(frames - 1, verification.property.monitor),
            target,
        ));

        let mut context = SearchContext::new(expanded);
        context.search_with_facts(
            expanded,
            &self.options,
            goal,
            &requirements,
            estg,
            facts,
            deadline,
            stats,
        )
    }

    /// Converts a satisfying assignment of the expanded circuit into a trace
    /// over the original design.
    fn extract_trace(
        &self,
        verification: &Verification,
        unrolling: &Unrolling,
        values: &[Bv],
    ) -> Trace {
        let netlist = &verification.netlist;
        let initial_state = unrolling
            .initial_states()
            .iter()
            .map(|init| {
                let q = netlist.gate(init.flip_flop).output;
                (q, values[init.net.index()].clone())
            })
            .collect();
        let inputs = (0..unrolling.frames())
            .map(|frame| {
                netlist
                    .inputs()
                    .iter()
                    .map(|pi| {
                        let expanded = unrolling.net(frame, *pi);
                        (*pi, values[expanded.index()].clone())
                    })
                    .collect()
            })
            .collect();
        Trace {
            initial_state,
            inputs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{monitor, Property};
    use wlac_netlist::Netlist;

    /// A 4-bit counter that wraps at `limit` (q < limit is an invariant when
    /// the wrap value is below the limit).
    fn bounded_counter(limit: u64, wrap_at: u64) -> (Netlist, NetId) {
        let mut nl = Netlist::new("bounded_counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let wrap = nl.constant(&Bv::from_u64(4, wrap_at));
        let at_wrap = nl.eq(q, wrap);
        let zero = nl.constant(&Bv::zero(4));
        let next = nl.mux(at_wrap, zero, plus);
        nl.connect_dff_data(ff, next);
        let limit_net = nl.constant(&Bv::from_u64(4, limit));
        let ok = nl.lt(q, limit_net);
        nl.mark_output("ok", ok);
        (nl, ok)
    }

    #[test]
    fn invariant_that_holds_is_proved() {
        // q wraps at 5, so q < 9 always holds (and is inductive: q <= 8
        // implies q' <= 8 because q' is either 0 or q+1 <= 9... the inductive
        // step actually needs q < 9 ⇒ q+1 < 9 or wrap; with wrap at 5 the
        // monitor q < 9 is not inductive on its own, so the checker falls
        // back to the bounded result).
        let (nl, ok) = bounded_counter(9, 5);
        let property = Property::always(&nl, "counter_below_9", ok);
        let verification = Verification::new(nl, property);
        let options = CheckerOptions {
            max_frames: 10,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&verification);
        assert!(report.result.is_pass(), "got {:?}", report.result);
        assert!(report.stats.cpu_seconds() >= 0.0);
    }

    #[test]
    fn invariant_violation_produces_validated_counterexample() {
        // q wraps at 12 but the assertion claims q < 5: fails after 5 cycles.
        let (nl, ok) = bounded_counter(5, 12);
        let property = Property::always(&nl, "counter_below_5", ok);
        let verification = Verification::new(nl, property);
        let options = CheckerOptions {
            max_frames: 10,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&verification);
        match report.result {
            CheckResult::CounterExample { trace } => {
                assert!(
                    trace.len() >= 5,
                    "needs at least 5 cycles, got {}",
                    trace.len()
                );
            }
            other => panic!("expected counter-example, got {other:?}"),
        }
    }

    #[test]
    fn inductive_invariant_is_proved_not_just_bounded() {
        // A register that only ever holds its own value ANDed with the input:
        // once zero, always zero. Monitor: q == 0. From the reset state this
        // is inductive.
        let mut nl = Netlist::new("sticky_zero");
        let d = nl.input("d", 4);
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let next = nl.and2(q, d);
        nl.connect_dff_data(ff, next);
        let zero = nl.constant(&Bv::zero(4));
        let ok = nl.eq(q, zero);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, "stays_zero", ok);
        let verification = Verification::new(nl, property);
        let report = AssertionChecker::with_defaults().check(&verification);
        assert_eq!(report.result, CheckResult::Proved);
    }

    #[test]
    fn saturating_counter_bound_is_proved_at_the_first_frame() {
        // The server tests' counter: q saturates at 10, and ok = q < 11 is
        // 1-inductive. The induction step is a comparator over a free
        // register, which only datapath bit decisions settle.
        let mut nl = Netlist::new("saturating_counter");
        let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
        let ten = nl.constant(&Bv::from_u64(8, 10));
        let at_ten = nl.eq(q, ten);
        let one = nl.constant(&Bv::from_u64(8, 1));
        let plus = nl.add(q, one);
        let next = nl.mux(at_ten, ten, plus);
        nl.connect_dff_data(ff, next);
        let eleven = nl.constant(&Bv::from_u64(8, 11));
        let ok = nl.lt(q, eleven);
        nl.mark_output("ok", ok);
        let property = Property::always(&nl, "ok", ok);
        let report = AssertionChecker::with_defaults().check(&Verification::new(nl, property));
        assert_eq!(report.result, CheckResult::Proved);
        assert_eq!(report.stats.frames_explored, 1);
        assert!(report.stats.datapath_splits > 0, "{}", report.stats);
    }

    #[test]
    fn search_limits_count_from_each_search() {
        // ok = !(xnor(a, b) & xor(a, b)) holds, but implication alone cannot
        // see it: every bound's search decides an input, conflicts and
        // backtracks. The check's total backtracks pass a limit that no
        // single search reaches, and the limit is per search, so the check
        // still reaches its bounded verdict.
        let mut nl = Netlist::new("xnor_and_xor");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let both = nl.and2(a, b);
        let (na, nb) = (nl.not(a), nl.not(b));
        let neither = nl.and2(na, nb);
        let same = nl.or2(both, neither);
        let differ = nl.xor2(a, b);
        let contradiction = nl.and2(same, differ);
        let ok = nl.not(contradiction);
        let property = Property::always(&nl, "ok", ok);
        let verification = Verification::new(nl, property);
        let options = |max_frames, backtrack_limit| CheckerOptions {
            max_frames,
            backtrack_limit,
            use_induction: false,
            ..CheckerOptions::default()
        };
        // Checks are deterministic, so bound k's search took the difference
        // of the totals of the k- and (k-1)-frame checks.
        let totals: Vec<u64> = (0..=6)
            .map(|frames| {
                let checker = AssertionChecker::new(options(frames, usize::MAX));
                checker.check(&verification).stats.backtracks
            })
            .collect();
        let per_search = totals.windows(2).map(|w| w[1] - w[0]).max().unwrap();
        assert!(totals[6] > per_search, "totals {totals:?}");
        let report = AssertionChecker::new(options(6, per_search as usize)).check(&verification);
        assert_eq!(report.result, CheckResult::HoldsUpToBound { frames: 6 });
        assert_eq!(report.stats.backtracks, totals[6]);
    }

    #[test]
    fn witness_generation() {
        // Find an execution in which the counter reaches 3.
        let (mut nl, _) = bounded_counter(9, 12);
        let q = {
            // The flip-flop output is the first (and only) flip-flop's output.
            let ff = nl.flip_flops()[0];
            nl.gate(ff).output
        };
        let reaches = monitor::reaches_value(&mut nl, q, &Bv::from_u64(4, 3));
        let property = Property::eventually(&nl, "reach_3", reaches);
        let verification = Verification::new(nl, property);
        let options = CheckerOptions {
            max_frames: 8,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&verification);
        match report.result {
            CheckResult::WitnessFound { trace } => assert_eq!(trace.len(), 4),
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn unreachable_value_has_no_witness() {
        // The counter wraps at 5, so it never reaches 9.
        let (mut nl, _) = bounded_counter(10, 5);
        let q = {
            let ff = nl.flip_flops()[0];
            nl.gate(ff).output
        };
        let reaches = monitor::reaches_value(&mut nl, q, &Bv::from_u64(4, 9));
        let property = Property::eventually(&nl, "reach_9", reaches);
        let verification = Verification::new(nl, property);
        let options = CheckerOptions {
            max_frames: 10,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&verification);
        assert_eq!(report.result, CheckResult::WitnessNotFound { frames: 10 });
    }

    #[test]
    fn environment_constraints_restrict_inputs() {
        // next_q = q + in; environment forces in == 0, so q stays 0 and the
        // assertion q == 0 holds; without the environment it would fail.
        let mut nl = Netlist::new("env");
        let input = nl.input("in", 4);
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let next = nl.add(q, input);
        nl.connect_dff_data(ff, next);
        let zero = nl.constant(&Bv::zero(4));
        let ok = nl.eq(q, zero);
        let zero2 = nl.constant(&Bv::zero(4));
        let input_is_zero = nl.eq(input, zero2);
        nl.mark_output("ok", ok);

        let property = Property::always(&nl, "q_zero", ok);
        let with_env =
            Verification::new(nl.clone(), property.clone()).with_environment(input_is_zero);
        let options = CheckerOptions {
            max_frames: 4,
            ..CheckerOptions::default()
        };
        let checker = AssertionChecker::new(options);
        assert!(checker.check(&with_env).result.is_pass());

        let without_env = Verification::new(nl, property);
        assert!(matches!(
            checker.check(&without_env).result,
            CheckResult::CounterExample { .. }
        ));
    }

    #[test]
    fn a_check_cancelled_before_its_first_bound_still_records_a_core_event() {
        use wlac_telemetry::{FlightRecorder, RecorderHandle, RecorderKind, RecorderLayer};
        let recorder = std::sync::Arc::new(FlightRecorder::new(64));
        let (nl, ok) = bounded_counter(9, 5);
        let property = Property::always(&nl, "cancelled", ok);
        let cancel = crate::CancelToken::new();
        cancel.cancel();
        let options = CheckerOptions::default()
            .with_cancel(cancel)
            .with_recorder(RecorderHandle::to(recorder.clone()).with_job(42));
        let report = AssertionChecker::new(options.clone()).check(&Verification::new(nl, property));
        assert!(matches!(report.result, CheckResult::Unknown { .. }));
        let events = recorder.snapshot();
        let core: Vec<_> = events
            .iter()
            .filter(|e| e.layer == RecorderLayer::Core && e.job == 42)
            .collect();
        assert_eq!(core.len(), 1, "{events:?}");
        assert_eq!(core[0].kind, RecorderKind::Bound);
        assert_eq!(core[0].payload, [0, options.max_frames as u64]);
    }
}
