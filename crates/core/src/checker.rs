//! The assertion checking framework (Fig. 1 of the paper).
//!
//! [`AssertionChecker::check`] runs the bounded problem of
//! [`crate::bounded`]: the sequential design is expanded over time-frames,
//! the assertion is inverted into a counter-example-generation problem, and
//! the checker's solve step seeds each query's value requirements into the
//! combined ATPG + modular-arithmetic search of [`crate::search`], which
//! either produces a counter-example/witness trace or proves that none exists
//! within the bound. The loop's one-step induction check (an extension over
//! the paper) can upgrade a bounded result into a full proof.
//!
//! `check` is the one ATPG entry point of the workspace: the Table 2
//! harness, the proof audit, the portfolio's ATPG engine and the server all
//! run it.

use crate::bounded::{check_bounds, Query, QueryAnswer};
use crate::config::CheckerOptions;
use crate::estg::Estg;
use crate::property::{PropertyKind, Verification};
use crate::search::{SearchContext, SearchGoal, SearchOutcome};
use crate::stats::CheckStats;
use crate::verdict::Verdict;
use std::time::Instant;
use wlac_bv::Bv3;
use wlac_netlist::NetId;

/// Result plus effort statistics for one property check.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Property name (e.g. `p7`).
    pub property: String,
    /// Outcome of the check. Traces are validated by replay; a full proof is
    /// `Holds { proved: true, frames: 1 }`, the frame its induction closed at.
    pub result: Verdict,
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
    /// The check owns its ESTG: the conflict history its searches record
    /// orders the decisions of its later bounds and of its induction step,
    /// and nothing of it outlives the check. So a property's search does not
    /// depend on which properties were checked before it.
    pub fn check(&self, verification: &Verification) -> CheckReport {
        let start = Instant::now();
        let deadline = start + self.options.time_limit;
        let mut stats = CheckStats::default();
        let mut estg = Estg::new();
        // Check entry, recorded before any cancel check: bound 0 of
        // `max_frames`, nothing unrolled yet. So even a check cancelled
        // before its first bound leaves a core event for its job.
        self.options.recorder.record(
            wlac_telemetry::RecorderLayer::Core,
            wlac_telemetry::RecorderKind::Bound,
            0,
            self.options.max_frames as u64,
        );
        let options = &self.options;
        let result = check_bounds(
            verification,
            options.max_frames,
            options.use_induction,
            &options.cancel,
            |query| self.solve(query, &mut estg, deadline, &mut stats),
        );
        stats.elapsed = start.elapsed();
        if options.trace {
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

    /// ATPG's solve step for one query of the shared bound loop: seeds the
    /// query's requirements as word-level cubes and runs the justification
    /// search over the expanded circuit. A base query also reports its bound
    /// (trace event, recorder event, progress) before searching.
    fn solve(
        &self,
        query: &Query<'_>,
        estg: &mut Estg,
        deadline: Instant,
        stats: &mut CheckStats,
    ) -> QueryAnswer {
        let options = &self.options;
        if !query.step {
            stats.frames_explored = query.frames;
            let frames = query.frames as u64;
            if options.trace {
                options
                    .trace_sink
                    .event("bound", wlac_telemetry::SpanId::ROOT, frames);
            }
            options.recorder.record(
                wlac_telemetry::RecorderLayer::Core,
                wlac_telemetry::RecorderKind::Bound,
                frames,
                options.max_frames as u64,
            );
            options.progress.advance_bound(frames);
        }
        let requirements: Vec<(NetId, Bv3)> = query
            .requirements()
            .map(|(net, value)| (net, Bv3::from_bv(value)))
            .collect();
        // Proving an assertion (or its induction step) expects no
        // counter-example; a witness is expected to exist.
        let goal = if query.step || query.verification.property.kind == PropertyKind::Always {
            SearchGoal::Prove
        } else {
            SearchGoal::Witness
        };
        let expanded = query.unrolling.circuit();
        let outcome = SearchContext::new(expanded).search(
            expanded,
            options,
            goal,
            &requirements,
            estg,
            deadline,
            stats,
        );
        match outcome {
            SearchOutcome::Sat(values) => {
                QueryAnswer::Trace(query.trace(|net| values[net.index()].clone()))
            }
            SearchOutcome::Unsat => QueryAnswer::Unsat,
            SearchOutcome::Inconclusive(reason) => QueryAnswer::Inconclusive(reason),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::{monitor, Property};
    use wlac_bv::Bv;
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
            Verdict::Violated { trace } => {
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
        assert_eq!(
            report.result,
            Verdict::Holds {
                proved: true,
                frames: 1
            }
        );
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
        assert_eq!(
            report.result,
            Verdict::Holds {
                proved: true,
                frames: 1
            }
        );
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
        assert_eq!(
            report.result,
            Verdict::Holds {
                proved: false,
                frames: 6
            }
        );
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
            Verdict::WitnessFound { trace } => assert_eq!(trace.len(), 4),
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
        assert_eq!(report.result, Verdict::WitnessAbsent { frames: 10 });
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
            Verdict::Violated { .. }
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
        assert!(matches!(report.result, Verdict::Unknown { .. }));
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
