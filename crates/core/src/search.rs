//! The branch-and-bound justification search (Fig. 2 of the paper).
//!
//! The search interleaves word-level implication, unjustified-gate detection,
//! decision-point selection on *control* signals, bias-ordered decision
//! making, chronological backtracking over the word-level value trail, and —
//! once the control constraints are satisfied — the modular arithmetic
//! datapath resolution of [`crate::datapath`].
//!
//! A datapath leaf the modular solver and the sampled completions leave
//! undecided (a comparator over a free register, say) is split rather than
//! given up: the search decides the most significant unknown bit of the
//! first unjustified gate's first input that still has one, 0 first, so the
//! comparator range rule and equality prune from the top. These *datapath
//! bit decisions* go on the ordinary decision stack and are undone by the
//! same trail and backtracking. Every unjustified gate has an unknown input
//! bit, so the search always ends satisfiable, unsatisfiable or at a limit.
//!
//! All search state lives in a reusable [`SearchContext`]: the assignment and
//! its delta trail, the levelized propagator, the dense justification
//! buffers, the cached datapath islands and the decision stack. The
//! conflict history ([`crate::Estg`]) is the caller's: the checker passes
//! one per check to every search of that check. At steady
//! state (after the first search on a netlist has warmed the buffers) a whole
//! decision/backtrack cycle — including an unsatisfiable search from seeding
//! to exhaustion — performs **zero heap allocations** on control-only
//! circuits with nets up to 128 bits; `crates/core/tests/alloc_free.rs`
//! enforces this with a counting allocator.

use crate::assignment::Assignment;
use crate::config::CheckerOptions;
use crate::datapath::{DatapathContext, DatapathOutcome};
use crate::estg::Estg;
use crate::implication::Propagator;
use crate::justify::{assignment_bias, JustifyBuffers};
use crate::stats::CheckStats;
use std::time::Instant;
use wlac_bv::{Bv, Bv3, Tv};
use wlac_netlist::{NetId, Netlist};
use wlac_telemetry::{RecorderKind, RecorderLayer, SpanId};

/// Maximum number of candidate decision points kept per justification round
/// (the paper selects a fanout-based subset when the cut is large).
const CANDIDATE_LIMIT: usize = 64;

/// Outcome of one justification run over an unrolled circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchOutcome {
    /// A concrete assignment (value per expanded net) satisfying every
    /// requirement.
    Sat(Vec<Bv>),
    /// No assignment satisfies the requirements.
    Unsat,
    /// The search was aborted (cancelled, or a time, backtrack or decision
    /// limit reached); no conclusion may be drawn. `unresolved datapath
    /// constraints` remains only as a defensive fallback for a leaf with
    /// nothing left to split.
    Inconclusive(&'static str),
}

/// The goal of the search, controlling the decision-value ordering
/// (Section 3.2: complement of the bias when proving, the bias itself when
/// hunting for a witness that likely exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchGoal {
    /// Proving an assertion: counter-examples are expected not to exist.
    Prove,
    /// Generating a witness expected to exist.
    Witness,
}

/// Wall-clock phase attribution for the search loop: every [`Self::tick`]
/// charges the time since the previous tick to one bucket of
/// [`crate::PhaseNanos`]. Construction with `enabled == false` yields a dead
/// clock — no monotonic-clock reads at all — so the untraced default path
/// keeps its exact cost and allocation profile.
struct PhaseClock {
    last: Option<Instant>,
}

impl PhaseClock {
    fn new(enabled: bool) -> Self {
        PhaseClock {
            last: enabled.then(Instant::now),
        }
    }

    #[inline]
    fn tick(&mut self, bucket: &mut u64) {
        if let Some(last) = self.last {
            let now = Instant::now();
            *bucket += now.duration_since(last).as_nanos() as u64;
            self.last = Some(now);
        }
    }
}

/// One pending decision on the search stack.
#[derive(Debug)]
struct Decision {
    net: NetId,
    /// The bit of `net` the decision sets: 0 for a control signal, the most
    /// significant unknown bit for a datapath bit decision.
    bit: usize,
    /// Value to try if the current branch fails (None once both tried).
    alternative: Option<bool>,
    /// Value currently assigned.
    current: bool,
    /// Trail mark taken *before* the current value was assigned.
    mark: usize,
}

/// Reusable state of the justification engine for one (already unrolled)
/// combinational circuit.
///
/// Create it once per netlist and call [`SearchContext::search`] as many
/// times as needed — every internal buffer (assignment trail, propagator
/// buckets, justification frontiers, datapath island cache, decision stack)
/// is retained across runs, which is what makes repeated steady-state
/// searches allocation-free.
///
/// # Examples
///
/// ```
/// use std::time::{Duration, Instant};
/// use wlac_atpg::{CheckStats, CheckerOptions, Estg, SearchContext, SearchGoal, SearchOutcome};
/// use wlac_netlist::Netlist;
///
/// // y = a & !a can never be 1.
/// let mut nl = Netlist::new("t");
/// let a = nl.input("a", 1);
/// let na = nl.not(a);
/// let y = nl.and2(a, na);
/// let requirements = vec![(y, "1'b1".parse().unwrap())];
///
/// let mut ctx = SearchContext::new(&nl);
/// let mut estg = Estg::new();
/// let mut stats = CheckStats::default();
/// let outcome = ctx.search(
///     &nl,
///     &CheckerOptions::default(),
///     SearchGoal::Prove,
///     &requirements,
///     &mut estg,
///     Instant::now() + Duration::from_secs(5),
///     &mut stats,
/// );
/// assert_eq!(outcome, SearchOutcome::Unsat);
/// ```
#[derive(Debug)]
pub struct SearchContext {
    asg: Assignment,
    propagator: Propagator,
    justify: JustifyBuffers,
    datapath: DatapathContext,
    stack: Vec<Decision>,
}

impl SearchContext {
    /// Creates a context sized for `netlist`. The context must only ever be
    /// used with this same netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let mut asg = Assignment::new(netlist);
        // Change events drive the incremental unjustified-gate worklist: the
        // per-decision scan touches only gates adjacent to nets that actually
        // changed since the last decision round.
        asg.enable_dirty_tracking();
        SearchContext {
            asg,
            propagator: Propagator::new(netlist),
            justify: JustifyBuffers::new(netlist),
            datapath: DatapathContext::new(netlist),
            stack: Vec::new(),
        }
    }

    /// Runs one justification search to completion (or until a limit is hit).
    ///
    /// `requirements` are the word-level value constraints to justify
    /// simultaneously; `estg` carries conflict history across searches of the
    /// same property (it is external so a checker can share it across
    /// unrolling bounds).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) when `netlist` is not the netlist this
    /// context was created for.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's engine inputs
    pub fn search(
        &mut self,
        netlist: &Netlist,
        options: &CheckerOptions,
        goal: SearchGoal,
        requirements: &[(NetId, Bv3)],
        estg: &mut Estg,
        deadline: Instant,
        stats: &mut CheckStats,
    ) -> SearchOutcome {
        // The span wraps the whole run; per-decision events nest under it.
        // Both are inert unless tracing is on, keeping the default path
        // byte-identical in behaviour and allocation profile.
        let span = if options.trace {
            options.trace_sink.span_start("search", SpanId::ROOT)
        } else {
            SpanId::ROOT
        };
        options.recorder.record(
            RecorderLayer::Core,
            RecorderKind::Start,
            requirements.len() as u64,
            0,
        );
        let outcome = self.run_search(
            netlist,
            options,
            goal,
            requirements,
            estg,
            deadline,
            stats,
            span,
        );
        if options.trace {
            options.trace_sink.span_end(span, "search");
        }
        options.recorder.record(
            RecorderLayer::Core,
            RecorderKind::End,
            stats.decisions,
            stats.backtracks,
        );
        // Final probe: even a search too short to cross the publication
        // throttle leaves its closing counters in the cell.
        options.progress.publish(
            stats.decisions,
            stats.conflicts,
            stats.backtracks,
            stats.implication.gate_evaluations,
            stats.phases.total(),
        );
        outcome
    }

    /// The search loop proper; `span` is the enclosing trace span (only used
    /// when `options.trace` is set).
    #[allow(clippy::too_many_arguments)]
    fn run_search(
        &mut self,
        netlist: &Netlist,
        options: &CheckerOptions,
        goal: SearchGoal,
        requirements: &[(NetId, Bv3)],
        estg: &mut Estg,
        deadline: Instant,
        stats: &mut CheckStats,
        span: SpanId,
    ) -> SearchOutcome {
        debug_assert_eq!(
            self.asg.len(),
            netlist.net_count(),
            "SearchContext reused with a different netlist"
        );
        // Reset reusable state through the delta trail (restores all-x).
        self.asg.backtrack_to(0);
        self.stack.clear();
        self.propagator.clear();
        let mut clock = PhaseClock::new(options.trace);

        // Initial assignments from the property, environment and initial
        // state, followed by a full implication pass.
        for (net, cube) in requirements {
            match self.asg.refine(*net, cube) {
                Ok(true) => self.propagator.enqueue_net(netlist, *net),
                Ok(false) => {}
                Err(_) => {
                    stats.conflicts += 1;
                    self.asg.backtrack_to(0);
                    return SearchOutcome::Unsat;
                }
            }
        }
        self.propagator.enqueue_all(netlist);
        let implication_ok = self
            .propagator
            .run(netlist, &mut self.asg, &mut stats.implication)
            .is_ok();
        clock.tick(&mut stats.phases.implication);
        // Account for the expanded netlist + assignment even when the run is
        // settled by this initial implication pass alone (e.g. an Unsat bound
        // never reaches the datapath handoff below).
        stats.peak_memory_bytes = stats
            .peak_memory_bytes
            .max(self.memory_estimate(netlist, estg));
        if !implication_ok {
            stats.conflicts += 1;
            self.asg.backtrack_to(0);
            return SearchOutcome::Unsat;
        }

        let mut inconclusive: Option<&'static str> = None;
        // Limits count this search's own effort: the stats accumulate across
        // every search of a check, and a spent induction attempt must not
        // starve the bounded search that follows it.
        let backtracks_at_entry = stats.backtracks;
        let decisions_at_entry = stats.decisions;

        // Throttle for live-progress publication: one seqlock write every
        // PROBE_INTERVAL loop iterations keeps the probed hot path within
        // measurement noise of the unprobed one (and a disabled handle pays
        // only the `is_enabled` branch below).
        const PROBE_INTERVAL: u64 = 256;
        let mut probe_tick: u64 = 0;

        loop {
            // Chaos hook: an injected hang blocks here — like a real engine
            // stuck in a pathological search that still honours its token —
            // until cancellation (typically a job-budget deadline) releases
            // it, then falls through to the cancellation check below.
            if options.faults.is_armed() {
                options
                    .faults
                    .hang_until(wlac_faultinject::FaultSite::EngineHang, || {
                        options.cancel.is_cancelled()
                    });
            }
            if options.cancel.is_cancelled() {
                return SearchOutcome::Inconclusive("cancelled");
            }
            if Instant::now() > deadline {
                return SearchOutcome::Inconclusive("time limit exceeded");
            }
            if stats.backtracks - backtracks_at_entry > options.backtrack_limit as u64 {
                return SearchOutcome::Inconclusive("backtrack limit exceeded");
            }
            if stats.decisions - decisions_at_entry > options.decision_limit as u64 {
                return SearchOutcome::Inconclusive("decision limit exceeded");
            }
            if options.progress.is_enabled() {
                probe_tick += 1;
                if probe_tick.is_multiple_of(PROBE_INTERVAL) {
                    options.progress.publish(
                        stats.decisions,
                        stats.conflicts,
                        stats.backtracks,
                        stats.implication.gate_evaluations,
                        stats.phases.total(),
                    );
                }
            }

            stats.justify_gates_rechecked +=
                self.justify.update_unjustified(netlist, &mut self.asg);
            let fully_justified = self.justify.unjustified.is_empty();
            if fully_justified {
                self.justify.candidates.clear();
            } else {
                self.justify
                    .compute_decision_cut(netlist, &self.asg, CANDIDATE_LIMIT);
            }
            clock.tick(&mut stats.phases.justification);

            let (net, bit, value) = if fully_justified || self.justify.candidates.is_empty() {
                // Control constraints satisfied (or only datapath obligations
                // remain): hand over to the arithmetic constraint solver.
                stats.peak_memory_bytes = stats
                    .peak_memory_bytes
                    .max(self.memory_estimate(netlist, estg));
                let outcome = self.datapath.resolve(
                    netlist,
                    &mut self.asg,
                    &mut self.propagator,
                    &self.justify.unjustified,
                    requirements,
                    options,
                    stats,
                );
                // A consistent resolution is the satisfiable leaf (model
                // concretization + validation); anything else is ordinary
                // datapath constraint solving.
                match &outcome {
                    DatapathOutcome::Consistent(_) => clock.tick(&mut stats.phases.sat_leaf),
                    _ => clock.tick(&mut stats.phases.datapath),
                }
                let split = match outcome {
                    DatapathOutcome::Consistent(values) => {
                        if options.trace {
                            options.trace_sink.event("sat_leaf", span, stats.decisions);
                        }
                        return SearchOutcome::Sat(values);
                    }
                    DatapathOutcome::Infeasible => {
                        stats.conflicts += 1;
                        if options.trace {
                            options
                                .trace_sink
                                .event("datapath_infeasible", span, stats.decisions);
                        }
                        None
                    }
                    DatapathOutcome::Inconclusive => {
                        let split = self.datapath_split(netlist);
                        if split.is_none() {
                            inconclusive.get_or_insert("unresolved datapath constraints");
                        }
                        split
                    }
                };
                match split {
                    Some((net, bit)) => {
                        stats.datapath_splits += 1;
                        (net, bit, false)
                    }
                    None => {
                        let exhausted = !self.backtrack(netlist, estg, stats);
                        clock.tick(&mut stats.phases.backtrack);
                        if options.trace {
                            options
                                .trace_sink
                                .event("backtrack", span, self.stack.len() as u64);
                        }
                        if exhausted {
                            return match inconclusive {
                                Some(reason) => SearchOutcome::Inconclusive(reason),
                                None => SearchOutcome::Unsat,
                            };
                        }
                        continue;
                    }
                }
            } else {
                // Pick the decision with the strongest bias (Definition 2).
                let (net, value) = self.pick_decision(netlist, options, goal, estg);
                (net, 0, value)
            };
            stats.decisions += 1;
            clock.tick(&mut stats.phases.decision);
            if options.trace {
                options
                    .trace_sink
                    .event("decision", span, net.index() as u64);
            }
            let mark = self.asg.mark();
            if self.assign(netlist, net, bit, value, stats) {
                clock.tick(&mut stats.phases.implication);
                self.stack.push(Decision {
                    net,
                    bit,
                    alternative: Some(!value),
                    current: value,
                    mark,
                });
            } else {
                clock.tick(&mut stats.phases.implication);
                // Immediate conflict: try the opposite value at this level.
                record_conflict(estg, netlist, net, value);
                self.asg.backtrack_to(mark);
                stats.conflicts += 1;
                stats.backtracks += 1;
                if options.trace {
                    options
                        .trace_sink
                        .event("conflict", span, net.index() as u64);
                }
                if self.assign(netlist, net, bit, !value, stats) {
                    clock.tick(&mut stats.phases.implication);
                    self.stack.push(Decision {
                        net,
                        bit,
                        alternative: None,
                        current: !value,
                        mark,
                    });
                } else {
                    clock.tick(&mut stats.phases.implication);
                    record_conflict(estg, netlist, net, !value);
                    self.asg.backtrack_to(mark);
                    stats.conflicts += 1;
                    let exhausted = !self.backtrack(netlist, estg, stats);
                    clock.tick(&mut stats.phases.backtrack);
                    if options.trace {
                        options
                            .trace_sink
                            .event("backtrack", span, self.stack.len() as u64);
                    }
                    if exhausted {
                        return match inconclusive {
                            Some(reason) => SearchOutcome::Inconclusive(reason),
                            None => SearchOutcome::Unsat,
                        };
                    }
                }
            }
        }
    }

    /// Sets bit `bit` of `net` to `value` and runs implication; returns
    /// `false` on conflict (the assignment is *not* rolled back by this
    /// function).
    ///
    /// The one-bit cube is inline for nets up to 128 bits, and the
    /// propagator is part of the context so its buckets and scratch buffers
    /// stay warm across decisions.
    fn assign(
        &mut self,
        netlist: &Netlist,
        net: NetId,
        bit: usize,
        value: bool,
        stats: &mut CheckStats,
    ) -> bool {
        let mut cube = Bv3::all_x(netlist.net_width(net));
        cube.set_bit(bit, Tv::from_bool(value));
        match self.asg.refine(net, &cube) {
            Ok(_) => self.propagator.enqueue_net(netlist, net),
            Err(_) => return false,
        }
        self.propagator
            .run(netlist, &mut self.asg, &mut stats.implication)
            .is_ok()
    }

    /// Chronological backtracking: undo decisions until one still has an
    /// untried alternative that survives implication.
    fn backtrack(&mut self, netlist: &Netlist, estg: &mut Estg, stats: &mut CheckStats) -> bool {
        loop {
            let Some(mut top) = self.stack.pop() else {
                return false;
            };
            record_conflict(estg, netlist, top.net, top.current);
            self.asg.backtrack_to(top.mark);
            stats.backtracks += 1;
            if let Some(alt) = top.alternative.take() {
                if self.assign(netlist, top.net, top.bit, alt, stats) {
                    self.stack.push(Decision {
                        alternative: None,
                        current: alt,
                        ..top
                    });
                    return true;
                }
                record_conflict(estg, netlist, top.net, alt);
                self.asg.backtrack_to(top.mark);
                stats.conflicts += 1;
            }
        }
    }

    /// The datapath bit decision for a leaf the datapath solver could not
    /// decide: the most significant unknown bit of the first input of the
    /// first unjustified gate that still has one. `None` only when no gate
    /// is unjustified.
    fn datapath_split(&self, netlist: &Netlist) -> Option<(NetId, usize)> {
        let gate = netlist.gate(*self.justify.unjustified.first()?);
        gate.inputs
            .iter()
            .find_map(|net| msb_unknown(self.asg.value(*net)).map(|bit| (*net, bit)))
    }

    /// Picks the next decision (net, value) among the candidates of the
    /// latest cut.
    fn pick_decision(
        &mut self,
        netlist: &Netlist,
        options: &CheckerOptions,
        goal: SearchGoal,
        estg: &Estg,
    ) -> (NetId, bool) {
        if !options.use_bias_ordering {
            let net = self.justify.candidates[0];
            return (net, false);
        }
        self.justify.compute_probabilities(netlist, &self.asg);
        let mut best: Option<(f64, NetId, bool)> = None;
        for net in &self.justify.candidates {
            let p1 = self.justify.probability(*net).unwrap_or(0.5);
            let (mut bias, bias_value) = assignment_bias(p1);
            if options.use_estg {
                // Prefer assignments with fewer recorded conflicts.
                bias -= estg.penalty(*net, bias_value).min(bias * 0.5);
            }
            if best.map(|(b, _, _)| bias > b).unwrap_or(true) {
                best = Some((bias, *net, bias_value));
            }
        }
        let (_, net, bias_value) = best.expect("non-empty candidate list");
        let value = match goal {
            // Proving: take the complement of the bias value first so that
            // conflicts (and thus pruning) happen early.
            SearchGoal::Prove => !bias_value,
            SearchGoal::Witness => bias_value,
        };
        (net, value)
    }

    /// Approximate live memory of the search data structures: the expanded
    /// netlist, the assignment with its delta trail, the ESTG, the
    /// justification buffers, the cached datapath islands and the
    /// propagator's worklist/scratch. Every component the search keeps live
    /// is counted — the paper's Table 2 memory column must not silently
    /// exclude the solver-side state.
    fn memory_estimate(&self, netlist: &Netlist, estg: &Estg) -> usize {
        let netlist_bytes = netlist.gate_count() * 96 + netlist.net_count() * 48;
        self.asg.peak_memory_bytes()
            + netlist_bytes
            + estg.memory_bytes()
            + self.justify.memory_bytes()
            + self.datapath.memory_bytes()
            + self.propagator.memory_bytes()
    }
}

/// Books a refuted decision in the ESTG. Only decisions on single-bit nets
/// are recorded: an entry `(net, value)` means the whole net took `value`,
/// which one bit of a wider word does not.
fn record_conflict(estg: &mut Estg, netlist: &Netlist, net: NetId, value: bool) {
    if netlist.net_width(net) == 1 {
        estg.record_conflict(net, value);
    }
}

/// Index of the most significant unknown bit of `cube`, if any.
fn msb_unknown(cube: &Bv3) -> Option<usize> {
    (0..cube.word_count()).rev().find_map(|w| {
        let valid_bits = (cube.width() - 64 * w).min(64);
        let unknown = !cube.word(w).0 & (u64::MAX >> (64 - valid_bits));
        (unknown != 0).then(|| 64 * w + 63 - unknown.leading_zeros() as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    fn run(netlist: &Netlist, requirements: Vec<(NetId, Bv3)>, goal: SearchGoal) -> SearchOutcome {
        let options = CheckerOptions::default();
        let mut estg = Estg::new();
        let mut stats = CheckStats::default();
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut ctx = SearchContext::new(netlist);
        ctx.search(
            netlist,
            &options,
            goal,
            &requirements,
            &mut estg,
            deadline,
            &mut stats,
        )
    }

    #[test]
    fn satisfiable_control_requirement() {
        // (a & b) | c must be 1: plenty of solutions.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let c = nl.input("c", 1);
        let ab = nl.and2(a, b);
        let y = nl.or2(ab, c);
        match run(&nl, vec![(y, cube("1'b1"))], SearchGoal::Witness) {
            SearchOutcome::Sat(values) => {
                let ab_v =
                    values[a.index()].to_u64().unwrap() & values[b.index()].to_u64().unwrap();
                let y_v = ab_v | values[c.index()].to_u64().unwrap();
                assert_eq!(y_v, 1);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn unsatisfiable_requirement_is_proved() {
        // y = a & !a can never be 1.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let na = nl.not(a);
        let y = nl.and2(a, na);
        assert_eq!(
            run(&nl, vec![(y, cube("1'b1"))], SearchGoal::Prove),
            SearchOutcome::Unsat
        );
    }

    #[test]
    fn comparator_controlled_mux() {
        // out = (d1 > d2) ? d1 : d2 ; require out = 0 and d1 = 5 ⇒ impossible
        // because the max of two values with d1 = 5 is at least 5.
        let mut nl = Netlist::new("t");
        let d1 = nl.input("d1", 4);
        let d2 = nl.input("d2", 4);
        let gt = nl.gt(d1, d2);
        let out = nl.mux(gt, d1, d2);
        let reqs = vec![(out, cube("4'b0000")), (d1, cube("4'b0101"))];
        assert_eq!(run(&nl, reqs, SearchGoal::Prove), SearchOutcome::Unsat);
    }

    #[test]
    fn comparator_controlled_mux_sat_case() {
        // Same circuit, require out = 7: satisfiable (e.g. d1 = 7 > d2).
        let mut nl = Netlist::new("t");
        let d1 = nl.input("d1", 4);
        let d2 = nl.input("d2", 4);
        let gt = nl.gt(d1, d2);
        let out = nl.mux(gt, d1, d2);
        match run(&nl, vec![(out, cube("4'b0111"))], SearchGoal::Witness) {
            SearchOutcome::Sat(values) => {
                let d1v = values[d1.index()].to_u64().unwrap();
                let d2v = values[d2.index()].to_u64().unwrap();
                let expect = if d1v > d2v { d1v } else { d2v };
                assert_eq!(expect, 7);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn datapath_requirement_through_adder() {
        // sel ? (a + b) : 0 must equal 9: forces sel = 1 and a + b = 9.
        let mut nl = Netlist::new("t");
        let sel = nl.input("sel", 1);
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let sum = nl.add(a, b);
        let zero = nl.constant(&Bv::zero(4));
        let out = nl.mux(sel, sum, zero);
        match run(&nl, vec![(out, cube("4'b1001"))], SearchGoal::Witness) {
            SearchOutcome::Sat(values) => {
                assert_eq!(values[sel.index()].to_u64(), Some(1));
                let av = values[a.index()].to_u64().unwrap();
                let bv = values[b.index()].to_u64().unwrap();
                assert_eq!((av + bv) % 16, 9);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn doubled_adder_parity_unsat() {
        // out = a + a forced odd is unsatisfiable; detected by the modular
        // arithmetic solver rather than by Boolean search.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let out = nl.add(a, a);
        assert_eq!(
            run(&nl, vec![(out, cube("4'b0111"))], SearchGoal::Prove),
            SearchOutcome::Unsat
        );
    }

    /// The induction step of the invariant `s < 4` on a 3-bit sequencer
    /// that counts up and wraps to 0 after `last`: `s < 4` at frame 0 and
    /// `s' >= 4` at frame 1, with `s' = (s == last) ? 0 : s + 1`. Returns the
    /// circuit, `s`, `s'` and the requirements.
    fn sequencer_step(last: u64) -> (Netlist, NetId, NetId, Vec<(NetId, Bv3)>) {
        let mut nl = Netlist::new("sequencer_step");
        let s = nl.input("s", 3);
        let last = nl.constant(&Bv::from_u64(3, last));
        let at_last = nl.eq(s, last);
        let one = nl.constant(&Bv::from_u64(3, 1));
        let plus = nl.add(s, one);
        let zero = nl.constant(&Bv::zero(3));
        let next = nl.mux(at_last, zero, plus);
        let four = nl.constant(&Bv::from_u64(3, 4));
        let holds = nl.lt(s, four);
        let escapes = nl.ge(next, four);
        let requirements = vec![(holds, cube("1'b1")), (escapes, cube("1'b1"))];
        (nl, s, next, requirements)
    }

    #[test]
    fn inductive_state_invariant_is_refuted_by_datapath_bit_decisions() {
        // No control signal is left to decide once s = 0xx and s' = 1xx are
        // implied, and the adder island's solution contradicts s' = 1xx: the
        // leaf must split bits of s rather than give up.
        let (nl, _, _, requirements) = sequencer_step(3);
        let mut ctx = SearchContext::new(&nl);
        let mut stats = CheckStats::default();
        let outcome = ctx.search(
            &nl,
            &CheckerOptions::default(),
            SearchGoal::Prove,
            &requirements,
            &mut Estg::new(),
            Instant::now() + Duration::from_secs(30),
            &mut stats,
        );
        assert_eq!(outcome, SearchOutcome::Unsat);
        assert!(stats.datapath_splits > 0, "{stats}");
        assert!(stats.datapath_splits <= stats.decisions);
    }

    #[test]
    fn broken_state_invariant_yields_a_model_through_datapath_bit_decisions() {
        // Wrapping after 4 instead of 3 lets s = 3 step to s' = 4.
        let (nl, s, next, requirements) = sequencer_step(4);
        match run(&nl, requirements.clone(), SearchGoal::Prove) {
            SearchOutcome::Sat(values) => {
                for (net, cube) in &requirements {
                    assert!(cube.matches(&values[net.index()]), "{net}");
                }
                let s = values[s.index()].to_u64().unwrap();
                let next = values[next.index()].to_u64().unwrap();
                assert_eq!(next, if s == 4 { 0 } else { (s + 1) % 8 });
                assert!(s < 4 && next >= 4, "s = {s}, s' = {next}");
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn most_significant_unknown_bit() {
        assert_eq!(msb_unknown(&cube("4'b10x1")), Some(1));
        assert_eq!(msb_unknown(&cube("4'bx000")), Some(3));
        assert_eq!(msb_unknown(&cube("4'b1010")), None);
        let mut wide = Bv3::from_bv(&Bv::zero(130));
        wide.set_bit(3, Tv::X);
        assert_eq!(msb_unknown(&wide), Some(3));
        wide.set_bit(129, Tv::X);
        assert_eq!(msb_unknown(&wide), Some(129));
        assert_eq!(msb_unknown(&Bv3::all_x(64)), Some(63));
    }

    #[test]
    fn conflicting_requirements_unsat_immediately() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let y = nl.buf(a);
        let reqs = vec![(y, cube("1'b1")), (a, cube("1'b0"))];
        assert_eq!(run(&nl, reqs, SearchGoal::Prove), SearchOutcome::Unsat);
    }

    #[test]
    fn context_reuse_across_searches_is_consistent() {
        // The same context must answer a SAT, an UNSAT and again the SAT
        // query identically when reused (buffers fully isolated per run).
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let y = nl.and2(a, b);
        let na = nl.not(a);
        let z = nl.and2(a, na);
        let mut ctx = SearchContext::new(&nl);
        let options = CheckerOptions::default();
        let mut estg = Estg::new();
        let deadline = Instant::now() + Duration::from_secs(30);
        let sat_req = vec![(y, cube("1'b1"))];
        let unsat_req = vec![(z, cube("1'b1"))];
        for round in 0..3 {
            let mut stats = CheckStats::default();
            let outcome = ctx.search(
                &nl,
                &options,
                SearchGoal::Witness,
                &sat_req,
                &mut estg,
                deadline,
                &mut stats,
            );
            assert!(
                matches!(outcome, SearchOutcome::Sat(_)),
                "round {round}: {outcome:?}"
            );
            let mut stats = CheckStats::default();
            let outcome = ctx.search(
                &nl,
                &options,
                SearchGoal::Prove,
                &unsat_req,
                &mut estg,
                deadline,
                &mut stats,
            );
            assert_eq!(outcome, SearchOutcome::Unsat, "round {round}");
        }
    }
}
