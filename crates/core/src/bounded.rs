//! The bounded problem, stated once (the flow of Fig. 1 of the paper).
//!
//! The design is expanded over time-frames, the assertion is inverted into
//! value requirements, and an engine searches the expanded circuit for an
//! assignment meeting them. Everything but that search lives here:
//!
//! * [`check_bounds`] is the bound loop: it deepens one [`Unrolling`] a frame
//!   at a time, polls the cancel token, closes the one-step induction after
//!   frame 1 of an `Always` property, and ends in [`Verdict::exhausted`];
//! * a [`Query`] holds one query's requirement list
//!   ([`Query::requirements`]) and its trace extractor ([`Query::trace`]);
//! * [`validated_verdict`] is the trace validator every engine's trace
//!   passes before it becomes a verdict.
//!
//! The word-level ATPG checker and the SAT BMC baseline each supply only a
//! solve step, so they answer the same queries: both close the same
//! induction step, and a trace from either is replayed the same way.

use crate::config::CancelToken;
use crate::property::{PropertyKind, Verification};
use crate::trace::Trace;
use crate::verdict::Verdict;
use wlac_bv::Bv;
use wlac_netlist::{InitialState, NetId, Unrolling};

/// One query of the bounded problem, handed to an engine's solve step.
///
/// A base query asks for a counter-example (`Always`) or a witness
/// (`Eventually`) over exactly `frames` time-frames from the initial state.
/// The induction step asks whether any state satisfying the monitor has a
/// successor violating it.
#[derive(Debug)]
pub struct Query<'a> {
    /// The problem being checked.
    pub(crate) verification: &'a Verification,
    /// The expansion of the design, exactly `frames` time-frames deep.
    pub unrolling: &'a Unrolling,
    /// Time-frames the query spans.
    pub frames: usize,
    /// `true` for the one-step induction query: no initial state, the
    /// monitor assumed in every frame but the last.
    pub(crate) step: bool,
    one: Bv,
    zero: Bv,
}

impl<'a> Query<'a> {
    fn new(verification: &'a Verification, unrolling: &'a Unrolling, frames: usize) -> Self {
        debug_assert_eq!(unrolling.frames(), frames, "bound/unrolling mismatch");
        Query {
            verification,
            unrolling,
            frames,
            step: false,
            one: Bv::from_u64(1, 1),
            zero: Bv::zero(1),
        }
    }

    /// The value requirements on nets of the expanded circuit, in seeding
    /// order:
    ///
    /// 1. base query: every initial state with a reset value; induction
    ///    step: the monitor = 1 in every frame but the last;
    /// 2. every environment net = 1 in every frame;
    /// 3. the monitor in the last frame: 0 for `Always` and for the step (a
    ///    counter-example), 1 for `Eventually` (a witness).
    pub fn requirements(&self) -> impl Iterator<Item = (NetId, &Bv)> + '_ {
        let (unrolling, frames) = (self.unrolling, self.frames);
        let monitor = self.verification.property.monitor;
        let one = &self.one;
        let (initial, assumed): (&[InitialState], usize) = if self.step {
            (&[], frames - 1)
        } else {
            (unrolling.initial_states(), 0)
        };
        let target = if self.step || self.verification.property.kind == PropertyKind::Always {
            &self.zero
        } else {
            one
        };
        initial
            .iter()
            .filter_map(|init| Some((init.net, init.init.as_ref()?)))
            .chain((0..assumed).map(move |frame| (unrolling.net(frame, monitor), one)))
            .chain(self.verification.environment.iter().flat_map(move |env| {
                (0..frames).map(move |frame| (unrolling.net(frame, *env), one))
            }))
            .chain(std::iter::once((
                unrolling.net(frames - 1, monitor),
                target,
            )))
    }

    /// The trace over the original design that a satisfying assignment
    /// describes: the frame-0 flip-flop outputs and every frame's primary
    /// inputs, read through `value` (the assignment's value of a net of the
    /// expanded circuit).
    pub fn trace(&self, value: impl Fn(NetId) -> Bv) -> Trace {
        let netlist = &self.verification.netlist;
        let initial_state = self
            .unrolling
            .initial_states()
            .iter()
            .map(|init| (netlist.gate(init.flip_flop).output, value(init.net)))
            .collect();
        let inputs = (0..self.frames)
            .map(|frame| {
                netlist
                    .inputs()
                    .iter()
                    .map(|pi| (*pi, value(self.unrolling.net(frame, *pi))))
                    .collect()
            })
            .collect();
        Trace {
            initial_state,
            inputs,
        }
    }
}

/// What a solve step found for one [`Query`].
#[derive(Debug, PartialEq, Eq)]
pub enum QueryAnswer {
    /// An assignment meeting every requirement, as a trace
    /// ([`Query::trace`]).
    Trace(Trace),
    /// No assignment meets the requirements.
    Unsat,
    /// The solve step gave up (cancelled, a limit reached, an unsupported
    /// construct); no conclusion may be drawn.
    Inconclusive(&'static str),
}

/// The bound loop every engine runs.
///
/// Deepens one unrolling of `verification`'s design a frame at a time up to
/// `max_frames`, polling `cancel` before each bound, and hands `solve` the
/// base query of each bound. The first trace ends the loop as a verdict once
/// [`validated_verdict`] has replayed it; an inconclusive query ends it as
/// [`Verdict::Unknown`]. With `induction`, an `Always` property whose first
/// frame holds also gets the induction step: an unsatisfiable step proves the
/// property outright (`Holds { proved: true, frames: 1 }`), anything else
/// falls through to the bounded search.
pub fn check_bounds(
    verification: &Verification,
    max_frames: usize,
    induction: bool,
    cancel: &CancelToken,
    mut solve: impl FnMut(&Query<'_>) -> QueryAnswer,
) -> Verdict {
    let netlist = &verification.netlist;
    let kind = verification.property.kind;
    // One unrolling grows monotonically across bounds: deepening by one
    // frame appends to the expanded circuit instead of rebuilding it.
    let mut unrolling = Unrolling::new(netlist, 1);
    for frames in 1..=max_frames {
        if cancel.is_cancelled() {
            return Verdict::Unknown {
                reason: "cancelled".into(),
            };
        }
        unrolling.extend_to(netlist, frames);
        match solve(&Query::new(verification, &unrolling, frames)) {
            QueryAnswer::Trace(trace) => return validated_verdict(verification, trace),
            QueryAnswer::Unsat => {}
            QueryAnswer::Inconclusive(reason) => {
                return Verdict::Unknown {
                    reason: reason.into(),
                }
            }
        }
        if induction && frames == 1 && kind == PropertyKind::Always {
            unrolling.extend_to(netlist, 2);
            let step = Query {
                step: true,
                ..Query::new(verification, &unrolling, 2)
            };
            if solve(&step) == QueryAnswer::Unsat {
                return Verdict::Holds {
                    proved: true,
                    frames,
                };
            }
        }
    }
    Verdict::exhausted(kind, max_frames)
}

/// The trace validator: replays `trace` on the design in one simulation and
/// returns the verdict it backs — a counter-example for `Always`, a witness
/// for `Eventually` — when every environment net holds in every cycle and the
/// monitor has the claimed value in the last cycle. Any other trace, or one
/// that does not simulate, is [`Verdict::Unknown`]: an engine bug can demote
/// a result, never smuggle in a bogus trace.
pub fn validated_verdict(verification: &Verification, trace: Trace) -> Verdict {
    let kind = verification.property.kind;
    let found = match kind {
        PropertyKind::Always => "counter-example",
        PropertyKind::Eventually => "witness",
    };
    let run = match trace.simulate(&verification.netlist) {
        Ok(run) => run,
        Err(e) => {
            return Verdict::Unknown {
                reason: format!("{found} replay error: {e}"),
            }
        }
    };
    let high = |cycle, net| !run.value(cycle, net).is_zero();
    let cycles = trace.len();
    if !(0..cycles).all(|cycle| verification.environment.iter().all(|env| high(cycle, *env))) {
        return Verdict::Unknown {
            reason: format!("{found} violates an environment constraint"),
        };
    }
    let last = cycles
        .checked_sub(1)
        .map(|cycle| high(cycle, verification.property.monitor));
    if last != Some(kind == PropertyKind::Eventually) {
        return Verdict::Unknown {
            reason: format!("{found} failed replay validation"),
        };
    }
    Verdict::with_trace(kind, trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::property::Property;
    use wlac_netlist::Netlist;

    /// q' = q + in from reset 0 under the environment in < 2, asserting
    /// q != 3.
    fn accumulator() -> Verification {
        let mut nl = Netlist::new("acc");
        let input = nl.input("in", 4);
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let next = nl.add(q, input);
        nl.connect_dff_data(ff, next);
        let three = nl.constant(&Bv::from_u64(4, 3));
        let ok = nl.ne(q, three);
        let two = nl.constant(&Bv::from_u64(4, 2));
        let small = nl.lt(input, two);
        let property = Property::always(&nl, "never_3", ok);
        Verification::new(nl, property).with_environment(small)
    }

    fn accumulator_trace(verification: &Verification, inputs: &[u64]) -> Trace {
        let input = verification.netlist.inputs()[0];
        Trace {
            initial_state: Vec::new(),
            inputs: inputs
                .iter()
                .map(|v| vec![(input, Bv::from_u64(4, *v))])
                .collect(),
        }
    }

    #[test]
    fn requirements_follow_the_seeding_order() {
        let verification = accumulator();
        let unrolling = Unrolling::new(&verification.netlist, 2);
        let (monitor, env) = (verification.property.monitor, verification.environment[0]);
        let net = |frame, net| unrolling.net(frame, net);
        let seeded = |query: &Query<'_>| -> Vec<(NetId, u64)> {
            query
                .requirements()
                .map(|(n, v)| (n, v.to_u64().unwrap()))
                .collect()
        };

        let base = Query::new(&verification, &unrolling, 2);
        let reset = unrolling.initial_states()[0].net;
        assert_eq!(
            seeded(&base),
            [
                (reset, 0),
                (net(0, env), 1),
                (net(1, env), 1),
                (net(1, monitor), 0)
            ]
        );
        let step = Query {
            step: true,
            ..Query::new(&verification, &unrolling, 2)
        };
        assert_eq!(
            seeded(&step),
            [
                (net(0, monitor), 1),
                (net(0, env), 1),
                (net(1, env), 1),
                (net(1, monitor), 0)
            ]
        );
    }

    #[test]
    fn the_validator_replays_the_monitor_and_the_environment() {
        let verification = accumulator();
        // 0, 1, 2, 3: the monitor fails in the last cycle.
        let hit = accumulator_trace(&verification, &[1, 1, 1, 0]);
        assert!(matches!(
            validated_verdict(&verification, hit),
            Verdict::Violated { .. }
        ));
        // 0, 1: no violation yet.
        let short = accumulator_trace(&verification, &[1, 1]);
        assert_eq!(
            validated_verdict(&verification, short),
            Verdict::Unknown {
                reason: "counter-example failed replay validation".into()
            }
        );
        // 0, 3: reaches the violation only by driving in = 3.
        let cheat = accumulator_trace(&verification, &[3, 0]);
        assert_eq!(
            validated_verdict(&verification, cheat),
            Verdict::Unknown {
                reason: "counter-example violates an environment constraint".into()
            }
        );
        let empty = accumulator_trace(&verification, &[]);
        assert!(!validated_verdict(&verification, empty).is_definitive());
    }

    #[test]
    fn an_unsatisfiable_step_proves_and_any_other_falls_through() {
        let verification = accumulator();
        let mut queries = Vec::new();
        let verdict = check_bounds(&verification, 3, true, &CancelToken::new(), |query| {
            queries.push((query.frames, query.step));
            QueryAnswer::Unsat
        });
        assert_eq!(
            verdict,
            Verdict::Holds {
                proved: true,
                frames: 1
            }
        );
        assert_eq!(queries, [(1, false), (2, true)]);

        queries.clear();
        let verdict = check_bounds(&verification, 3, true, &CancelToken::new(), |query| {
            queries.push((query.frames, query.step));
            if query.step {
                QueryAnswer::Inconclusive("gave up")
            } else {
                QueryAnswer::Unsat
            }
        });
        assert_eq!(
            verdict,
            Verdict::Holds {
                proved: false,
                frames: 3
            }
        );
        assert_eq!(queries, [(1, false), (2, true), (2, false), (3, false)]);
    }

    #[test]
    fn a_trace_is_validated_before_it_becomes_the_verdict() {
        let verification = accumulator();
        let verdict = check_bounds(&verification, 8, false, &CancelToken::new(), |query| {
            if query.frames < 4 {
                return QueryAnswer::Unsat;
            }
            // From reset, the first three cycles add one and the last drives
            // the environment-breaking 3.
            let reset = query.unrolling.initial_states()[0].net;
            QueryAnswer::Trace(query.trace(|net| {
                let value = match query.unrolling.origin(net) {
                    _ if net == reset => 0,
                    Some((3, _)) => 3,
                    _ => 1,
                };
                Bv::from_u64(query.unrolling.circuit().net_width(net), value)
            }))
        });
        assert_eq!(
            verdict,
            Verdict::Unknown {
                reason: "counter-example violates an environment constraint".into()
            }
        );
    }

    #[test]
    fn a_cancelled_loop_asks_nothing() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let verdict = check_bounds(&accumulator(), 8, true, &cancel, |_| {
            panic!("no query after cancellation")
        });
        assert_eq!(
            verdict,
            Verdict::Unknown {
                reason: "cancelled".into()
            }
        );
    }
}
