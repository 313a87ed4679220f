//! Differential proof that tracing is pure observability: running the exact
//! same check with `CheckerOptions::trace` on and off must produce
//! byte-identical verdicts and the same decision sequence (every search
//! counter equal at every level of aggregation). The traced run must
//! additionally produce a phase breakdown that partitions `elapsed` and span
//! events describing the decisions taken.

use std::sync::Arc;
use wlac_atpg::{AssertionChecker, CheckerOptions, Property, TraceSink, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_telemetry::Tracer;

/// A 4-bit counter wrapping at `wrap_at`, monitored by `q < limit`.
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

/// An adder pipeline whose output forced odd is unsatisfiable — exercises
/// the modular datapath leaf, not just Boolean search.
fn datapath_design() -> Verification {
    let mut nl = Netlist::new("doubled");
    let a = nl.input("a", 8);
    let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
    let doubled = nl.add(a, a);
    nl.connect_dff_data(ff, doubled);
    let one = nl.constant(&Bv::from_u64(1, 1));
    let low = nl.slice(q, 0, 1);
    let is_odd = nl.eq(low, one);
    let ok = nl.not(is_odd);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, "never_odd", ok);
    Verification::new(nl, property)
}

fn check_both_ways(verification: &Verification, max_frames: usize) {
    let base = CheckerOptions {
        max_frames,
        ..CheckerOptions::default()
    };
    let untraced = AssertionChecker::new(base.clone()).check(verification);

    let tracer = Arc::new(Tracer::new(65_536));
    let traced_options = base.with_trace(TraceSink::to(tracer.clone()));
    let traced = AssertionChecker::new(traced_options).check(verification);

    // Verdicts (including any counter-example trace, byte for byte).
    assert_eq!(untraced.result, traced.result);
    assert_eq!(untraced.property, traced.property);

    // Decision sequence: the searches are deterministic, so equality of
    // every effort counter at every level pins the two runs to the same
    // decisions in the same order.
    assert_eq!(untraced.stats.decisions, traced.stats.decisions);
    assert_eq!(untraced.stats.backtracks, traced.stats.backtracks);
    assert_eq!(untraced.stats.implication, traced.stats.implication);
    assert_eq!(
        untraced.stats.arithmetic_calls,
        traced.stats.arithmetic_calls
    );
    assert_eq!(
        untraced.stats.island_cache_hits,
        traced.stats.island_cache_hits
    );
    assert_eq!(
        untraced.stats.island_cache_misses,
        traced.stats.island_cache_misses
    );
    assert_eq!(
        untraced.stats.justify_gates_rechecked,
        traced.stats.justify_gates_rechecked
    );
    assert_eq!(untraced.stats.frames_explored, traced.stats.frames_explored);

    // trace=false leaves the phase breakdown untouched.
    assert_eq!(untraced.stats.phases.total(), 0);

    // trace=true partitions elapsed into phases: the sum must track the
    // wall clock to within 10% (the acceptance bound of the `trace_check`
    // exposition built on this data).
    let elapsed = traced.stats.elapsed.as_nanos() as u64;
    let total = traced.stats.phases.total();
    assert!(total > 0, "traced run must attribute time");
    let bound = elapsed / 10;
    assert!(
        total.abs_diff(elapsed) <= bound.max(1_000),
        "phase sum {total} vs elapsed {elapsed} diverges by more than 10%"
    );

    // Span events describe the run: a search span per bound and one
    // decision event per decision (modulo ring eviction, sized out here).
    let events = tracer.events();
    assert!(events.iter().any(|e| e.name == "search"));
    assert!(events.iter().any(|e| e.name == "bound"));
    let decisions = events.iter().filter(|e| e.name == "decision").count() as u64;
    assert_eq!(decisions, traced.stats.decisions);
}

#[test]
fn tracing_is_invisible_to_a_proved_invariant() {
    // Wraps at 5, monitor q < 9: holds (bounded or induction-proved).
    let (nl, ok) = bounded_counter(9, 5);
    let property = Property::always(&nl, "below_9", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn tracing_is_invisible_to_a_counterexample() {
    // Wraps at 12, monitor q < 5: fails after 5 cycles; the concrete
    // counter-example trace must be byte-identical with tracing on.
    let (nl, ok) = bounded_counter(5, 12);
    let property = Property::always(&nl, "below_5", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn tracing_is_invisible_to_the_datapath_solver() {
    check_both_ways(&datapath_design(), 6);
}
