//! Differential proof that live-progress publication is pure observability:
//! running the exact same check with `CheckerOptions::progress` attached and
//! detached must produce byte-identical verdicts and the same decision
//! sequence (every search counter equal at every level of aggregation). The
//! probed run must additionally leave its closing counters in the progress
//! cell, consistent with the counters the report carries.

use std::sync::Arc;
use wlac_atpg::{AssertionChecker, CheckerOptions, Property, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_telemetry::{ProgressCell, ProgressHandle};

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
    let unprobed = AssertionChecker::new(base.clone()).check(verification);

    let cell = Arc::new(ProgressCell::new());
    let probed_options = base.with_progress(ProgressHandle::to(Arc::clone(&cell)));
    let probed = AssertionChecker::new(probed_options).check(verification);

    // Verdicts (including any counter-example trace, byte for byte).
    assert_eq!(unprobed.result, probed.result);
    assert_eq!(unprobed.property, probed.property);

    // Decision sequence: the searches are deterministic, so equality of
    // every effort counter at every level pins the two runs to the same
    // decisions in the same order.
    assert_eq!(unprobed.stats.decisions, probed.stats.decisions);
    assert_eq!(unprobed.stats.conflicts, probed.stats.conflicts);
    assert_eq!(unprobed.stats.backtracks, probed.stats.backtracks);
    assert_eq!(unprobed.stats.implication, probed.stats.implication);
    assert_eq!(
        unprobed.stats.arithmetic_calls,
        probed.stats.arithmetic_calls
    );
    assert_eq!(
        unprobed.stats.island_cache_hits,
        probed.stats.island_cache_hits
    );
    assert_eq!(
        unprobed.stats.island_cache_misses,
        probed.stats.island_cache_misses
    );
    assert_eq!(
        unprobed.stats.justify_gates_rechecked,
        probed.stats.justify_gates_rechecked
    );
    assert_eq!(unprobed.stats.frames_explored, probed.stats.frames_explored);

    // The cell ends the run holding the search's closing counters: the
    // final publish of the last search pass wrote the cumulative stats the
    // report carries, and every bound advance registered as a restart.
    assert!(cell.has_published(), "probed run must publish");
    let snapshot = cell.snapshot();
    assert!(snapshot.probes >= 1);
    assert!(snapshot.bound >= 1, "at least one frame bound was searched");
    assert_eq!(snapshot.decisions, probed.stats.decisions);
    assert_eq!(snapshot.conflicts, probed.stats.conflicts);
    assert_eq!(snapshot.backtracks, probed.stats.backtracks);
    assert_eq!(
        snapshot.implications,
        probed.stats.implication.gate_evaluations
    );
    assert_eq!(snapshot.restarts as usize, probed.stats.frames_explored);
}

#[test]
fn probes_are_invisible_to_a_proved_invariant() {
    // Wraps at 5, monitor q < 9: holds (bounded or induction-proved).
    let (nl, ok) = bounded_counter(9, 5);
    let property = Property::always(&nl, "below_9", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn probes_are_invisible_to_a_counterexample() {
    // Wraps at 12, monitor q < 5: fails after 5 cycles; the concrete
    // counter-example trace must be byte-identical with probing on.
    let (nl, ok) = bounded_counter(5, 12);
    let property = Property::always(&nl, "below_5", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}

#[test]
fn probes_are_invisible_to_the_datapath_solver() {
    check_both_ways(&datapath_design(), 6);
}

#[test]
fn probes_are_invisible_to_a_witness_search() {
    // The monitor is reachable, so the witness search answers quickly; the
    // point is covering `check_eventually`'s probe sites.
    let (nl, ok) = bounded_counter(9, 5);
    let property = Property::eventually(&nl, "sees_ok", ok);
    let verification = Verification::new(nl, property);
    check_both_ways(&verification, 8);
}
