//! Differential test for the incremental datapath resolution (PR 3).
//!
//! The checker's datapath leaf caches island topology, keeps the structural
//! equations pre-reduced in a checkpointed solver and speculates through the
//! shared delta trail. `CheckerOptions::incremental_datapath = false` runs
//! the *same* transcription and solving code but rebuilds all cached state on
//! every call — a from-scratch oracle. Both modes must therefore agree
//! bit-for-bit: same results, same traces, same search effort.

use std::time::Duration;
use wlac::atpg::{AssertionChecker, CheckReport, CheckerOptions, Property, Verification};
use wlac::bv::Bv;
use wlac::circuits::{paper_suite, Scale};
use wlac::netlist::Netlist;

fn options(incremental: bool) -> CheckerOptions {
    CheckerOptions {
        max_frames: 6,
        time_limit: Duration::from_secs(60),
        incremental_datapath: incremental,
        ..CheckerOptions::default()
    }
}

fn assert_reports_agree(label: &str, incremental: &CheckReport, scratch: &CheckReport) {
    assert_eq!(
        incremental.result, scratch.result,
        "{label}: incremental and from-scratch datapath resolution disagree"
    );
    // Same decisions, backtracks, implication effort and solver leaf calls:
    // the caches must be behaviourally invisible, not merely result-stable.
    assert_eq!(
        incremental.stats.decisions, scratch.stats.decisions,
        "{label}: decision count diverged"
    );
    assert_eq!(
        incremental.stats.backtracks, scratch.stats.backtracks,
        "{label}: backtrack count diverged"
    );
    assert_eq!(
        incremental.stats.arithmetic_calls, scratch.stats.arithmetic_calls,
        "{label}: arithmetic call count diverged"
    );
    assert_eq!(
        incremental.stats.implication.gate_evaluations, scratch.stats.implication.gate_evaluations,
        "{label}: implication effort diverged"
    );
    // The scratch oracle can never reuse an island cache across calls.
    assert_eq!(scratch.stats.island_cache_hits, 0, "{label}");
}

/// Every property of the paper suite decides identically under the cached
/// and the from-scratch datapath paths.
#[test]
fn paper_suite_incremental_matches_scratch() {
    let incremental = AssertionChecker::new(options(true));
    let scratch = AssertionChecker::new(options(false));
    for case in paper_suite(Scale::Small) {
        let a = incremental.check(&case.verification);
        let b = scratch.check(&case.verification);
        let label = format!("{} {}", case.circuit, case.property);
        assert_reports_agree(&label, &a, &b);
    }
}

/// A datapath-heavy design (the Small suite is mostly control-bound): a
/// mux-selected adder chain whose requirement can only be discharged by the
/// modular island solver, exercising cache reuse across many decisions.
#[test]
fn adder_chain_incremental_matches_scratch_and_solves_islands() {
    let mut nl = Netlist::new("adder_chain");
    let a = nl.input("a", 16);
    let b = nl.input("b", 16);
    let c = nl.input("c", 16);
    let sel = nl.input("sel", 1);
    let s1 = nl.add(a, b);
    let s2 = nl.add(s1, c);
    let dbl = nl.add(s2, s2);
    let zero = nl.constant(&Bv::zero(16));
    let out = nl.mux(sel, dbl, zero);
    let target = nl.constant(&Bv::from_u64(16, 0x1234));
    let ok = nl.ne(out, target);
    nl.mark_output("ok", ok);

    // out = 2·(a+b+c) is always even, 0x1234 is even: `sel`-branch
    // counter-examples exist and must be found through the island solver.
    let property = Property::always(&nl, "never_hits_target", ok);
    let verification = Verification::new(nl, property);
    let inc_report = AssertionChecker::new(options(true)).check(&verification);
    let scr_report = AssertionChecker::new(options(false)).check(&verification);
    assert_reports_agree("adder_chain", &inc_report, &scr_report);
    assert!(
        inc_report.stats.arithmetic_calls > 0,
        "the requirement must reach the modular solver, got {:?}",
        inc_report.stats
    );
    assert!(
        inc_report.result.trace().is_some(),
        "2·(a+b+c) ≡ 0x1234 (mod 2^16) is satisfiable, got {:?}",
        inc_report.result
    );
}
