//! Quickstart: build a small design programmatically, state an assertion and
//! check it, then deliberately break the design and inspect the
//! counter-example trace.
//!
//! Run with `cargo run --example quickstart`.

use wlac::atpg::{AssertionChecker, Property, Verdict, Verification};
use wlac::bv::Bv;
use wlac::netlist::Netlist;

/// Builds a modulo-`wrap` counter and an "always below `limit`" assertion.
fn counter_with_limit(wrap: u64, limit: u64) -> Verification {
    let mut nl = Netlist::new("counter");
    let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
    let one = nl.constant(&Bv::from_u64(4, 1));
    let plus = nl.add(q, one);
    let wrap_value = nl.constant(&Bv::from_u64(4, wrap));
    let at_wrap = nl.eq(q, wrap_value);
    let zero = nl.constant(&Bv::zero(4));
    let next = nl.mux(at_wrap, zero, plus);
    nl.connect_dff_data(ff, next);
    let limit_value = nl.constant(&Bv::from_u64(4, limit));
    let ok = nl.lt(q, limit_value);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, format!("counter_below_{limit}"), ok);
    Verification::new(nl, property)
}

fn main() {
    let checker = AssertionChecker::with_defaults();

    // A counter wrapping at 9 never reaches 12: the assertion holds.
    let holds = checker.check(&counter_with_limit(9, 12));
    println!("[{}] {:?}", holds.property, holds.result);
    println!("    effort: {}", holds.stats);

    // The same counter does exceed 5: the checker produces a counter-example.
    let fails = checker.check(&counter_with_limit(9, 5));
    println!("[{}] counter-example expected:", fails.property);
    match fails.result {
        Verdict::Violated { trace } => {
            println!("    violation after {} cycle(s)", trace.len());
            print!("{trace}");
        }
        other => println!("    unexpected result {other:?}"),
    }
    println!("    effort: {}", fails.stats);
}
