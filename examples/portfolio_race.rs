//! Portfolio racing: check one property with three engines, which take
//! turns on this thread after ATPG's head start, then race a list of
//! properties one after another. To shard a batch
//! across a worker pool, submit it to a `VerificationService` (see
//! `examples/verification_service.rs`).
//!
//! Run with `cargo run --example portfolio_race`.

use wlac::atpg::{Property, Verification};
use wlac::bv::Bv;
use wlac::netlist::Netlist;
use wlac::portfolio::Portfolio;

/// Builds a modulo-`wrap` counter asserted to stay below `limit`.
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
    let portfolio = Portfolio::with_defaults();

    // Race the engines on a single passing property: the first definitive
    // verdict wins and no engine starts after it.
    println!("-- racing one property --");
    let report = portfolio.race(&counter_with_limit(9, 12));
    println!("{report}\n");

    // A failing property: whoever finds the counter-example first wins, and
    // the trace is re-simulated before being trusted.
    println!("-- racing a violated property --");
    let report = portfolio.race(&counter_with_limit(9, 5));
    println!("{report}");
    if let wlac::portfolio::Verdict::Violated { trace } = &report.verdict {
        println!("counter-example:\n{trace}");
    }

    // A list of properties, one race each. `counter_below_8` fails only at
    // cycle 8, beyond the 8-frame unrolling, so the race's first definitive
    // answer is ATPG's `holds(bound)`.
    println!("-- racing a list of properties --");
    for limit in 3..9 {
        println!("{}", portfolio.race(&counter_with_limit(9, limit)));
    }
}
