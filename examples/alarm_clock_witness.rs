//! The alarm-clock workload of the paper (properties p7–p9): prove the
//! 11:59 → 12:00 roll-over and the impossibility of an hour display of 13,
//! and generate a witness sequence that brings the hour display to 2 —
//! then replay the witness on the concrete simulator.
//!
//! Run with `cargo run --release --example alarm_clock_witness`.

use wlac::atpg::{AssertionChecker, CheckerOptions, Verdict};
use wlac::circuits::AlarmClock;

fn main() {
    let clock = AlarmClock::new();
    let options = CheckerOptions {
        max_frames: 6,
        ..CheckerOptions::default()
    };
    let checker = AssertionChecker::new(options);

    for verification in [
        clock.p7_rollover_to_twelve(),
        clock.p9_hour_never_thirteen(),
    ] {
        let report = checker.check(&verification);
        println!("[{}] {:?}", report.property, report.result);
        println!("    effort: {}", report.stats);
    }

    let witness = checker.check(&clock.p8_hour_reaches_two());
    println!("[{}] witness generation:", witness.property);
    match witness.result {
        Verdict::WitnessFound { trace } => {
            println!("    hour display reaches 2 after {} cycle(s)", trace.len());
            print!("{trace}");
            // Independently replay the witness with the concrete simulator.
            let verification = clock.p8_hour_reaches_two();
            let monitor = verification.property.monitor;
            let values = trace
                .replay_monitor(&verification.netlist, monitor)
                .expect("replay");
            println!("    replayed monitor values: {values:?}");
            assert_eq!(values.last(), Some(&true));
        }
        other => println!("    unexpected result {other:?}"),
    }
}
