//! Bus-contention checking on the synthetic industrial bus fabrics — the
//! workload of properties p11–p13 in the paper — and a comparison with the
//! bit-level SAT BMC baseline on the same problem.
//!
//! Run with `cargo run --release --example bus_contention`.

use wlac::atpg::{AssertionChecker, CancelToken, CheckerOptions};
use wlac::baselines::bounded_model_check;
use wlac::circuits::{industry_02, industry_03, industry_04};

fn main() {
    let options = CheckerOptions {
        max_frames: 4,
        ..CheckerOptions::default()
    };
    let checker = AssertionChecker::new(options);

    let fabrics = [
        (
            "industry_02 (152-bit, registered)",
            industry_02(4).contention_free("p11"),
        ),
        (
            "industry_03 (128-bit, broadcast)",
            industry_03(4).contention_free("p12"),
        ),
        (
            "industry_04 (32-bit)",
            industry_04(4).contention_free("p13"),
        ),
    ];
    for (name, verification) in fabrics {
        let report = checker.check(&verification);
        println!("{name}");
        println!("  word-level ATPG: {:?}", report.result);
        println!("  effort: {}", report.stats);
        let bmc = bounded_model_check(&verification, 3, 1_000_000, &CancelToken::new());
        println!(
            "  bit-level SAT BMC: {}, {:.2}s, CNF {:.2} MB ({} vars, {} clauses)",
            bmc.verdict.label(),
            bmc.elapsed.as_secs_f64(),
            bmc.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            bmc.variables,
            bmc.clauses
        );
        println!();
    }
    println!(
        "The word-level engine treats each 152/128/32-bit bus as a single entity; the\n\
         bit-blasted CNF grows with the bus width — the memory-efficiency argument of\n\
         the paper's introduction."
    );
}
