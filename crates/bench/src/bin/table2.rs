//! Reproduces the paper's Table 2: CPU time and memory for properties
//! p1–p14, side by side with the numbers reported in the paper.
//!
//! Usage: `cargo run -p wlac-bench --release --bin table2 [-- small|paper]`
//! (defaults to the small scale so a full run finishes in seconds; the paper
//! scale regenerates Table 1-sized designs).

use wlac_atpg::Verdict;
use wlac_bench::{run_case, table2_header, table2_row};
use wlac_circuits::{paper_suite, Scale};

fn main() {
    let scale = if std::env::args().any(|a| a == "paper") {
        Scale::Paper
    } else {
        Scale::Small
    };
    println!("== Table 2: assertion checking results ({scale:?} scale) ==");
    println!("{}", table2_header());
    let mut total_cpu = 0.0;
    let mut worst_mem: f64 = 0.0;
    let mut mismatches = 0usize;
    for case in paper_suite(scale) {
        let report = run_case(&case);
        let ok = match case.expectation {
            wlac_circuits::Expectation::Pass => matches!(report.result, Verdict::Holds { .. }),
            wlac_circuits::Expectation::Witness => report.result.trace().is_some(),
        };
        if !ok {
            mismatches += 1;
        }
        total_cpu += report.stats.cpu_seconds();
        worst_mem = worst_mem.max(report.stats.peak_memory_mb());
        println!("{}", table2_row(&case, &report));
    }
    println!();
    println!(
        "total cpu {total_cpu:.2}s, peak memory {worst_mem:.2}MB, {mismatches} outcome mismatch(es)"
    );
    println!(
        "paper totals for reference: 180.2s cpu, 54.66MB peak memory (Sun UltraSparc 5, 512MB)"
    );
}
