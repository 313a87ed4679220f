//! # wlac-bench — benchmark harness reproducing the paper's evaluation
//!
//! Binaries (run with `cargo run -p wlac-bench --release --bin <name>`):
//!
//! * `table1` — circuit statistics (the paper's Table 1),
//! * `table2` — CPU time / memory for properties p1–p14 (the paper's
//!   Table 2), side by side with the paper's reported numbers,
//! * `compare` — word-level ATPG vs bit-level SAT BMC vs random simulation,
//! * `portfolio` — ATPG alone vs the hedged race vs batch checking; exits 1
//!   when a portfolio verdict conflicts with ATPG alone or a race is weaker,
//! * `ablation` — effect of the bias ordering, the modular arithmetic solver
//!   and the ESTG heuristic, plus the modular-vs-integral false-negative
//!   demonstration.
//!
//! Criterion benches (`cargo bench -p wlac-bench`) cover the Table 2
//! property checks, the worked examples of Figs. 3–5 and solver scaling.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;
use wlac_atpg::{AssertionChecker, CheckReport, CheckerOptions};
use wlac_circuits::{BenchmarkCase, Scale};

/// The suite scale a harness binary was asked for: a `paper` argument
/// selects the Table 1-sized designs, and anything else the small ones.
pub fn scale_arg() -> Scale {
    if std::env::args().any(|a| a == "paper") {
        Scale::Paper
    } else {
        Scale::Small
    }
}

/// Options used by the harness when reproducing Table 2: a bounded number of
/// frames and a per-property time limit keep full-suite runs predictable.
pub fn harness_options() -> CheckerOptions {
    CheckerOptions {
        max_frames: 8,
        time_limit: Duration::from_secs(30),
        ..CheckerOptions::default()
    }
}

/// Checks one benchmark case with the harness options.
pub fn run_case(case: &BenchmarkCase) -> CheckReport {
    AssertionChecker::new(harness_options()).check(&case.verification)
}

/// Formats one Table 2 row: measured vs paper numbers.
pub fn table2_row(case: &BenchmarkCase, report: &CheckReport) -> String {
    format!(
        "{:<13} {:>4} {:<14} {:>9.2} {:>9.2} {:>11.2} {:>11.2}",
        case.circuit,
        case.property,
        report.result.label(),
        report.stats.cpu_seconds(),
        report.stats.peak_memory_mb(),
        case.paper_cpu_seconds,
        case.paper_memory_mb,
    )
}

/// Header matching [`table2_row`].
pub fn table2_header() -> String {
    format!(
        "{:<13} {:>4} {:<14} {:>9} {:>9} {:>11} {:>11}",
        "ckt_name", "prop", "result", "cpu(s)", "mem(MB)", "paper cpu", "paper MB"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_circuits::{paper_suite, Scale};

    #[test]
    fn harness_runs_a_small_case() {
        let suite = paper_suite(Scale::Small);
        let case = &suite[13]; // p14, the smallest
        let report = run_case(case);
        assert_eq!(report.result.label(), "proved");
        let row = table2_row(case, &report);
        assert!(row.contains("p14"));
        assert!(table2_header().contains("paper cpu"));
    }
}
