//! The proof audit: checks every property of the paper suite with the
//! word-level ATPG + modular arithmetic checker, the bit-level SAT BMC
//! baseline and random simulation — the paper's qualitative claims about
//! memory efficiency and robustness against corner cases — and has the other
//! engines check ATPG's answers.
//!
//! SAT BMC runs the bounded problem ATPG runs, at ATPG's bound, and closes
//! the same induction step. The binary exits 1 when two verdicts on a
//! property conflict, when ATPG proves a property SAT BMC does not prove (a
//! step counter-example, or a step SAT BMC gave up on), or when SAT BMC
//! answers `unknown`.
//!
//! Usage: `cargo run -p wlac-bench --release --bin compare [-- small|paper]`
//! (defaults to the small scale; `paper` selects the Table 1-sized designs,
//! as `table2 paper` does).

use wlac_atpg::{CancelToken, Verdict};
use wlac_baselines::{bounded_model_check, random_simulation};
use wlac_bench::{harness_options, run_case, scale_arg};
use wlac_circuits::paper_suite;

/// SAT decisions allowed per query.
const BMC_DECISION_BUDGET: u64 = 2_000_000;

fn main() {
    let scale = scale_arg();
    let max_frames = harness_options().max_frames;
    println!(
        "== ATPG + modular arithmetic vs bit-level SAT BMC vs random simulation \
         ({scale:?} scale, {max_frames} frames) =="
    );
    println!(
        "{:<13} {:>4} | {:>12} {:>10} {:>9} | {:>12} {:>10} {:>9} | {:>12} | audit",
        "ckt_name",
        "prop",
        "atpg out",
        "atpg cpu",
        "atpg MB",
        "bmc out",
        "bmc cpu",
        "bmc MB",
        "random"
    );
    let mut failures = 0usize;
    for case in paper_suite(scale) {
        let report = run_case(&case);
        let bmc = bounded_model_check(
            &case.verification,
            max_frames,
            BMC_DECISION_BUDGET,
            &CancelToken::new(),
        );
        let random = random_simulation(&case.verification, 16, 16, 1);
        let finding = audit(&report.result, &bmc.verdict, &random.verdict);
        failures += usize::from(finding.is_some());
        println!(
            "{:<13} {:>4} | {:>12} {:>9.2}s {:>9.2} | {:>12} {:>9.2}s {:>9.2} | {:>12} | {}",
            case.circuit,
            case.property,
            report.result.label(),
            report.stats.cpu_seconds(),
            report.stats.peak_memory_mb(),
            bmc.verdict.label(),
            bmc.elapsed.as_secs_f64(),
            bmc.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            random.verdict.label(),
            finding.unwrap_or("ok"),
        );
    }
    println!();
    println!("{failures} audit failure(s)");
    println!(
        "expected shape (paper sections 1 and 5): the word-level engine's memory grows\n\
         with circuit size x timeframes while the bit-blasted CNF grows with bit width;\n\
         random simulation misses the deterministic witnesses it is not steered towards."
    );
    if failures > 0 {
        std::process::exit(1);
    }
}

/// What the audit rejects about one property's verdicts, if anything.
fn audit(atpg: &Verdict, bmc: &Verdict, random: &Verdict) -> Option<&'static str> {
    let proved = |v: &Verdict| matches!(v, Verdict::Holds { proved: true, .. });
    let conflict =
        atpg.conflicts_with(bmc) || atpg.conflicts_with(random) || bmc.conflicts_with(random);
    if conflict {
        Some("CONFLICT")
    } else if !bmc.is_definitive() {
        Some("BMC UNKNOWN")
    } else if proved(atpg) && !proved(bmc) {
        Some("PROOF UNCONFIRMED")
    } else {
        None
    }
}
