//! Compares the word-level ATPG + modular arithmetic checker against the
//! bit-level SAT BMC baseline and random simulation — the paper's qualitative
//! claims about memory efficiency and robustness against corner cases.
//!
//! Usage: `cargo run -p wlac-bench --release --bin compare`

use wlac_baselines::{bounded_model_check, random_simulation};
use wlac_bench::run_case;
use wlac_circuits::{paper_suite, Scale};

fn main() {
    println!("== ATPG + modular arithmetic vs bit-level SAT BMC vs random simulation ==");
    println!(
        "{:<13} {:>4} | {:>10} {:>9} | {:>10} {:>9} {:>12} | {:>10}",
        "ckt_name", "prop", "atpg cpu", "atpg MB", "bmc cpu", "bmc MB", "bmc out", "random"
    );
    let suite = paper_suite(Scale::Small);
    // The comparison focuses on the safety properties plus one witness per
    // circuit class (the same problems, solved by all three engines).
    for case in suite {
        let report = run_case(&case);
        let bmc = bounded_model_check(&case.verification, 6, 2_000_000);
        let random = random_simulation(&case.verification, 16, 16, 1);
        println!(
            "{:<13} {:>4} | {:>9.2}s {:>8.2} | {:>9.2}s {:>8.2} {:>12} | {}",
            case.circuit,
            case.property,
            report.stats.cpu_seconds(),
            report.stats.peak_memory_mb(),
            bmc.elapsed.as_secs_f64(),
            bmc.peak_memory_bytes as f64 / (1024.0 * 1024.0),
            bmc.verdict.label(),
            random.verdict.label(),
        );
    }
    println!();
    println!(
        "expected shape (paper sections 1 and 5): the word-level engine's memory grows\n\
         with circuit size x timeframes while the bit-blasted CNF grows with bit width;\n\
         random simulation misses the deterministic witnesses it is not steered towards."
    );
}
