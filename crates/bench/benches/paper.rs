//! Benches regenerating the paper's evaluation artefacts:
//!
//! * `table2/*` — the fourteen property checks of Table 2 (small scale),
//! * `fig3_adder_implication`, `fig4_comparator_implication` — the worked
//!   implication examples of Figs. 3 and 4,
//! * `fig5_modular_linear_solver`, `section4_example` — the modular linear
//!   solver examples of Section 4.1 / Fig. 5,
//! * `scaling/*` — decoder-size scaling of the ATPG checker vs the
//!   bit-level SAT BMC baseline (the memory/scalability claim).
//!
//! The workspace builds offline, so this is a plain `harness = false` bench
//! with a small built-in timing loop instead of Criterion. Run with
//! `cargo bench -p wlac-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};
use wlac_atpg::{AssertionChecker, CancelToken, CheckerOptions};
use wlac_baselines::bounded_model_check;
use wlac_bench::{harness_options, run_case};
use wlac_bv::arith::{gt3, sub3};
use wlac_bv::Bv3;
use wlac_circuits::{paper_suite, AddrDecoder, AddrDecoderConfig, Scale};
use wlac_modsolve::{LinearSystem, Ring};

/// Calls `f` repeatedly for roughly `budget` (at least 3 times) and prints
/// the mean and minimum wall-clock time per call.
fn bench<T>(name: &str, budget: Duration, mut f: impl FnMut() -> T) {
    // Warm-up call (also seeds the minimum).
    let start = Instant::now();
    black_box(f());
    let first = start.elapsed();
    let mut iters = 1u32;
    let mut total = first;
    let mut min = first;
    while total < budget || iters < 3 {
        let start = Instant::now();
        black_box(f());
        let elapsed = start.elapsed();
        total += elapsed;
        min = min.min(elapsed);
        iters += 1;
        if iters >= 10_000 {
            break;
        }
    }
    let mean = total / iters;
    println!("{name:<45} iters {iters:>5}   mean {mean:>12?}   min {min:>12?}");
}

fn bench_table2(budget: Duration) {
    for case in paper_suite(Scale::Small) {
        let id = format!("table2/{}_{}", case.circuit, case.property);
        bench(&id, budget, || run_case(&case));
    }
}

fn bench_figures(budget: Duration) {
    let out: Bv3 = "4'b0111".parse().unwrap();
    let addend: Bv3 = "4'b1x1x".parse().unwrap();
    bench("fig3_adder_implication", budget, || sub3(&out, &addend));
    let a: Bv3 = "4'bx01x".parse().unwrap();
    let bb: Bv3 = "4'b1x0x".parse().unwrap();
    bench("fig4_comparator_implication", budget, || gt3(&a, &bb));
    bench("section4_example_2x2_mod8", budget, || {
        let mut sys = LinearSystem::new(Ring::new(3), 2);
        sys.add_equation(&[1, 1], 5);
        sys.add_equation(&[2, 7], 4);
        sys.solve().unwrap()
    });
    // A 2-equation, 4-variable 4-bit system in the shape of Fig. 5's linear
    // adder network (two outputs, four inputs, free variables).
    bench("fig5_modular_linear_solver_4bit", budget, || {
        let mut sys = LinearSystem::new(Ring::new(4), 4);
        sys.add_equation(&[3, 1, 15, 14], 2);
        sys.add_equation(&[1, 2, 14, 0], 10);
        sys.solve().unwrap()
    });
}

fn bench_scaling(budget: Duration) {
    for addr_bits in [2usize, 3, 4] {
        let decoder = AddrDecoder::new(AddrDecoderConfig {
            addr_bits,
            cells: 2,
            cell_width: 8,
        });
        let verification = decoder.p2_selects_mutually_exclusive();
        let mut options = harness_options();
        options.max_frames = 2;
        bench(&format!("scaling/atpg_p2/{addr_bits}"), budget, || {
            AssertionChecker::new(options.clone()).check(&verification)
        });
        bench(&format!("scaling/sat_bmc_p2/{addr_bits}"), budget, || {
            bounded_model_check(&verification, 2, 500_000, &CancelToken::new())
        });
    }
}

fn bench_wide_implication(budget: Duration) {
    // Word-level implication over a 152-bit bus (the industry_02 width):
    // the cost of one adder backward implication stays small because buses
    // are handled as words, not bits.
    let out = Bv3::all_x(152);
    let addend = Bv3::from_bv(&wlac_bv::Bv::ones(152));
    bench("implication_152bit_adder_backward", budget, || {
        sub3(&out, &addend)
    });
    bench("checker_default_options_construction", budget, || {
        CheckerOptions::default()
    });
}

fn main() {
    // Short measurement windows so a full run completes in a few minutes.
    let budget = Duration::from_secs(2);
    println!("wlac paper benches (mean / min wall-clock per call)\n");
    bench_table2(budget);
    bench_figures(budget);
    bench_scaling(budget);
    bench_wide_implication(budget);
}
