//! Portfolio throughput comparison: sequential ATPG vs per-property racing
//! vs batch checking across a worker pool, on the paper suite.
//!
//! A race is never weaker than ATPG alone: the binary exits 1 when a racing
//! row's verdict ranks below its sequential ATPG-only row's
//! ([`wlac_atpg::Verdict::rank`]).
//!
//! Usage: `cargo run -p wlac-bench --release --bin portfolio [-- small|paper]`
//! (defaults to the small scale; `paper` selects the Table 1-sized designs,
//! as `table2 paper` does).

use std::time::Instant;
use wlac_bench::{harness_options, scale_arg};
use wlac_circuits::paper_suite;
use wlac_portfolio::{Engine, Portfolio, PortfolioConfig};

fn config() -> PortfolioConfig {
    PortfolioConfig {
        checker: harness_options(),
        ..PortfolioConfig::default()
    }
}

fn main() {
    let scale = scale_arg();
    let suite = paper_suite(scale);
    let jobs: Vec<_> = suite.iter().map(|case| case.verification.clone()).collect();

    // 1. Sequential baseline: the ATPG engine alone, one property at a time
    //    (what the repo could do before the portfolio existed).
    let sequential_config = config().with_engines(vec![Engine::Atpg]);
    let sequential = Portfolio::new(PortfolioConfig {
        workers: 1,
        ..sequential_config
    });
    let start = Instant::now();
    let sequential_reports = sequential.check_batch(&jobs);
    let sequential_time = start.elapsed();

    // 2. Racing: the hedged race per property (ATPG leads, the other two
    //    engines join after its head start), first definitive answer wins,
    //    losers cancelled — still one property at a time.
    let racing = Portfolio::new(PortfolioConfig {
        workers: 1,
        ..config()
    });
    let start = Instant::now();
    let racing_reports = racing.check_batch(&jobs);
    let racing_time = start.elapsed();

    // 3. Batch: racing plus sharding across the worker pool.
    let batch = Portfolio::new(config());
    let start = Instant::now();
    let batch_reports = batch.check_batch(&jobs);
    let batch_time = start.elapsed();

    println!(
        "== portfolio throughput on paper_suite(Scale::{scale:?}), {} properties ==\n",
        suite.len()
    );
    println!(
        "{:<13} {:>4} | {:<13} {:>9} | {:<13} {:>9} {:>10} | agree",
        "ckt_name", "prop", "sequential", "cpu(s)", "racing", "cpu(s)", "winner"
    );
    let mut weaker = 0usize;
    for ((case, seq), race) in suite.iter().zip(&sequential_reports).zip(&racing_reports) {
        let weaker_row = race.verdict.rank() < seq.verdict.rank();
        weaker += usize::from(weaker_row);
        println!(
            "{:<13} {:>4} | {:<13} {:>8.2}s | {:<13} {:>8.2}s {:>10} | {}",
            case.circuit,
            case.property,
            seq.verdict.label(),
            seq.wall_clock.as_secs_f64(),
            race.verdict.label(),
            race.wall_clock.as_secs_f64(),
            race.winner.map(|w| w.to_string()).unwrap_or_default(),
            if race.agreed() { "yes" } else { "NO" },
        );
        if weaker_row {
            println!("  racing answer is weaker than ATPG alone");
        }
    }
    let disagreements: usize = batch_reports.iter().map(|r| r.disagreements.len()).sum();
    println!();
    println!(
        "sequential (atpg only, 1 worker): {:>8.2}s",
        sequential_time.as_secs_f64()
    );
    println!(
        "racing     (3 engines, 1 worker): {:>8.2}s",
        racing_time.as_secs_f64()
    );
    println!(
        "batch      (3 engines, {:>2} workers): {:>6.2}s   ({} disagreement(s))",
        batch.config().workers,
        batch_time.as_secs_f64(),
        disagreements,
    );
    println!("{weaker} racing row(s) weaker than ATPG alone");
    if weaker > 0 {
        std::process::exit(1);
    }
}
