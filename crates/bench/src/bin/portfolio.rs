//! Portfolio throughput comparison: sequential ATPG vs per-property racing
//! vs batch checking across the verification service's worker pool, on the
//! paper suite.
//!
//! The portfolio never contradicts ATPG alone and a race is never weaker
//! than it: the binary exits 1 when a racing or batch verdict conflicts
//! with the same property's sequential ATPG-only verdict
//! ([`wlac_atpg::Verdict::conflicts_with`]), or when a racing row's verdict
//! ranks below it ([`wlac_atpg::Verdict::rank`]).
//!
//! Usage: `cargo run -p wlac-bench --release --bin portfolio [-- small|paper]`
//! (defaults to the small scale; `paper` selects the Table 1-sized designs,
//! as `table2 paper` does).

use std::time::Instant;
use wlac_bench::{harness_options, scale_arg};
use wlac_circuits::paper_suite;
use wlac_portfolio::{Engine, Portfolio, PortfolioConfig};
use wlac_service::{ServiceConfig, VerificationService};

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
    let sequential = Portfolio::new(config().with_engines(vec![Engine::Atpg]));
    let start = Instant::now();
    let sequential_reports: Vec<_> = jobs.iter().map(|job| sequential.race(job)).collect();
    let sequential_time = start.elapsed();

    // 2. Racing: the hedged race per property (ATPG leads, the other
    //    engines take turns after its head start), first definitive answer
    //    wins — still one property at a time, on this thread.
    let racing = Portfolio::new(config());
    let engines = config().engines.len();
    let start = Instant::now();
    let racing_reports: Vec<_> = jobs.iter().map(|job| racing.race(job)).collect();
    let racing_time = start.elapsed();

    // 3. Batch: the same race per job, sharded across the service's workers.
    let service_config = ServiceConfig {
        portfolio: config(),
        ..ServiceConfig::default()
    };
    let workers = service_config.workers;
    let service = VerificationService::new(service_config);
    let start = Instant::now();
    let batch_results = service.wait(service.submit_batch(jobs));
    let batch_time = start.elapsed();
    assert_eq!(batch_results.len(), suite.len());

    println!(
        "== portfolio throughput on paper_suite(Scale::{scale:?}), {} properties ==\n",
        suite.len()
    );
    println!(
        "{:<13} {:>4} | {:<13} {:>9} | {:<13} {:>9} {:>10} | agree",
        "ckt_name", "prop", "sequential", "cpu(s)", "racing", "cpu(s)", "winner"
    );
    let (mut weaker, mut conflicts) = (0usize, 0usize);
    for (((case, seq), race), batch) in suite
        .iter()
        .zip(&sequential_reports)
        .zip(&racing_reports)
        .zip(&batch_results)
    {
        let weaker_row = race.verdict.rank() < seq.verdict.rank();
        weaker += usize::from(weaker_row);
        let conflicting = [&race.verdict, &batch.verdict]
            .iter()
            .filter(|verdict| verdict.conflicts_with(&seq.verdict))
            .count();
        conflicts += conflicting;
        println!(
            "{:<13} {:>4} | {:<13} {:>8.2}s | {:<13} {:>8.2}s {:>10} | {}",
            case.circuit,
            case.property,
            seq.verdict.label(),
            seq.wall_clock.as_secs_f64(),
            race.verdict.label(),
            race.wall_clock.as_secs_f64(),
            race.winner.map(|w| w.to_string()).unwrap_or_default(),
            if conflicting == 0 { "yes" } else { "NO" },
        );
        if weaker_row {
            println!("  racing answer is weaker than ATPG alone");
        }
    }
    println!();
    println!(
        "sequential (atpg only, 1 worker): {:>8.2}s",
        sequential_time.as_secs_f64()
    );
    println!(
        "racing     ({engines} engines, 1 worker): {:>8.2}s",
        racing_time.as_secs_f64(),
    );
    println!(
        "batch      ({engines} engines, {:>2} workers): {:>6.2}s",
        workers,
        batch_time.as_secs_f64(),
    );
    println!("{conflicts} conflict(s) with ATPG alone");
    println!("{weaker} racing row(s) weaker than ATPG alone");
    if weaker > 0 || conflicts > 0 {
        std::process::exit(1);
    }
}
