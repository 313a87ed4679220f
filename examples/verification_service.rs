//! A persistent verification session end-to-end: register the industry
//! designs, batch-check their properties twice, and print the warm-run
//! speedup plus the knowledge-base statistics behind it.
//!
//! Run with `cargo run --release --example verification_service`.
//!
//! The second submission of an identical batch is answered entirely from the
//! verdict cache (zero engines spawned), which is where batch-serving
//! throughput comes from; the knowledge-base counters show what the first
//! run banked for any *non*-identical future queries against the same
//! designs (replayable CDCL clauses for SAT BMC and the engine win/loss
//! history). Each property's ATPG check runs on its own, as in Table 2.

use std::time::{Duration, Instant};
use wlac::circuits::{paper_suite, Scale};
use wlac::service::{design_hash, ServiceConfig, VerificationService};

fn main() {
    let mut config = ServiceConfig::default();
    config.portfolio.checker.max_frames = 6;
    config.portfolio.checker.time_limit = Duration::from_secs(60);
    config.portfolio.bmc_decision_budget = 2_000_000;
    let service = VerificationService::new(config);

    // The industry designs and their properties (p10–p14 of the paper).
    let suite: Vec<_> = paper_suite(Scale::Small)
        .into_iter()
        .filter(|case| case.circuit.starts_with("industry"))
        .collect();
    println!("registering {} industry designs:", suite.len());
    for case in &suite {
        let hash = service.register_design(&case.verification.netlist);
        println!("  {:<13} {:>4}  {}", case.circuit, case.property, hash);
    }
    let jobs: Vec<_> = suite.iter().map(|c| c.verification.clone()).collect();

    // Cold run: every job races the (predictor-scheduled) portfolio.
    let start = Instant::now();
    let batch = service.submit_batch(jobs.clone());
    while !service.batch_progress(batch).expect("known batch").done() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let cold = service.results(batch).expect("finished batch");
    let cold_wall = start.elapsed();
    println!("\ncold run ({cold_wall:?}):");
    for result in &cold {
        println!(
            "  {:<4} {:<13} {} engine(s), won by {}",
            result.property,
            result.verdict.label(),
            result.engines_spawned,
            result
                .winner
                .map(|w| w.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }

    // Warm run: the identical batch again — pure verdict-cache traffic.
    let start = Instant::now();
    let warm = service.wait(service.submit_batch(jobs));
    let warm_wall = start.elapsed();
    println!("\nwarm run ({warm_wall:?}):");
    for result in &warm {
        assert!(result.from_cache, "identical queries must hit the cache");
        println!(
            "  {:<4} {:<13} from cache, {} engine(s)",
            result.property,
            result.verdict.label(),
            result.engines_spawned
        );
    }

    let stats = service.stats();
    let speedup = cold_wall.as_secs_f64() / warm_wall.as_secs_f64().max(1e-9);
    println!("\nwarm-run speedup: {speedup:.1}x");
    println!(
        "cache: {} hits / {} misses ({:.0}% hit rate)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_hit_rate() * 100.0
    );
    println!(
        "knowledge across {} designs: {} clauses banked",
        stats.designs, stats.clauses_banked
    );
    for case in &suite {
        let design = design_hash(&case.verification.netlist);
        if let Some(kb) = service.knowledge_stats(design) {
            println!(
                "  {:<13} {:>2} race(s) absorbed, {} clauses banked, {} rejected",
                case.circuit, kb.races_absorbed, kb.clauses_banked, kb.clauses_rejected
            );
        }
    }

    assert!(
        stats.cache_hits >= warm.len() as u64,
        "the repeated batch must be served from cache"
    );
    println!("\nOK: repeated batch served from cache without spawning engines");
}
