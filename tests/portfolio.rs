//! Portfolio integration tests: the hedged race on the paper suite, alone
//! and batched through the verification service, meeting every expectation;
//! its attribution; and a decided race that starts no later engine.

use std::sync::Arc;
use std::time::Duration;
use wlac::atpg::{CheckerOptions, FaultPlan, FaultSite, Property, Verification};
use wlac::bv::Bv;
use wlac::circuits::{paper_suite, Expectation, Scale};
use wlac::netlist::Netlist;
use wlac::portfolio::{Engine, Portfolio, PortfolioConfig, Verdict};
use wlac::service::{ServiceConfig, VerificationService};
use wlac::telemetry::MetricsRegistry;

/// Bounded configuration keeping full-suite runs predictable, mirroring the
/// bench harness: 6 frames, generous SAT budget.
fn suite_config() -> PortfolioConfig {
    let checker = CheckerOptions {
        max_frames: 6,
        time_limit: Duration::from_secs(60),
        ..CheckerOptions::default()
    };
    PortfolioConfig {
        checker,
        bmc_decision_budget: 2_000_000,
        ..PortfolioConfig::default()
    }
}

/// A batch of all fourteen paper-suite properties at `Scale::Small`, raced
/// across the verification service's worker pool, comes back in job order
/// and meets every expectation.
#[test]
fn batch_checks_paper_suite_to_its_expectations() {
    let suite = paper_suite(Scale::Small);
    let jobs: Vec<Verification> = suite.iter().map(|c| c.verification.clone()).collect();
    let registry = Arc::new(MetricsRegistry::new());
    let config = ServiceConfig {
        portfolio: suite_config(),
        workers: 2,
        ..ServiceConfig::default()
    };
    let service = VerificationService::with_metrics(config, Arc::clone(&registry));
    let results = service.wait(service.submit_batch(jobs));
    assert_eq!(results.len(), 14);

    for (case, result) in suite.iter().zip(&results) {
        assert_eq!(result.property, case.property);
        assert!(
            !result.from_cache,
            "{}: nothing is cached yet",
            case.property
        );
        assert!(
            result.winner.is_some(),
            "{}: no definitive winner: {:?}",
            case.property,
            result.verdict
        );
        match case.expectation {
            Expectation::Pass => assert!(
                result.verdict.is_pass(),
                "{} expected to pass, got {:?}",
                case.property,
                result.verdict
            ),
            Expectation::Witness => assert!(
                matches!(result.verdict, Verdict::WitnessFound { .. }),
                "{} expected a witness, got {:?}",
                case.property,
                result.verdict
            ),
        }
    }
    assert_eq!(registry.counter("portfolio_races_total").get(), 14);
}

/// The hedged race meets every paper-suite expectation at `Scale::Small`,
/// and its verdict is its winner's.
#[test]
fn race_checks_paper_suite_to_its_expectations() {
    let suite = paper_suite(Scale::Small);
    assert_eq!(suite.len(), 14);
    let portfolio = Portfolio::new(suite_config());
    for case in &suite {
        let report = portfolio.race(&case.verification);
        assert_eq!(report.property, case.property);
        let winner = report.winner.expect("a definitive winner");
        assert_eq!(
            report.run_of(winner).map(|r| &r.verdict),
            Some(&report.verdict)
        );
        match case.expectation {
            Expectation::Pass => assert!(
                report.verdict.is_pass(),
                "{} expected to pass, got {:?}",
                case.property,
                report.verdict
            ),
            Expectation::Witness => assert!(
                matches!(report.verdict, Verdict::WitnessFound { .. }),
                "{} expected a witness, got {:?}",
                case.property,
                report.verdict
            ),
        }
    }
}

/// A 32-bit input that must equal a magic constant: the word-level engines
/// find the witness immediately, while random simulation has a 2^-32 chance
/// per cycle.
fn corner_case() -> Verification {
    let mut nl = Netlist::new("corner");
    let wide = nl.input("wide", 32);
    let magic = nl.constant(&Bv::from_u64(32, 0xDEAD_BEEF));
    let hit = nl.eq(wide, magic);
    nl.mark_output("hit", hit);
    let property = Property::eventually(&nl, "corner", hit);
    Verification::new(nl, property)
}

/// Racing returns the first definitive verdict and starts no engine after
/// it: a random-simulation campaign that would churn for minutes never runs.
#[test]
fn a_decided_race_starts_no_later_engine() {
    // With 200k random runs, random simulation would churn for minutes if
    // it took its turn.
    let mut config = suite_config();
    config.checker.max_frames = 2;
    config.random_runs = 200_000;
    config.random_cycles = 50;

    // ATPG decides within its head start: nobody else starts. A loaded host
    // can hold the lead past the head start, which hands the race on, so
    // the race is retried.
    let portfolio = Portfolio::new(config.clone());
    let alone = (0..20)
        .map(|_| portfolio.race(&corner_case()))
        .find(|report| report.runs.len() == 1)
        .expect("the lead ran alone in one of 20 races");
    assert!(
        matches!(alone.verdict, Verdict::WitnessFound { .. }),
        "got {:?}",
        alone.verdict
    );
    assert_eq!(alone.winner, Some(Engine::Atpg));

    // A hung lead hands the race to SAT-BMC, which finds the witness; the
    // random-simulation campaign after it never starts.
    config.checker.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let report = Portfolio::new(config).race(&corner_case());
    assert!(
        matches!(report.verdict, Verdict::WitnessFound { .. }),
        "got {:?}",
        report.verdict
    );
    assert_eq!(report.winner, Some(Engine::SatBmc), "{report}");
    assert!(
        report.run_of(Engine::RandomSim).is_none(),
        "random simulation started after a decided race: {report}"
    );
    assert!(
        report.wall_clock < Duration::from_secs(5),
        "the race did not end at SAT-BMC's answer: {:?}",
        report.wall_clock
    );
}

/// In racing mode the reported verdict is exactly the winning engine's, with
/// a validated trace for violations.
#[test]
fn race_attributes_the_winner() {
    // A counter wrapping at 12 violates "always below 5" after five steps.
    let mut nl = Netlist::new("cex");
    let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
    let one = nl.constant(&Bv::from_u64(4, 1));
    let next = nl.add(q, one);
    nl.connect_dff_data(ff, next);
    let five = nl.constant(&Bv::from_u64(4, 5));
    let ok = nl.lt(q, five);
    nl.mark_output("ok", ok);
    let property = Property::always(&nl, "below_5", ok);
    let verification = Verification::new(nl, property);

    let report = Portfolio::new(suite_config()).race(&verification);
    let winner = report.winner.expect("someone wins");
    let winning_run = report.run_of(winner).expect("winner ran");
    assert_eq!(winning_run.verdict, report.verdict);
    match &report.verdict {
        Verdict::Violated { trace } => {
            let replay = trace
                .replay_monitor(&verification.netlist, verification.property.monitor)
                .expect("replay");
            assert_eq!(replay.last(), Some(&false), "validated counter-example");
        }
        other => panic!("expected a violation, got {other:?}"),
    }
}
