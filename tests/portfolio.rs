//! Portfolio integration tests: cross-engine agreement on the paper suite,
//! hedged first-definitive-answer racing and prompt cooperative cancellation.

use std::time::Duration;
use wlac::atpg::{CheckerOptions, FaultPlan, FaultSite, Property, Verification};
use wlac::bv::Bv;
use wlac::circuits::{paper_suite, Expectation, Scale};
use wlac::netlist::Netlist;
use wlac::portfolio::{Engine, Portfolio, PortfolioConfig, Verdict};

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

/// `Portfolio::check_batch` verifies all fourteen paper-suite properties at
/// `Scale::Small` with zero engine disagreements, and ATPG and SAT BMC reach
/// the same verdict on every case both can decide.
#[test]
fn batch_checks_paper_suite_with_zero_disagreements() {
    let suite = paper_suite(Scale::Small);
    let jobs: Vec<Verification> = suite.iter().map(|c| c.verification.clone()).collect();
    let portfolio = Portfolio::new(suite_config().with_cross_validation());
    let reports = portfolio.check_batch(&jobs);
    assert_eq!(reports.len(), 14);

    for (case, report) in suite.iter().zip(&reports) {
        assert_eq!(report.property, case.property);
        assert!(
            report.agreed(),
            "{}: engines disagree: {:?}",
            case.property,
            report.disagreements
        );
        // The portfolio verdict is definitive and matches the paper's
        // Table 2 expectation.
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
        // ATPG and BMC both reach a verdict on every small-scale case, with
        // the same pass/fail polarity and no bounded-semantics conflict.
        let atpg = report.run_of(Engine::Atpg).expect("atpg ran");
        let bmc = report.run_of(Engine::SatBmc).expect("bmc ran");
        assert!(
            atpg.verdict.is_definitive(),
            "{}: ATPG inconclusive: {:?}",
            case.property,
            atpg.verdict
        );
        assert!(
            bmc.verdict.is_definitive(),
            "{}: BMC inconclusive: {:?}",
            case.property,
            bmc.verdict
        );
        assert!(
            !atpg.verdict.conflicts_with(&bmc.verdict),
            "{}: ATPG {:?} vs BMC {:?}",
            case.property,
            atpg.verdict,
            bmc.verdict
        );
        assert_eq!(
            atpg.verdict.is_pass(),
            bmc.verdict.is_pass(),
            "{}: ATPG {} vs BMC {}",
            case.property,
            atpg.verdict.label(),
            bmc.verdict.label()
        );
    }
}

/// Racing (hedged, the default mode of `check_batch`) meets every paper-suite
/// expectation at `Scale::Small` with zero engine disagreements — the racing
/// twin of `batch_checks_paper_suite_with_zero_disagreements`.
#[test]
fn race_checks_paper_suite_with_zero_disagreements() {
    let suite = paper_suite(Scale::Small);
    let jobs: Vec<Verification> = suite.iter().map(|c| c.verification.clone()).collect();
    let reports = Portfolio::new(suite_config()).check_batch(&jobs);
    assert_eq!(reports.len(), 14);
    for (case, report) in suite.iter().zip(&reports) {
        assert_eq!(report.property, case.property);
        assert!(
            report.agreed(),
            "{}: engines disagree: {:?}",
            case.property,
            report.disagreements
        );
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

/// Racing returns the first definitive verdict and cooperatively cancels the
/// losing engines instead of waiting for them.
#[test]
fn race_cancels_losers_promptly() {
    // With 200k random runs, random simulation would churn for minutes
    // without cooperative cancellation.
    let mut config = suite_config();
    config.checker.max_frames = 2;
    config.random_runs = 200_000;
    config.random_cycles = 50;

    // ATPG decides within its head start: nobody else starts, so there is
    // nothing to cancel. A loaded host can hold the lead past the head
    // start, which escalates the race, so the race is retried.
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

    // A hung lead lets the other engines join; SAT-BMC wins and the
    // random-simulation campaign is cancelled.
    config.checker.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let report = Portfolio::new(config).race(&corner_case());
    assert!(
        matches!(report.verdict, Verdict::WitnessFound { .. }),
        "got {:?}",
        report.verdict
    );
    let winner = report.winner.expect("a definitive winner");
    assert_ne!(winner, Engine::RandomSim, "deterministic engines must win");
    let random = report.run_of(Engine::RandomSim).expect("random-sim ran");
    assert!(
        random.cancelled,
        "random simulation should have been cancelled, got {:?}",
        random.verdict
    );
    assert!(
        report.wall_clock < Duration::from_secs(30),
        "cancellation was not prompt: {:?}",
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
