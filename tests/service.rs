//! Learning-soundness and service integration tests.
//!
//! The cross-property learning store must shape *effort*, never *verdicts*:
//! warm-started runs (clause-seeded BMC, cube/fact-seeded ATPG) have to agree
//! with cold runs on every verdict and produce equally valid traces across
//! the whole circuits suite, and a poisoned knowledge base must be rejected
//! rather than trusted.

use std::time::Duration;
use wlac::atpg::CancelToken;
use wlac::atpg::{AssertionChecker, CheckerOptions, SearchKnowledge, Verdict};
use wlac::baselines::{bounded_model_check_learning, FrameClause, FrameLit};
use wlac::circuits::{paper_suite, Scale};
use wlac::netlist::NetId;
use wlac::service::{
    design_hash, KnowledgeBase, KnowledgeError, ServiceConfig, VerificationService,
};

fn suite_options() -> CheckerOptions {
    CheckerOptions {
        max_frames: 6,
        time_limit: Duration::from_secs(60),
        ..CheckerOptions::default()
    }
}

/// Two verdicts "agree" when they have the same label at the same depth.
/// Traces may differ bit-for-bit between runs (seeding legally reorders
/// decisions), but a counter-example/witness must exist at the same first
/// bound — so trace *lengths* must match — and each trace is validated by
/// replay separately.
fn assert_agrees(property: &str, cold: &Verdict, warm: &Verdict) {
    assert_eq!(
        (cold.label(), cold.bound()),
        (warm.label(), warm.bound()),
        "{property}: cold {cold:?} vs warm {warm:?}"
    );
}

/// ATPG differential: for every suite property, a knowledge-seeded re-check
/// (ESTG conflict cubes + datapath infeasibility facts from a priming run)
/// reaches the same verdict, depth and trace validity as the cold check.
#[test]
fn warm_atpg_verdicts_match_cold_across_the_suite() {
    let checker = AssertionChecker::new(suite_options());
    for case in paper_suite(Scale::Small) {
        let cold = checker.check(&case.verification);
        // Prime a knowledge base on the same design, then re-check warm.
        let mut knowledge = SearchKnowledge::new();
        let primed = checker.check_learned(&case.verification, &mut knowledge);
        assert_agrees(&case.property, &cold.result, &primed.result);
        let warm = checker.check_learned(&case.verification, &mut knowledge);
        assert_agrees(&case.property, &cold.result, &warm.result);
        // Any warm trace must replay to the claimed behaviour on its own.
        if let Some(trace) = warm.result.trace() {
            let replay = trace
                .replay_monitor(
                    &case.verification.netlist,
                    case.verification.property.monitor,
                )
                .expect("warm trace must replay");
            let expected = matches!(warm.result, Verdict::WitnessFound { .. });
            assert_eq!(
                replay.last(),
                Some(&expected),
                "{}: warm trace fails replay",
                case.property
            );
        }
    }
}

/// BMC differential: replaying harvested design-valid clauses never changes
/// a bounded-model-checking outcome anywhere in the suite, and violations
/// are found at the same depth.
#[test]
fn warm_bmc_outcomes_match_cold_across_the_suite() {
    let cancel = CancelToken::new();
    for case in paper_suite(Scale::Small) {
        let (cold, harvest) =
            bounded_model_check_learning(&case.verification, 6, 2_000_000, &cancel, &[]);
        for clause in &harvest {
            assert!(
                clause.is_well_formed(&case.verification.netlist),
                "{}: malformed harvest {clause:?}",
                case.property
            );
        }
        let (warm, _) =
            bounded_model_check_learning(&case.verification, 6, 2_000_000, &cancel, &harvest);
        assert_agrees(&case.property, &cold.verdict, &warm.verdict);
    }
}

/// Service end-to-end: the industry suite submitted twice. The second run
/// must be answered entirely from the verdict cache (no engines spawned)
/// with verdicts agreeing with the first run's.
#[test]
fn repeated_batch_is_served_from_cache_with_identical_verdicts() {
    let mut config = ServiceConfig::default();
    config.portfolio.checker.max_frames = 6;
    config.portfolio.checker.time_limit = Duration::from_secs(60);
    config.portfolio.bmc_decision_budget = 2_000_000;
    let service = VerificationService::new(config);

    let jobs: Vec<_> = paper_suite(Scale::Small)
        .into_iter()
        .map(|case| case.verification)
        .collect();

    let cold = service.wait(service.submit_batch(jobs.clone()));
    assert_eq!(cold.len(), 14);
    for result in &cold {
        assert!(!result.from_cache);
        assert!(
            result.verdict.is_definitive(),
            "{}: {:?}",
            result.property,
            result.verdict
        );
    }

    let warm = service.wait(service.submit_batch(jobs));
    for (c, w) in cold.iter().zip(&warm) {
        assert!(w.from_cache, "{}: expected a cache hit", w.property);
        assert_eq!(
            w.engines_spawned, 0,
            "{}: cache hits spawn nothing",
            w.property
        );
        assert_eq!(
            std::mem::discriminant(&c.verdict),
            std::mem::discriminant(&w.verdict),
            "{}: cached verdict class diverged",
            w.property
        );
    }

    let stats = service.stats();
    assert_eq!(stats.cache_hits, 14);
    assert_eq!(stats.cache_misses, 14);
    assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-9);
}

/// A corrupted or foreign knowledge base is rejected with a diagnostic, and
/// nothing of it reaches the design's store.
#[test]
fn poisoned_knowledge_is_rejected_not_trusted() {
    let service = VerificationService::new(ServiceConfig::default());
    let case = &paper_suite(Scale::Small)[4]; // arbiter p5
    let design = service.register_design(&case.verification.netlist);

    // Corrupt store: right design binding, garbage clause inside.
    let mut poisoned = KnowledgeBase::new(design);
    poisoned.clauses.insert(&FrameClause {
        depth: 1,
        lits: vec![FrameLit {
            frame: 0,
            net: NetId::from_index(1_000_000),
            bit: 7,
            negated: false,
        }],
    });
    match service.import_knowledge(design, &poisoned) {
        Err(KnowledgeError::MalformedClause { index }) => assert_eq!(index, 0),
        other => panic!("poisoned store must be rejected, got {other:?}"),
    }

    // Foreign store: bound to a different design hash.
    let other = &paper_suite(Scale::Small)[6]; // alarm_clock p7
    let foreign = KnowledgeBase::new(design_hash(&other.verification.netlist));
    assert!(matches!(
        service.import_knowledge(design, &foreign),
        Err(KnowledgeError::DesignMismatch { .. })
    ));

    // The design's own store is untouched and still importable.
    let clean = service.export_knowledge(design).expect("registered");
    assert!(clean.clauses.is_empty());
    assert!(service.import_knowledge(design, &clean).is_ok());
}
