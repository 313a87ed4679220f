//! Learning-soundness and service integration tests.
//!
//! The learning store must shape *effort*, never *verdicts*: clause-seeded
//! BMC has to agree with cold BMC on every outcome across the whole circuits
//! suite, and a poisoned knowledge base must be rejected rather than
//! trusted. The service's ATPG runs are the plain check, so a property's
//! search does not depend on which properties of its design ran first.

use std::time::Duration;
use wlac::atpg::CancelToken;
use wlac::atpg::{AssertionChecker, Property, Verdict, Verification};
use wlac::baselines::{bounded_model_check_learning, FrameClause, FrameLit};
use wlac::circuits::{paper_suite, Scale};
use wlac::netlist::NetId;
use wlac::portfolio::{Engine, PortfolioConfig};
use wlac::service::{
    design_hash, KnowledgeBase, KnowledgeError, ServiceConfig, VerificationService,
};

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

/// A six-state start/stop sequencer with six properties, as the benchmark's
/// design generator writes them: `go` leaves state 0, then one state per
/// cycle up to 5 unless `stop` resets it.
const SEQUENCER: &str = "module fsm(input clk, input go, input stop,
    output p0, output p1, output p2, output p3, output p4, output p5);
  reg [2:0] s;
  always @(posedge clk) begin
    if (s == 0) begin
      if (go)
        s <= 1;
    end else if (s == 5) begin
      s <= 0;
    end else begin
      if (stop)
        s <= 0;
      else
        s <= s + 1;
    end
  end
  assign p0 = s < 6;
  assign p1 = s != 2;
  assign p2 = s == 3;
  assign p3 = s == 6;
  assign p4 = s != 6;
  assign p5 = (s == 4) & stop;
endmodule
";

/// A six-bit counter with an enable that wraps after 40, with six
/// properties, as the benchmark's design generator writes them.
const COUNTER: &str = "module cnt(input clk, input en,
    output p0, output p1, output p2, output p3, output p4, output p5);
  reg [5:0] q;
  always @(posedge clk) begin
    if (en) begin
      if (q == 40)
        q <= 0;
      else
        q <= q + 1;
    end
  end
  assign p0 = q < 41;
  assign p1 = q != 3;
  assign p2 = q == 2;
  assign p3 = q == 41;
  assign p4 = q != 41;
  assign p5 = q < 4;
endmodule
";

/// The properties `p0`..`p5` of a compiled design: `true` marks an
/// `always` property, `false` an `eventually` one.
fn six_properties(source: &str, always: [bool; 6]) -> Vec<Verification> {
    let netlist = wlac::frontend::compile(source).expect("the design compiles");
    always
        .iter()
        .enumerate()
        .map(|(i, &always)| {
            let name = format!("p{i}");
            let monitor = netlist
                .outputs()
                .iter()
                .find(|(output, _)| *output == name)
                .map(|&(_, net)| net)
                .expect("a monitor per property");
            let property = if always {
                Property::always(&netlist, name, monitor)
            } else {
                Property::eventually(&netlist, name, monitor)
            };
            Verification::new(netlist.clone(), property)
        })
        .collect()
}

/// Every ATPG run of the service is the plain check: a property's search,
/// submitted after the other properties of its design in either order,
/// makes exactly the decisions `AssertionChecker::check` makes for it alone.
#[test]
fn a_property_search_does_not_depend_on_the_properties_before_it() {
    let config = ServiceConfig {
        workers: 1,
        portfolio: PortfolioConfig::default().with_engines(vec![Engine::Atpg]),
        ..ServiceConfig::default()
    };
    let checker = AssertionChecker::new(config.portfolio.checker.clone());
    for jobs in [
        six_properties(SEQUENCER, [true, true, false, false, true, false]),
        six_properties(COUNTER, [true, true, false, false, true, true]),
    ] {
        let alone: Vec<u64> = jobs
            .iter()
            .map(|job| checker.check(job).stats.decisions)
            .collect();
        let forward: Vec<usize> = (0..jobs.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, backward] {
            let service = VerificationService::new(config.clone());
            let batch = service.submit_batch(order.iter().map(|&i| jobs[i].clone()).collect());
            service.wait(batch);
            let slots = service.batch_slots(batch).expect("a retained batch");
            for (slot, &i) in slots.iter().zip(&order) {
                let (result, probe) = slot.as_ref().expect("a completed job");
                assert!(!result.from_cache, "{result:?}");
                assert_eq!(result.winner, Some(Engine::Atpg), "{result:?}");
                assert_eq!(
                    probe.decisions,
                    alone[i],
                    "{} of {}, order {order:?}",
                    result.property,
                    jobs[i].netlist.name()
                );
            }
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
