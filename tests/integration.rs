//! Cross-crate integration tests: the full paper suite, agreement between the
//! word-level ATPG checker and the bit-level SAT BMC baseline, trace replay
//! and the Verilog front-end path.

use std::time::Duration;
use wlac::atpg::{AssertionChecker, CancelToken, CheckerOptions, Property, Verdict, Verification};
use wlac::baselines::bounded_model_check;
use wlac::bv::Bv;
use wlac::circuits::{paper_suite, Expectation, Scale};
use wlac::frontend::compile;
use wlac::netlist::Netlist;

fn quick_options() -> CheckerOptions {
    CheckerOptions {
        max_frames: 6,
        time_limit: Duration::from_secs(30),
        ..CheckerOptions::default()
    }
}

/// Every property of the paper's Table 2 produces the expected outcome at the
/// small scale, with the exact label: `proved` and `holds(bound)` both pass,
/// but only one of them is the answer.
#[test]
fn paper_suite_outcomes_match_expectations() {
    let expected_labels = [
        "witness",
        "proved",
        "holds(bound)",
        "witness",
        "proved",
        "witness",
        "proved",
        "witness",
        "proved",
        "proved",
        "proved",
        "proved",
        "proved",
        "proved",
    ];
    let checker = AssertionChecker::new(quick_options());
    let suite = paper_suite(Scale::Small);
    assert_eq!(suite.len(), expected_labels.len());
    for (case, label) in suite.into_iter().zip(expected_labels) {
        let report = checker.check(&case.verification);
        match case.expectation {
            Expectation::Pass => assert!(
                matches!(report.result, Verdict::Holds { .. }),
                "{} expected to pass, got {:?}",
                case.property,
                report.result
            ),
            Expectation::Witness => assert!(
                report.result.trace().is_some(),
                "{} expected a witness, got {:?}",
                case.property,
                report.result
            ),
        }
        assert_eq!(report.result.label(), label, "{}", case.property);
        // Memory accounting is always populated.
        assert!(report.stats.peak_memory_bytes > 0, "{}", case.property);
    }
}

/// The ATPG checker and the SAT BMC baseline never contradict each other on
/// designs the bit-blaster supports, with bounded semantics respected: a
/// trace only contradicts a bounded answer that covers its length. Both run
/// the same bounded problem at the same bound and close the same induction
/// step, so every ATPG proof is a BMC proof too. BMC decides every
/// Small-scale property, with ATPG's pass/fail polarity.
#[test]
fn atpg_and_sat_bmc_agree() {
    let options = quick_options();
    let checker = AssertionChecker::new(options.clone());
    for case in paper_suite(Scale::Small) {
        let atpg = checker.check(&case.verification).result;
        let bmc = bounded_model_check(
            &case.verification,
            options.max_frames,
            500_000,
            &CancelToken::new(),
        );
        let bmc = bmc.verdict;
        assert!(
            bmc.is_definitive(),
            "{}: BMC inconclusive: {bmc:?}",
            case.property
        );
        assert!(
            !atpg.conflicts_with(&bmc),
            "{}: ATPG {atpg:?} contradicts BMC {bmc:?}",
            case.property
        );
        assert_eq!(
            atpg.is_pass(),
            bmc.is_pass(),
            "{}: ATPG {} vs BMC {}",
            case.property,
            atpg.label(),
            bmc.label()
        );
        if matches!(atpg, Verdict::Holds { proved: true, .. }) {
            assert_eq!(bmc.label(), "proved", "{}: {bmc:?}", case.property);
        }
    }
}

/// Counter-example traces replay to a real violation on the sequential design.
#[test]
fn counterexample_traces_replay() {
    // A counter that is asserted (wrongly) to stay below 3.
    let mut nl = Netlist::new("cex");
    let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
    let one = nl.constant(&Bv::from_u64(4, 1));
    let next = nl.add(q, one);
    nl.connect_dff_data(ff, next);
    let three = nl.constant(&Bv::from_u64(4, 3));
    let ok = nl.lt(q, three);
    let property = Property::always(&nl, "below_3", ok);
    let verification = Verification::new(nl, property);
    let report = AssertionChecker::new(quick_options()).check(&verification);
    match report.result {
        Verdict::Violated { trace } => {
            let values = trace
                .replay_monitor(&verification.netlist, verification.property.monitor)
                .expect("replay");
            assert_eq!(values.last(), Some(&false));
            assert_eq!(trace.len(), 4, "q reaches 3 after three steps");
        }
        other => panic!("expected a counter-example, got {other:?}"),
    }
}

/// Verilog source flows through the front end into the checker.
#[test]
fn verilog_to_checker_flow() {
    let netlist = compile(
        r#"
        module gray2(input clk, input step, output reg [1:0] state);
          always @(posedge clk) begin
            if (step)
              state <= {state[0], ~state[1]};
          end
        endmodule
        "#,
    )
    .expect("compiles");
    let mut design = netlist.clone();
    let state = design.find_net("state").expect("state register");
    // The 2-bit Gray counter visits every state, so `state != 2'b10` must fail.
    let avoided = design.constant(&Bv::from_u64(2, 0b10));
    let ok = design.ne(state, avoided);
    let property = Property::always(&design, "avoids_10", ok);
    let report = AssertionChecker::new(quick_options()).check(&Verification::new(design, property));
    assert!(
        matches!(report.result, Verdict::Violated { .. }),
        "got {:?}",
        report.result
    );
}

/// The façade crate exposes every subsystem.
#[test]
fn facade_reexports_are_usable() {
    let ring = wlac::modsolve::Ring::new(4);
    assert_eq!(ring.mul(5, 7), 3);
    let cube: wlac::bv::Bv3 = "4'b10xx".parse().expect("parses");
    assert_eq!(cube.count_x(), 2);
    assert_eq!(wlac::circuits::paper_table1().len(), 9);
}
