//! Service integration tests.
//!
//! Every engine of a race runs cold and the service keeps nothing of a race
//! but its verdict, so a property's search does not depend on which
//! properties of its design ran first, and the verdict cache answers the
//! repeats.

use std::time::Duration;
use wlac::atpg::{AssertionChecker, Property, Verification};
use wlac::circuits::{paper_suite, Scale};
use wlac::netlist::NetId;
use wlac::portfolio::{Engine, PortfolioConfig};
use wlac::service::{ServiceConfig, VerificationService};

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

/// Every race starts the configured engines, whatever ran on its design
/// before. ATPG decides four `x | !x` properties of paper-scale p11's design
/// first; p11, whose induction step ATPG gives up on, is then still proved
/// by SAT-BMC.
#[test]
fn a_verdict_does_not_depend_on_the_properties_raced_before_it() {
    let case = paper_suite(Scale::Paper)
        .into_iter()
        .find(|case| case.property == "p11")
        .expect("p11 is in the suite");
    let mut netlist = case.verification.netlist.clone();
    let input = netlist.inputs()[0];
    let width = netlist.net_width(input);
    let monitors: Vec<NetId> = (0..4)
        .map(|i| {
            let x = netlist.bit(input, i % width);
            let not_x = netlist.not(x);
            netlist.or2(x, not_x)
        })
        .collect();
    let service = VerificationService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    for (i, &monitor) in monitors.iter().enumerate() {
        let property = Property::always(&netlist, format!("x{i}"), monitor);
        let job = Verification::new(netlist.clone(), property);
        service.wait(service.submit_batch(vec![job]));
    }
    let p11 = Verification {
        netlist,
        property: case.verification.property.clone(),
        environment: case.verification.environment.clone(),
    };
    let result = service.wait(service.submit_batch(vec![p11])).remove(0);
    assert_eq!(result.verdict.label(), "proved", "{result:?}");
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
