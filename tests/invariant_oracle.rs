//! Explicit-state oracle for the checker's verdicts on seeded small counters
//! and sequencers (state widths 3–6, `<` and `!=` monitors), compiled by the
//! Verilog front end.
//!
//! The oracle enumerates every state and every input combination with the
//! concrete simulator: a breadth-first search from the reset state gives the
//! depth of the shallowest reachable violation, and a sweep over all states
//! decides whether the monitor is 1-inductive. Against it, every verdict must
//! be exactly right: a reachable violation within the bound is a
//! counter-example that replays from the reset state at that depth, a
//! 1-inductive invariant that holds at reset is `Proved`, a `Proved` monitor
//! holds in every reachable state, and everything else holds up to the bound.

use std::collections::{HashMap, VecDeque};
use std::time::Duration;
use wlac::atpg::{AssertionChecker, CheckResult, CheckerOptions, Property, Verification};
use wlac::bv::Bv;
use wlac::netlist::{GateKind, NetId, Netlist};
use wlac::sim::Simulator;
use wlac_rng::Rng64;

const MAX_FRAMES: usize = 8;
const DESIGNS: usize = 36;
const MONITORS: [&str; 4] = ["p0", "p1", "p2", "p3"];

/// The four monitors over state register `r`: the invariant the design is
/// built around (`r < bound`, `r != bound`), and the same two comparisons
/// against a random constant.
fn monitors(r: &str, bound: u64, k_lt: u64, k_ne: u64) -> String {
    format!(
        "  assign p0 = {r} < {bound};\n  assign p1 = {r} != {bound};\n  assign p2 = {r} < {k_lt};\n  assign p3 = {r} != {k_ne};\n"
    )
}

/// The source of design `index`: a counter, a saturating counter or a
/// sequencer, in turn.
fn generate(rng: &mut Rng64, index: usize) -> String {
    let width = rng.next_range(3, 6);
    let top = (1u64 << width) - 1;
    let last = rng.next_range(2, top - 1);
    let k_lt = rng.next_range(1, top);
    let k_ne = rng.next_range(0, top);
    let hi = width - 1;
    let ports = "output p0, output p1, output p2, output p3";
    match index % 3 {
        // A wrapping counter with an enable: q walks 0..=last.
        0 => format!(
            "module cnt{index}(input clk, input en, {ports});
  reg [{hi}:0] q;
  always @(posedge clk) begin
    if (en) begin
      if (q == {last})
        q <= 0;
      else
        q <= q + 1;
    end
  end
{}endmodule
",
            monitors("q", last + 1, k_lt, k_ne)
        ),
        // A saturating counter: q climbs to last and stays there.
        1 => format!(
            "module sat{index}(input clk, {ports});
  reg [{hi}:0] q;
  always @(posedge clk) begin
    if (q == {last})
      q <= {last};
    else
      q <= q + 1;
  end
{}endmodule
",
            monitors("q", last + 1, k_lt, k_ne)
        ),
        // A start/stop sequencer: go leaves state 0, then one state per
        // cycle up to last unless stop resets it.
        _ => format!(
            "module fsm{index}(input clk, input go, input stop, {ports});
  reg [{hi}:0] s;
  always @(posedge clk) begin
    if (s == 0) begin
      if (go)
        s <= 1;
    end else if (s == {last}) begin
      s <= 0;
    end else begin
      if (stop)
        s <= 0;
      else
        s <= s + 1;
    end
  end
{}endmodule
",
            monitors("s", last + 1, k_lt, k_ne)
        ),
    }
}

/// A value for every flip-flop output.
type State = Vec<(NetId, Bv)>;

/// One state's row of the transition table.
struct Row {
    /// Some input makes the monitor 0 in this state.
    violates: bool,
    /// Some input makes the monitor 1 in this state.
    satisfies: bool,
    /// The successor under each input combination.
    successors: Vec<State>,
}

/// What exhaustive simulation says about one `always` monitor.
struct Oracle {
    /// Depth (cycles from reset) of the shallowest reachable state in which
    /// some input makes the monitor 0.
    violation_depth: Option<usize>,
    /// No state satisfying the monitor (for some input) has a successor
    /// violating it (for some input).
    inductive: bool,
    /// The reset state.
    reset: State,
}

/// Every assignment of values to `nets` (at most 12 bits in total).
fn all_assignments(netlist: &Netlist, nets: &[NetId]) -> Vec<State> {
    let widths: Vec<usize> = nets.iter().map(|n| netlist.net_width(*n)).collect();
    let bits: usize = widths.iter().sum();
    assert!(bits <= 12, "{bits} bits is too many to enumerate");
    (0..1u64 << bits)
        .map(|mut code| {
            nets.iter()
                .zip(&widths)
                .map(|(net, width)| {
                    let value = code & ((1 << width) - 1);
                    code >>= width;
                    (*net, Bv::from_u64(*width, value))
                })
                .collect()
        })
        .collect()
}

fn oracle(netlist: &Netlist, monitor: NetId) -> Oracle {
    let flops: Vec<(NetId, NetId, Bv)> = netlist
        .flip_flops()
        .into_iter()
        .map(|ff| {
            let gate = netlist.gate(ff);
            let width = netlist.net_width(gate.output);
            let GateKind::Dff { init } = &gate.kind else {
                unreachable!("flip_flops returns flip-flops")
            };
            let reset = init.clone().unwrap_or_else(|| Bv::zero(width));
            (gate.output, gate.inputs[0], reset)
        })
        .collect();
    let state_nets: Vec<NetId> = flops.iter().map(|(q, _, _)| *q).collect();
    let input_combos = all_assignments(netlist, netlist.inputs());
    let mut sim = Simulator::new(netlist).expect("acyclic design");
    let mut row = |state: &State| {
        let mut row = Row {
            violates: false,
            satisfies: false,
            successors: Vec::new(),
        };
        for inputs in &input_combos {
            for (net, value) in state {
                sim.set_state(*net, value.clone());
            }
            let values = sim.evaluate_combinational(inputs).expect("simulates");
            if values[monitor.index()].is_zero() {
                row.violates = true;
            } else {
                row.satisfies = true;
            }
            let next = flops
                .iter()
                .map(|(q, d, _)| (*q, values[d.index()].clone()))
                .collect();
            row.successors.push(next);
        }
        row
    };
    let table: HashMap<State, Row> = all_assignments(netlist, &state_nets)
        .into_iter()
        .map(|state| {
            let row = row(&state);
            (state, row)
        })
        .collect();

    let inductive = table
        .values()
        .all(|row| !row.satisfies || row.successors.iter().all(|next| !table[next].violates));

    let reset: State = flops.iter().map(|(q, _, r)| (*q, r.clone())).collect();
    let mut depth = HashMap::from([(reset.clone(), 0usize)]);
    let mut queue = VecDeque::from([reset.clone()]);
    let mut violation_depth = None;
    while let Some(state) = queue.pop_front() {
        let d = depth[&state];
        if table[&state].violates {
            violation_depth = Some(d);
            break;
        }
        for next in &table[&state].successors {
            if !depth.contains_key(next) {
                depth.insert(next.clone(), d + 1);
                queue.push_back(next.clone());
            }
        }
    }
    Oracle {
        violation_depth,
        inductive,
        reset,
    }
}

#[test]
fn atpg_verdicts_match_an_explicit_state_oracle() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0017);
    let checker = AssertionChecker::new(CheckerOptions {
        max_frames: MAX_FRAMES,
        time_limit: Duration::from_secs(30),
        ..CheckerOptions::default()
    });
    let mut proved = 0;
    for index in 0..DESIGNS {
        let source = generate(&mut rng, index);
        let netlist = wlac::frontend::compile(&source).expect("compiles");
        for name in MONITORS {
            let monitor = netlist
                .outputs()
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, net)| *net)
                .expect("monitor output");
            let truth = oracle(&netlist, monitor);
            let property = Property::always(&netlist, name, monitor);
            let report = checker.check(&Verification::new(netlist.clone(), property));
            let context = format!("{name} of\n{source}got {:?}", report.result);
            match (&report.result, truth.violation_depth) {
                (CheckResult::CounterExample { trace }, Some(depth)) => {
                    assert_eq!(trace.len(), depth + 1, "{context}");
                    assert_eq!(trace.initial_state, truth.reset, "{context}");
                    let replay = trace.replay_monitor(&netlist, monitor).expect("replays");
                    assert_eq!(replay.last(), Some(&false), "{context}");
                    assert!(depth < MAX_FRAMES, "{context}");
                }
                (CheckResult::Proved, None) => {
                    assert!(truth.inductive, "{context}");
                    proved += 1;
                }
                (CheckResult::HoldsUpToBound { frames }, violation) => {
                    assert_eq!(*frames, MAX_FRAMES, "{context}");
                    assert!(violation.is_none_or(|d| d >= MAX_FRAMES), "{context}");
                    assert!(!truth.inductive || violation.is_some(), "{context}");
                }
                _ => panic!(
                    "{context}, oracle violation depth {:?}",
                    truth.violation_depth
                ),
            }
        }
    }
    // Both of every design's own invariants, p0 and p1, are 1-inductive.
    assert!(proved >= 2 * DESIGNS, "only {proved} proofs");
}
