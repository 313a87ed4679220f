//! Seeded generator of small Verilog-subset designs for `design_stream`.
//!
//! Every design carries six properties whose answers are known by
//! construction: registers power up at zero, so a counter or FSM reaches
//! state `k` after exactly `k` enabled cycles and never leaves its declared
//! range, and twice a word-level sum is always even. Violations and
//! witnesses are at most five cycles deep, inside the portfolio's default
//! eight-frame bound, so a sound engine must find them.

use wlac_atpg::{Property, Verification};
use wlac_rng::Rng64;

/// The answer a property must get.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// `always` that holds: `proved` or `holds(bound)`.
    Holds,
    /// `always` that fails within five cycles: `violated`.
    Violated,
    /// `eventually` reachable within five cycles: `witness`.
    Witness,
    /// `eventually` that is unreachable: `no witness`.
    NoWitness,
}

impl Truth {
    /// The property kind on the wire.
    pub fn kind(self) -> &'static str {
        match self {
            Truth::Holds | Truth::Violated => "always",
            Truth::Witness | Truth::NoWitness => "eventually",
        }
    }

    /// `true` when `label` is a sound answer for this property.
    pub fn accepts(self, label: &str) -> bool {
        match self {
            Truth::Holds => label == "proved" || label == "holds(bound)",
            Truth::Violated => label == "violated",
            Truth::Witness => label == "witness",
            Truth::NoWitness => label == "no witness",
        }
    }
}

/// One generated property: the output that monitors it and its answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenProperty {
    pub monitor: String,
    pub truth: Truth,
}

/// One generated design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenDesign {
    pub source: String,
    pub properties: Vec<GenProperty>,
    /// `true` for the word-level datapaths, the designs that reach `modsolve`.
    pub datapath: bool,
}

/// `count` designs from `seed`: four counters, three FSMs and three
/// datapaths in every ten, so the mix of work is the same for every seed
/// and only sizes, constants and depths vary.
pub fn generate(seed: u64, count: usize) -> Vec<GenDesign> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x6a09_e667_f3bc_c908);
    (0..count)
        .map(|i| match i % 10 {
            0..=3 => counter(&mut rng, i),
            4..=6 => fsm(&mut rng, i),
            _ => datapath(&mut rng, i),
        })
        .collect()
}

impl GenDesign {
    /// The design's properties as in-process verifications, compiled by
    /// the same front end the server's `register_design` uses.
    pub fn verifications(&self) -> Result<Vec<Verification>, String> {
        let netlist = wlac_frontend::compile(&self.source).map_err(|e| e.to_string())?;
        self.properties
            .iter()
            .map(|p| {
                let net = netlist
                    .outputs()
                    .iter()
                    .find(|(n, _)| *n == p.monitor)
                    .map(|(_, net)| *net)
                    .ok_or_else(|| format!("no output {}", p.monitor))?;
                let property = match p.truth {
                    Truth::Holds | Truth::Violated => Property::always(&netlist, &p.monitor, net),
                    Truth::Witness | Truth::NoWitness => {
                        Property::eventually(&netlist, &p.monitor, net)
                    }
                };
                Ok(Verification::new(netlist.clone(), property))
            })
            .collect()
    }
}

fn properties(truths: [Truth; 6]) -> Vec<GenProperty> {
    truths
        .iter()
        .enumerate()
        .map(|(i, &truth)| GenProperty {
            monitor: format!("p{i}"),
            truth,
        })
        .collect()
}

const PORTS: &str = "output p0, output p1, output p2, output p3, output p4, output p5";

/// An unused constant that makes every design of a run structurally
/// distinct: the design hash ignores names, and two designs that hash alike
/// would share cache entries and no longer be cold.
fn tag(index: usize) -> String {
    format!("  wire [15:0] tag;\n  assign tag = {};\n", index % 65_536)
}

/// A wrapping counter with an enable: `q` walks `0..=limit`.
fn counter(rng: &mut Rng64, index: usize) -> GenDesign {
    let width = rng.next_range(4, 8);
    let limit = rng.next_range(6, (1 << width) - 2);
    let shallow = |rng: &mut Rng64| rng.next_range(1, 5);
    let (v1, w2, v5) = (shallow(rng), shallow(rng), shallow(rng));
    let source = format!(
        "module cnt{index}(input clk, input en, {PORTS});
{tag}  reg [{hi}:0] q;
  always @(posedge clk) begin
    if (en) begin
      if (q == {limit})
        q <= 0;
      else
        q <= q + 1;
    end
  end
  assign p0 = q < {above};
  assign p1 = q != {v1};
  assign p2 = q == {w2};
  assign p3 = q == {above};
  assign p4 = q != {above};
  assign p5 = q < {v5};
endmodule
",
        hi = width - 1,
        above = limit + 1,
        tag = tag(index),
    );
    GenDesign {
        source,
        properties: properties([
            Truth::Holds,
            Truth::Violated,
            Truth::Witness,
            Truth::NoWitness,
            Truth::Holds,
            Truth::Violated,
        ]),
        datapath: false,
    }
}

/// A start/stop sequencer: `go` leaves state 0, then one state per cycle up
/// to `states - 1` unless `stop` resets it.
fn fsm(rng: &mut Rng64, index: usize) -> GenDesign {
    let states = rng.next_range(4, 6);
    let deep = |rng: &mut Rng64| rng.next_range(1, states - 1);
    let (k1, k2, k5) = (deep(rng), deep(rng), deep(rng));
    let source = format!(
        "module fsm{index}(input clk, input go, input stop, {PORTS});
{tag}  reg [2:0] s;
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
  assign p0 = s < {states};
  assign p1 = s != {k1};
  assign p2 = s == {k2};
  assign p3 = s == {states};
  assign p4 = s != {states};
  assign p5 = (s == {k5}) & stop;
endmodule
",
        last = states - 1,
        tag = tag(index),
    );
    GenDesign {
        source,
        properties: properties([
            Truth::Holds,
            Truth::Violated,
            Truth::Witness,
            Truth::NoWitness,
            Truth::Holds,
            Truth::Witness,
        ]),
        datapath: false,
    }
}

/// A word-level adder chain compared against constants: `2·(a+b+c+d)` is
/// even, so it never equals an odd constant, but any even one is reachable.
fn datapath(rng: &mut Rng64, index: usize) -> GenDesign {
    let width = rng.next_range(8, 24);
    let mask = (1u64 << width) - 1;
    let odd = |rng: &mut Rng64| rng.next_u64() & mask | 1;
    let (odd0, odd3, odd4) = (odd(rng), odd(rng), odd(rng));
    let even = rng.next_u64() & mask & !1;
    let (k2, k5) = (rng.next_u64() & mask, rng.next_u64() & mask);
    let source = format!(
        "module dp{index}(input [{hi}:0] a, input [{hi}:0] b, input [{hi}:0] c, input [{hi}:0] d,
    input c0, input c1, input c2, input c3, {PORTS});
{tag}  wire [{hi}:0] s;
  wire [{hi}:0] dbl;
  assign s = a + b + c + d;
  assign dbl = s + s;
  assign p0 = !((c0 | c1) & (c2 | c3) & (dbl == {odd0}));
  assign p1 = !(c0 & (dbl == {even}));
  assign p2 = c1 & (s == {k2});
  assign p3 = (c2 | c3) & (dbl == {odd3});
  assign p4 = dbl != {odd4};
  assign p5 = c3 & (a + b == {k5});
endmodule
",
        hi = width - 1,
        tag = tag(index),
    );
    GenDesign {
        source,
        properties: properties([
            Truth::Holds,
            Truth::Violated,
            Truth::Witness,
            Truth::NoWitness,
            Truth::Holds,
            Truth::Witness,
        ]),
        datapath: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_portfolio::Portfolio;

    #[test]
    fn same_seed_same_designs_and_truth() {
        assert_eq!(generate(7, 40), generate(7, 40));
        assert_ne!(generate(7, 40), generate(8, 40));
        let kinds = generate(7, 40);
        assert!(kinds.iter().any(|d| d.datapath));
        assert!(kinds.iter().any(|d| d.source.starts_with("module cnt")));
        assert!(kinds.iter().any(|d| d.source.starts_with("module fsm")));
    }

    #[test]
    fn every_design_compiles_and_names_its_monitors() {
        let mut hashes = std::collections::HashSet::new();
        for design in generate(3, 60) {
            let netlist = wlac_frontend::compile(&design.source)
                .unwrap_or_else(|e| panic!("{e}\n{}", design.source));
            for property in &design.properties {
                assert!(
                    netlist
                        .outputs()
                        .iter()
                        .any(|(n, _)| *n == property.monitor),
                    "{} lacks {}",
                    netlist.name(),
                    property.monitor
                );
            }
            assert!(hashes.insert(wlac_service::design_hash(&netlist)));
        }
    }

    /// The in-process portfolio agrees with the generator's ground truth.
    #[test]
    fn portfolio_agrees_with_ground_truth() {
        let portfolio = Portfolio::with_defaults();
        for design in generate(11, 10) {
            for (job, property) in design
                .verifications()
                .unwrap()
                .iter()
                .zip(&design.properties)
            {
                let report = portfolio.race(job);
                assert!(
                    property.truth.accepts(report.verdict.label()),
                    "{} {}: {:?} got {}",
                    job.netlist.name(),
                    property.monitor,
                    property.truth,
                    report.verdict.label()
                );
            }
        }
    }
}
