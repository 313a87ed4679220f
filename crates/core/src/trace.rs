//! Counter-example and witness traces.

use std::collections::HashMap;
use std::fmt;
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};
use wlac_sim::{simulate, SimRun, SimulateError};

/// A finite execution of the original (sequential) design: an initial state
/// plus primary-input values for every cycle.
///
/// Produced by the checker as a counter-example to a safety assertion or as a
/// witness for an `Eventually` objective, and replayable against the design
/// with a concrete simulator via [`Trace::replay_monitor`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Flip-flop output values at cycle 0 (original netlist nets).
    pub initial_state: Vec<(NetId, Bv)>,
    /// Primary input values per cycle (original netlist nets).
    pub inputs: Vec<Vec<(NetId, Bv)>>,
}

impl Trace {
    /// Number of cycles in the trace.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when the trace has no cycles.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// The value driven on `net` during `cycle`, if the trace specifies one.
    pub fn input_value(&self, cycle: usize, net: NetId) -> Option<&Bv> {
        self.inputs
            .get(cycle)
            .and_then(|frame| frame.iter().find(|(n, _)| *n == net).map(|(_, v)| v))
    }

    /// Replays the trace on `netlist` and returns the value of `monitor` in
    /// every cycle (the pre-clock, combinational view of each cycle).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (width mismatches, combinational cycles).
    pub fn replay_monitor(
        &self,
        netlist: &Netlist,
        monitor: NetId,
    ) -> Result<Vec<bool>, SimulateError> {
        let run = self.simulate(netlist)?;
        Ok((0..self.len())
            .map(|cycle| !run.value(cycle, monitor).is_zero())
            .collect())
    }

    /// Simulates the trace on `netlist`: one cycle per input frame, from the
    /// trace's initial state (reset values for the flip-flops it leaves
    /// out). `SimRun::value` reads any net in any cycle.
    ///
    /// # Errors
    ///
    /// Propagates simulation errors (width mismatches, combinational cycles).
    pub(crate) fn simulate(&self, netlist: &Netlist) -> Result<SimRun, SimulateError> {
        let cycles: Vec<HashMap<NetId, Bv>> = self
            .inputs
            .iter()
            .map(|frame| frame.iter().cloned().collect())
            .collect();
        simulate(netlist, &self.initial_state, &cycles)
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "trace over {} cycle(s)", self.len())?;
        if !self.initial_state.is_empty() {
            writeln!(f, "  initial state:")?;
            for (net, value) in &self.initial_state {
                writeln!(f, "    {net} = {value}")?;
            }
        }
        for (cycle, frame) in self.inputs.iter().enumerate() {
            writeln!(f, "  cycle {cycle}:")?;
            for (net, value) in frame {
                writeln!(f, "    {net} = {value}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_against_simple_design() {
        // q' = q + in ; monitor: q != 3.
        let mut nl = Netlist::new("acc");
        let input = nl.input("in", 4);
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let next = nl.add(q, input);
        nl.connect_dff_data(ff, next);
        let three = nl.constant(&Bv::from_u64(4, 3));
        let ok = nl.ne(q, three);
        nl.mark_output("ok", ok);

        let trace = Trace {
            initial_state: vec![(q, Bv::zero(4))],
            inputs: vec![
                vec![(input, Bv::from_u64(4, 1))],
                vec![(input, Bv::from_u64(4, 2))],
                vec![(input, Bv::from_u64(4, 5))],
            ],
        };
        assert_eq!(trace.len(), 3);
        assert!(!trace.is_empty());
        assert_eq!(trace.input_value(1, input), Some(&Bv::from_u64(4, 2)));
        let monitor_values = trace.replay_monitor(&nl, ok).unwrap();
        // q is 0, 1, 3 at the three cycles → monitor fails at the last cycle.
        assert_eq!(monitor_values, vec![true, true, false]);
        let text = trace.to_string();
        assert!(text.contains("cycle 2"));
        assert!(text.contains("initial state"));
    }
}
