//! Justification support: unjustified-gate detection, decision-point cuts and
//! the legal-1 / legal-0 probability heuristic (Section 3.2 of the paper).
//!
//! All per-decision bookkeeping lives in [`JustifyBuffers`]: dense,
//! generation-stamped arrays indexed by net replace the per-call
//! `HashSet`/`HashMap`s, so the steady-state decision loop performs no heap
//! allocation (the buffers are created once per search and reused).

use crate::assignment::Assignment;
use crate::implication::forward_eval;
use std::collections::VecDeque;
use wlac_netlist::{GateId, GateKind, NetId, Netlist};

/// Whether one gate's output carries required (known) bits that are not yet
/// implied by its current input values.
pub(crate) fn gate_is_unjustified(netlist: &Netlist, id: GateId, asg: &Assignment) -> bool {
    let gate = netlist.gate(id);
    let required = asg.value(gate.output);
    if required.is_all_x() {
        return false;
    }
    let forward = forward_eval(netlist, gate, asg);
    (0..required.word_count()).any(|i| required.word(i).0 & !forward.word(i).0 != 0)
}

/// A gate is *unjustified* when its output carries required (known) bits that
/// are not yet implied by its current input values. Fills `out` (cleared
/// first) with every such gate.
pub(crate) fn unjustified_gates(netlist: &Netlist, asg: &Assignment, out: &mut Vec<GateId>) {
    out.clear();
    for (id, _) in netlist.gates() {
        if gate_is_unjustified(netlist, id, asg) {
            out.push(id);
        }
    }
}

/// `true` when a net can serve as a decision point: a single-bit *control*
/// signal that still has an unknown value and is either a primary input, a
/// comparator output, or a multiple-fanout internal signal (the categories of
/// Section 3.2; flip-flop outputs appear as frame-0 pseudo inputs after the
/// time-frame expansion).
fn is_decision_candidate(netlist: &Netlist, asg: &Assignment, net: NetId) -> bool {
    if !netlist.is_control_net(net) || asg.value(net).is_fully_known() {
        return false;
    }
    match netlist.driver(net) {
        None => true, // primary input or frame-0 state variable
        Some(gate) => netlist.gate(gate).kind.is_comparator() || netlist.fanouts(net).len() > 1,
    }
}

/// Advances a generation counter, wiping the stamp array on the (practically
/// unreachable) wrap-around so stale stamps can never alias a fresh one.
/// Shared by every stamped frontier (decision cuts, probabilities, active
/// datapath islands).
pub(crate) fn bump_generation(stamps: &mut [u32], current: u32) -> u32 {
    if current == u32::MAX {
        stamps.fill(0);
        1
    } else {
        current + 1
    }
}

/// Reusable dense state for the justification frontier of one search:
/// the unjustified-gate list, the decision-cut scratch and the legal-1
/// probability arrays. Indexed by net/gate id; generations avoid O(nets)
/// clears between decisions.
#[derive(Debug)]
pub(crate) struct JustifyBuffers {
    /// Gates whose required output bits are not yet implied (recomputed each
    /// decision round by [`Self::compute_unjustified`]).
    pub(crate) unjustified: Vec<GateId>,
    /// Decision-point candidates of the latest cut.
    pub(crate) candidates: Vec<NetId>,
    net_stamp: Vec<u32>,
    cut_gen: u32,
    queue: VecDeque<NetId>,
    prob_sum: Vec<f64>,
    prob_count: Vec<u32>,
    prob_stamp: Vec<u32>,
    prob_gen: u32,
    frontier: VecDeque<(NetId, f64)>,
    /// Per-gate membership flag mirroring [`Self::unjustified`] (the list
    /// holds exactly the gates whose flag is set, in ascending id order).
    in_unjustified: Vec<bool>,
    /// Dedup stamps for the per-round dirty-gate worklist.
    gate_stamp: Vec<u32>,
    gate_gen: u32,
    dirty_gates: Vec<GateId>,
    /// `false` until the first full scan has seeded the membership flags —
    /// incremental maintenance is only sound on top of a complete baseline.
    warmed: bool,
    #[cfg(debug_assertions)]
    debug_scratch: Vec<GateId>,
}

impl JustifyBuffers {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let nets = netlist.net_count();
        JustifyBuffers {
            unjustified: Vec::new(),
            candidates: Vec::new(),
            net_stamp: vec![0; nets],
            cut_gen: 0,
            queue: VecDeque::new(),
            prob_sum: vec![0.0; nets],
            prob_count: vec![0; nets],
            prob_stamp: vec![0; nets],
            prob_gen: 0,
            frontier: VecDeque::new(),
            in_unjustified: vec![false; netlist.gate_count()],
            gate_stamp: vec![0; netlist.gate_count()],
            gate_gen: 0,
            dirty_gates: Vec::new(),
            warmed: false,
            #[cfg(debug_assertions)]
            debug_scratch: Vec::new(),
        }
    }

    /// Approximate heap bytes held by the justification buffers: the dense
    /// per-net/per-gate tables plus the worklists and frontiers at their
    /// current capacity. Feeds the search's memory estimate for the paper's
    /// Table 2 column.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.unjustified.capacity() * size_of::<GateId>()
            + self.candidates.capacity() * size_of::<NetId>()
            + self.net_stamp.capacity() * size_of::<u32>()
            + self.queue.capacity() * size_of::<NetId>()
            + self.prob_sum.capacity() * size_of::<f64>()
            + self.prob_count.capacity() * size_of::<u32>()
            + self.prob_stamp.capacity() * size_of::<u32>()
            + self.frontier.capacity() * size_of::<(NetId, f64)>()
            + self.in_unjustified.capacity() * size_of::<bool>()
            + self.gate_stamp.capacity() * size_of::<u32>()
            + self.dirty_gates.capacity() * size_of::<GateId>()
    }

    /// Recomputes [`Self::unjustified`] for the current assignment by a full
    /// gate scan, reseeding the incremental membership flags.
    pub(crate) fn compute_unjustified(&mut self, netlist: &Netlist, asg: &Assignment) {
        for gate in &self.unjustified {
            self.in_unjustified[gate.index()] = false;
        }
        unjustified_gates(netlist, asg, &mut self.unjustified);
        for gate in &self.unjustified {
            self.in_unjustified[gate.index()] = true;
        }
        self.warmed = true;
    }

    /// Updates [`Self::unjustified`] from the assignment's dirty-net log:
    /// only gates adjacent to a changed net (its driver and its fanouts) are
    /// re-examined, so the per-decision cost is proportional to the changed
    /// region instead of the whole netlist. Falls back to the full scan when
    /// the assignment is not tracking changes or the flags are not yet
    /// seeded. Returns the number of gates re-examined (the full gate count
    /// for a fallback scan).
    pub(crate) fn update_unjustified(&mut self, netlist: &Netlist, asg: &mut Assignment) -> u64 {
        if !asg.dirty_tracking() || !self.warmed {
            asg.drain_dirty();
            self.compute_unjustified(netlist, asg);
            return netlist.gate_count() as u64;
        }
        // Phase 1: changed nets -> dirty gates, deduplicated by stamp.
        self.gate_gen = bump_generation(&mut self.gate_stamp, self.gate_gen);
        let gen = self.gate_gen;
        self.dirty_gates.clear();
        for net in asg.drain_dirty() {
            let driver = netlist.driver(net);
            for gate in driver.iter().chain(netlist.fanouts(net)) {
                if self.gate_stamp[gate.index()] != gen {
                    self.gate_stamp[gate.index()] = gen;
                    self.dirty_gates.push(*gate);
                }
            }
        }
        // Phase 2: re-examine exactly the dirty gates and patch the list.
        let mut removed = false;
        let mut added = false;
        for i in 0..self.dirty_gates.len() {
            let gate = self.dirty_gates[i];
            let now = gate_is_unjustified(netlist, gate, asg);
            let flag = &mut self.in_unjustified[gate.index()];
            if now && !*flag {
                *flag = true;
                self.unjustified.push(gate);
                added = true;
            } else if !now && *flag {
                *flag = false;
                removed = true;
            }
        }
        if removed {
            let flags = &self.in_unjustified;
            self.unjustified.retain(|g| flags[g.index()]);
        }
        if added {
            // Keep the full-scan order (ascending gate id) so incremental
            // and from-scratch maintenance are behaviourally identical all
            // the way down to decision ordering.
            self.unjustified.sort_unstable();
        }
        #[cfg(debug_assertions)]
        {
            // Differential oracle in debug/test builds: the worklist result
            // must be indistinguishable from a full rescan. The scratch
            // buffer is reused so the check itself stays allocation-free at
            // steady state (the alloc_free contract also covers debug runs).
            unjustified_gates(netlist, asg, &mut self.debug_scratch);
            debug_assert_eq!(
                self.debug_scratch, self.unjustified,
                "incremental unjustified set diverged from the full rescan"
            );
        }
        self.dirty_gates.len() as u64
    }

    /// Backward breadth-first traversal from the unjustified gates to a cut
    /// of candidate decision points, into [`Self::candidates`]. When the cut
    /// exceeds `limit`, the candidates with the highest fanout count are kept
    /// (as the paper prescribes).
    pub(crate) fn compute_decision_cut(
        &mut self,
        netlist: &Netlist,
        asg: &Assignment,
        limit: usize,
    ) {
        self.candidates.clear();
        self.cut_gen = bump_generation(&mut self.net_stamp, self.cut_gen);
        let gen = self.cut_gen;
        self.queue.clear();
        for gate_id in &self.unjustified {
            for input in &netlist.gate(*gate_id).inputs {
                if self.net_stamp[input.index()] != gen {
                    self.net_stamp[input.index()] = gen;
                    self.queue.push_back(*input);
                }
            }
        }
        while let Some(net) = self.queue.pop_front() {
            if is_decision_candidate(netlist, asg, net) {
                self.candidates.push(net);
                continue;
            }
            if let Some(driver) = netlist.driver(net) {
                for input in &netlist.gate(driver).inputs {
                    if self.net_stamp[input.index()] != gen {
                        self.net_stamp[input.index()] = gen;
                        self.queue.push_back(*input);
                    }
                }
            }
        }
        if self.candidates.len() > limit {
            // sort_unstable: the stable sort allocates its merge buffer.
            self.candidates
                .sort_unstable_by_key(|n| std::cmp::Reverse(netlist.fanouts(*n).len()));
            self.candidates.truncate(limit);
        }
    }

    /// Legal-1 probabilities (Definition 1) for single-bit signals between
    /// the unjustified gates and the decision points, computed backward with
    /// Rules 3–5 of the paper into the dense probability arrays (read back
    /// through [`Self::probability`]).
    pub(crate) fn compute_probabilities(&mut self, netlist: &Netlist, asg: &Assignment) {
        self.prob_gen = bump_generation(&mut self.prob_stamp, self.prob_gen);
        let gen = self.prob_gen;
        self.frontier.clear();
        // Seed: required output values of unjustified single-bit gates (Rule 3).
        for gate_id in &self.unjustified {
            let gate = netlist.gate(*gate_id);
            let required = asg.value(gate.output);
            if required.width() == 1 {
                if let Some(bit) = required.bit(0).to_bool() {
                    let p = if bit { 1.0 } else { 0.0 };
                    record(
                        &mut self.prob_sum,
                        &mut self.prob_count,
                        &mut self.prob_stamp,
                        gen,
                        gate.output,
                        p,
                    );
                    self.frontier.push_back((gate.output, p));
                }
            }
        }
        // Backward propagation with a visit budget to keep the computation
        // local to the justification region.
        let mut budget = 4 * netlist.gate_count().max(64);
        while let Some((net, p1)) = self.frontier.pop_front() {
            if budget == 0 {
                break;
            }
            budget -= 1;
            let Some(driver) = netlist.driver(net) else {
                continue;
            };
            let gate = netlist.gate(driver);
            let is_unknown_bit =
                |n: &NetId| netlist.net_width(*n) == 1 && !asg.value(*n).is_fully_known();
            let unknown_inputs = gate.inputs.iter().filter(|n| is_unknown_bit(n)).count();
            if unknown_inputs == 0 {
                continue;
            }
            let n = unknown_inputs as f64;
            let p0 = 1.0 - p1;
            let q1 = match gate.kind {
                GateKind::Not => p0,
                GateKind::Buf | GateKind::Dff { .. } => p1,
                GateKind::And => {
                    // Output 1 forces every input to 1; output 0 admits
                    // (2^{n-1} - 1) / (2^n - 1) assignments with this input at 1.
                    let pow_n = (2f64).powf(n);
                    let frac = (pow_n / 2.0 - 1.0) / (pow_n - 1.0);
                    p1 + p0 * frac
                }
                GateKind::Or => {
                    // Output 0 forces every input to 0; output 1 admits
                    // 2^{n-1} / (2^n - 1) assignments with this input at 1.
                    let pow_n = (2f64).powf(n);
                    let frac = (pow_n / 2.0) / (pow_n - 1.0);
                    p1 * frac
                }
                GateKind::Xor => 0.5,
                _ => 0.5,
            };
            for input in &gate.inputs {
                if is_unknown_bit(input) {
                    record(
                        &mut self.prob_sum,
                        &mut self.prob_count,
                        &mut self.prob_stamp,
                        gen,
                        *input,
                        q1,
                    );
                    self.frontier.push_back((*input, q1));
                }
            }
        }
    }

    /// Legal-1 probability of `net` from the latest
    /// [`Self::compute_probabilities`] pass. Rule 5: a fanout stem takes the
    /// average of its branch probabilities.
    pub(crate) fn probability(&self, net: NetId) -> Option<f64> {
        let i = net.index();
        (self.prob_stamp[i] == self.prob_gen)
            .then(|| self.prob_sum[i] / f64::from(self.prob_count[i]))
    }
}

/// Accumulates one branch probability into the dense sum/count arrays.
fn record(sum: &mut [f64], count: &mut [u32], stamp: &mut [u32], gen: u32, net: NetId, p: f64) {
    let i = net.index();
    if stamp[i] != gen {
        stamp[i] = gen;
        sum[i] = p;
        count[i] = 1;
    } else {
        sum[i] += p;
        count[i] += 1;
    }
}

/// The legal assignment bias of Definition 2: `p1/(1-p1)` when `p1 >= 0.5`,
/// `(1-p1)/p1` otherwise. Returns `(bias, biased_value)`.
pub(crate) fn assignment_bias(p1: f64) -> (f64, bool) {
    const CAP: f64 = 1.0e9;
    if p1 >= 0.5 {
        let denom = 1.0 - p1;
        (
            if denom <= 0.0 {
                CAP
            } else {
                (p1 / denom).min(CAP)
            },
            true,
        )
    } else {
        (
            if p1 <= 0.0 {
                CAP
            } else {
                ((1.0 - p1) / p1).min(CAP)
            },
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_bv::Bv3;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    fn unjustified(netlist: &Netlist, asg: &Assignment) -> Vec<GateId> {
        let mut out = Vec::new();
        unjustified_gates(netlist, asg, &mut out);
        out
    }

    fn cut(netlist: &Netlist, asg: &Assignment, limit: usize) -> Vec<NetId> {
        let mut bufs = JustifyBuffers::new(netlist);
        bufs.compute_unjustified(netlist, asg);
        bufs.compute_decision_cut(netlist, asg, limit);
        bufs.candidates.clone()
    }

    fn probabilities(netlist: &Netlist, asg: &Assignment) -> JustifyBuffers {
        let mut bufs = JustifyBuffers::new(netlist);
        bufs.compute_unjustified(netlist, asg);
        bufs.compute_probabilities(netlist, asg);
        bufs
    }

    #[test]
    fn unjustified_detection() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let y = nl.and2(a, b);
        let mut asg = Assignment::new(&nl);
        // Nothing required: nothing unjustified.
        assert!(unjustified(&nl, &asg).is_empty());
        // Require y = 0 with unknown inputs: the AND gate is unjustified.
        asg.refine(y, &cube("1'b0")).unwrap();
        assert_eq!(unjustified(&nl, &asg).len(), 1);
        // Assign a = 0: the requirement becomes justified.
        asg.refine(a, &cube("1'b0")).unwrap();
        assert!(unjustified(&nl, &asg).is_empty());
    }

    #[test]
    fn decision_cut_stops_at_control_points() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let d1 = nl.input("d1", 8);
        let d2 = nl.input("d2", 8);
        let cmp = nl.gt(d1, d2); // comparator output: candidate
        let inner = nl.and2(a, b); // single fanout internal net: not a candidate
        let y = nl.and2(inner, cmp);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b1")).unwrap();
        let cut = cut(&nl, &asg, 16);
        // Candidates are the comparator output and the primary inputs a, b
        // (reached through the non-candidate internal AND).
        assert!(cut.contains(&cmp));
        assert!(cut.contains(&a));
        assert!(cut.contains(&b));
        assert!(!cut.contains(&inner));
        // The wide datapath inputs are never decision candidates.
        assert!(!cut.contains(&d1));
        assert!(!cut.contains(&d2));
    }

    #[test]
    fn decision_cut_respects_limit_by_fanout() {
        let mut nl = Netlist::new("t");
        let popular = nl.input("popular", 1);
        let rare = nl.input("rare", 1);
        let other = nl.input("other", 1);
        // `popular` fans out to two gates.
        let g1 = nl.and2(popular, rare);
        let g2 = nl.and2(popular, other);
        let y = nl.or2(g1, g2);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b1")).unwrap();
        assert_eq!(cut(&nl, &asg, 1), vec![popular]);
    }

    #[test]
    fn incremental_worklist_tracks_refines_and_backtracks() {
        // A chain of gates; refine and backtrack in several interleaved
        // rounds and require the incremental set to equal a full rescan at
        // every step (the debug_assert inside update_unjustified re-checks
        // this too, but this test also exercises the untracked fallback and
        // the recheck accounting).
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let c = nl.input("c", 1);
        let ab = nl.and2(a, b);
        let y = nl.or2(ab, c);
        let z = nl.xor2(a, c);
        let mut bufs = JustifyBuffers::new(&nl);
        let mut asg = Assignment::new(&nl);
        asg.enable_dirty_tracking();

        let check = |bufs: &JustifyBuffers, asg: &Assignment, nl: &Netlist| {
            let mut full = Vec::new();
            unjustified_gates(nl, asg, &mut full);
            assert_eq!(full, bufs.unjustified);
        };

        // First call falls back to the full scan (flags not seeded yet).
        let rechecked = bufs.update_unjustified(&nl, &mut asg);
        assert_eq!(rechecked, nl.gate_count() as u64);
        check(&bufs, &asg, &nl);

        asg.refine(y, &"1'b1".parse().unwrap()).unwrap();
        let m1 = asg.mark();
        let rechecked = bufs.update_unjustified(&nl, &mut asg);
        // Only gates adjacent to `y` were re-examined, not the whole netlist.
        assert!(rechecked < nl.gate_count() as u64);
        check(&bufs, &asg, &nl);
        assert_eq!(bufs.unjustified, vec![nl.driver(y).unwrap()]);

        // Justify the OR through c, making z's XOR requirement appear too.
        asg.refine(c, &"1'b1".parse().unwrap()).unwrap();
        asg.refine(z, &"1'b1".parse().unwrap()).unwrap();
        bufs.update_unjustified(&nl, &mut asg);
        check(&bufs, &asg, &nl);

        // Backtrack: the restores land on the dirty log and the set reverts.
        asg.backtrack_to(m1);
        bufs.update_unjustified(&nl, &mut asg);
        check(&bufs, &asg, &nl);
        assert_eq!(bufs.unjustified, vec![nl.driver(y).unwrap()]);

        // An untracked assignment always takes the full-scan fallback.
        let mut cold = Assignment::new(&nl);
        cold.refine(ab, &"1'b1".parse().unwrap()).unwrap();
        let mut cold_bufs = JustifyBuffers::new(&nl);
        let rechecked = cold_bufs.update_unjustified(&nl, &mut cold);
        assert_eq!(rechecked, nl.gate_count() as u64);
        check(&cold_bufs, &cold, &nl);
    }

    #[test]
    fn buffers_are_reusable_across_decision_rounds() {
        // Two rounds against different assignments through the same buffers:
        // the generation stamps must fully isolate the rounds.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let y = nl.and2(a, b);
        let z = nl.or2(a, b);
        let mut bufs = JustifyBuffers::new(&nl);

        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b1")).unwrap();
        bufs.compute_unjustified(&nl, &asg);
        assert_eq!(bufs.unjustified.len(), 1); // only the AND carries a requirement
        bufs.compute_decision_cut(&nl, &asg, 16);
        let first: Vec<NetId> = bufs.candidates.clone();
        assert!(first.contains(&a) && first.contains(&b));
        bufs.compute_probabilities(&nl, &asg);
        assert!((bufs.probability(a).unwrap() - 1.0).abs() < 1e-9);

        let mut asg = Assignment::new(&nl);
        asg.refine(z, &cube("1'b0")).unwrap();
        asg.refine(a, &cube("1'b0")).unwrap();
        bufs.compute_unjustified(&nl, &asg);
        bufs.compute_decision_cut(&nl, &asg, 16);
        assert_eq!(bufs.candidates, vec![b]);
        bufs.compute_probabilities(&nl, &asg);
        assert!((bufs.probability(b).unwrap() - 0.0).abs() < 1e-9);
        // `a` was seeded in round one only; its stamp must now be stale.
        assert_eq!(bufs.probability(a), None);
    }

    #[test]
    fn legal_probability_matches_paper_and_example() {
        // 2-input AND requiring output 0: each input's legal-1 probability is 1/3.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let y = nl.and2(a, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b0")).unwrap();
        let bufs = probabilities(&nl, &asg);
        assert!((bufs.probability(a).unwrap() - 1.0 / 3.0).abs() < 1e-9);
        assert!((bufs.probability(b).unwrap() - 1.0 / 3.0).abs() < 1e-9);

        // Requiring output 1 forces probability 1.
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b1")).unwrap();
        let bufs = probabilities(&nl, &asg);
        assert!((bufs.probability(a).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn or_gate_probability() {
        // 2-input OR requiring 1: q1 = 2 / 3.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 1);
        let b = nl.input("b", 1);
        let y = nl.or2(a, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("1'b1")).unwrap();
        let bufs = probabilities(&nl, &asg);
        assert!((bufs.probability(a).unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fanout_stem_averages_branches() {
        // The stem feeds an AND requiring 1 (q1 = 1.0) and an inverter chain
        // requiring 1 (q1 = 0.0 on the stem): average is 0.5.
        let mut nl = Netlist::new("t");
        let stem = nl.input("stem", 1);
        let other = nl.input("other", 1);
        let and_out = nl.and2(stem, other);
        let inv_out = nl.not(stem);
        let mut asg = Assignment::new(&nl);
        asg.refine(and_out, &cube("1'b1")).unwrap();
        asg.refine(inv_out, &cube("1'b1")).unwrap();
        let bufs = probabilities(&nl, &asg);
        assert!((bufs.probability(stem).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn bias_definition() {
        let (bias, value) = assignment_bias(0.75);
        assert!((bias - 3.0).abs() < 1e-9);
        assert!(value);
        let (bias, value) = assignment_bias(0.25);
        assert!((bias - 3.0).abs() < 1e-9);
        assert!(!value);
        let (bias, _) = assignment_bias(0.5);
        assert!((bias - 1.0).abs() < 1e-9);
        let (bias, value) = assignment_bias(1.0);
        assert!(bias >= 1.0e9);
        assert!(value);
    }
}
