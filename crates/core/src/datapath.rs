//! Residual datapath constraint extraction and resolution.
//!
//! Once the control constraints are justified, the remaining requirements sit
//! on arithmetic units in the datapath. Following Section 4 of the paper,
//! the still-unjustified arithmetic gates are grouped into width-homogeneous
//! *islands*, each island is transcribed into a modular constraint system
//! over ℤ/2ʷℤ (adders and subtractors as linear equations, multipliers as
//! product constraints, partially-known values as low-bit congruences) and
//! solved by the modular arithmetic solver. A feasible closed-form solution
//! is then instantiated, propagated back into the word-level assignment and
//! finally validated by concrete evaluation of the whole (unrolled) circuit.
//!
//! # Incremental resolution
//!
//! The datapath leaf runs once per candidate control solution — it is the
//! inner loop of the whole search — so everything that does not depend on the
//! current decision level is computed once per search and cached in
//! [`DatapathContext`]:
//!
//! * **island topology** depends only on the gate structure, not on values:
//!   the width-homogeneous components are flood-filled once and re-sliced per
//!   decision by which gates are currently unjustified;
//! * **structural equations** of each island are kept pre-reduced to echelon
//!   form in a [`CheckpointedSystem`]; a per-decision solve only pushes the
//!   current value rows (fixed variables and low-bit congruences) under a
//!   checkpoint and resumes elimination from the saved pivots;
//! * **speculative refinement** reuses the search's own assignment and
//!   propagator through the word-level delta trail (mark / refine /
//!   backtrack) instead of cloning the assignment per call;
//! * the **concretization pass** reuses a cached combinational order and a
//!   persistent value buffer instead of rebuilding both per attempt.
//!
//! Island solve *results* are not memoised: every call re-solves its active
//! islands. A memo keyed by the full solve input (island and known low bits
//! of every island net) cut the datapath bench's solver calls 16-fold but
//! made each resolution slower, because building and hashing the key for
//! every solve cost more than the solves it skipped.
//!
//! Setting [`crate::CheckerOptions::incremental_datapath`] to `false` rebuilds
//! all cached state on every call through the *same* code path — the
//! from-scratch oracle used by the differential tests.

use crate::assignment::Assignment;
use crate::config::CheckerOptions;
use crate::implication::Propagator;
use crate::justify::bump_generation;
use crate::stats::CheckStats;
use std::collections::VecDeque;
use std::time::Instant;
use wlac_bv::{Bv, Bv3, Tv};
use wlac_modsolve::{
    solve_products_checkpointed, CheckpointedSystem, MixedOutcome, ProductConstraint, Ring,
    SolveAbort,
};
use wlac_netlist::{GateId, GateKind, NetId, Netlist};
use wlac_sim::eval_gate;

/// Sentinel for "not part of any island" in the dense gate/net maps.
const NONE: u32 = u32::MAX;

/// Candidate enumeration budget for nonlinear (multiplier) constraints.
const NONLINEAR_ENUMERATION_LIMIT: usize = 256;

/// Result of trying to discharge the residual datapath constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DatapathOutcome {
    /// A complete concrete assignment (value per net) satisfying every
    /// requirement was constructed.
    Consistent(Vec<Bv>),
    /// Some extracted constraint subset is unsatisfiable in the modular ring;
    /// the current control solution must be abandoned (sound for proving).
    Infeasible,
    /// Neither a solution nor a refutation was found: the islands are
    /// feasible (or the enumeration budget ran out) but no sampled
    /// completion satisfies every requirement. The search then splits a
    /// datapath bit and resolves again below it.
    Inconclusive,
}

/// An island of width-homogeneous arithmetic gates with its pre-reduced
/// constraint template.
#[derive(Debug)]
struct CachedIsland {
    width: usize,
    ring: Ring,
    /// Island nets in ascending id order; the solver variable of `nets[i]`
    /// is `i` (the dense `net_var` map holds the inverse).
    nets: Vec<NetId>,
    /// Multiplier constraints, linearised by candidate enumeration at solve
    /// time.
    products: Vec<ProductConstraint>,
    /// Structural equations pre-reduced to echelon form; per-decision value
    /// rows are pushed under a checkpoint.
    system: CheckpointedSystem,
}

/// Result of solving one island.
enum IslandOutcome {
    Assignment(Vec<u64>),
    Infeasible,
    Unknown,
}

/// Per-search datapath state: cached island topology, pre-reduced solver
/// templates and reusable concretization buffers. Created once per (unrolled)
/// netlist and shared by every decision of the search.
#[derive(Debug)]
pub(crate) struct DatapathContext {
    /// Lazily built island cache (`islands_built` gates it so control-only
    /// searches never pay for it).
    islands_built: bool,
    islands: Vec<CachedIsland>,
    /// Gate index → island id ([`NONE`] when the gate is in no island).
    gate_island: Vec<u32>,
    /// Net index → variable index within its owning island. Valid only for
    /// island nets; islands never share a net (same-width adjacency merges
    /// components, and the width filter excludes everything else).
    net_var: Vec<u32>,
    /// Scratch: ids of islands containing a currently-unjustified gate.
    active: Vec<usize>,
    island_stamp: Vec<u32>,
    active_gen: u32,
    /// Cached combinational evaluation order for concretization.
    order_built: bool,
    order_ok: bool,
    order: Vec<GateId>,
    /// Concrete value per net (the candidate completion being validated).
    values: Vec<Bv>,
    /// Per-gate input scratch for [`eval_gate`].
    inputs: Vec<Bv>,
    /// Flood-fill worklist.
    queue: VecDeque<GateId>,
}

impl DatapathContext {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        DatapathContext {
            islands_built: false,
            islands: Vec::new(),
            gate_island: vec![NONE; netlist.gate_count()],
            net_var: vec![NONE; netlist.net_count()],
            active: Vec::new(),
            island_stamp: Vec::new(),
            active_gen: 0,
            order_built: false,
            order_ok: false,
            order: Vec::new(),
            values: Vec::new(),
            inputs: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    /// Approximate heap bytes held by the datapath context: the dense
    /// gate/net maps, the cached islands (net lists, product constraints and
    /// pre-reduced solver templates) and the concretization scratch. Feeds
    /// the search's memory estimate for the paper's Table 2 column.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let bv_heap = |v: &Bv| v.width().div_ceil(64) * 8 + 16;
        let islands: usize = self
            .islands
            .iter()
            .map(|island| {
                island.nets.capacity() * size_of::<NetId>()
                    + island.products.capacity() * size_of::<ProductConstraint>()
                    // Echelon rows: one u64 per variable per retained row.
                    + island.system.num_equations() * (island.system.num_vars() * 8 + 32)
            })
            .sum();
        islands
            + self.gate_island.capacity() * size_of::<u32>()
            + self.net_var.capacity() * size_of::<u32>()
            + self.active.capacity() * size_of::<usize>()
            + self.island_stamp.capacity() * size_of::<u32>()
            + self.order.capacity() * size_of::<GateId>()
            + self.values.iter().map(bv_heap).sum::<usize>()
            + self.inputs.iter().map(bv_heap).sum::<usize>()
            + self.queue.capacity() * size_of::<GateId>()
    }

    /// Attempts to complete the current (control-justified) assignment into a
    /// concrete solution satisfying `requirements`.
    ///
    /// `unjustified` is the caller's current unjustified-gate list (the
    /// search already maintains it — recomputing here would double the scan).
    /// Speculative island solutions are merged into `asg` through the shared
    /// `propagator` and rolled back via the delta trail before returning, so
    /// the assignment is left exactly as it was on entry.
    #[allow(clippy::too_many_arguments)] // the full leaf-call contract of the search
    pub(crate) fn resolve(
        &mut self,
        netlist: &Netlist,
        asg: &mut Assignment,
        propagator: &mut Propagator,
        unjustified: &[GateId],
        requirements: &[(NetId, Bv3)],
        options: &CheckerOptions,
        stats: &mut CheckStats,
    ) -> DatapathOutcome {
        let start = Instant::now();
        if !options.incremental_datapath {
            self.invalidate();
        }
        let outcome = self.resolve_inner(
            netlist,
            asg,
            propagator,
            unjustified,
            requirements,
            options,
            stats,
        );
        stats.datapath_nanos += start.elapsed().as_nanos() as u64;
        outcome
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_inner(
        &mut self,
        netlist: &Netlist,
        asg: &mut Assignment,
        propagator: &mut Propagator,
        unjustified: &[GateId],
        requirements: &[(NetId, Bv3)],
        options: &CheckerOptions,
        stats: &mut CheckStats,
    ) -> DatapathOutcome {
        // With nothing unjustified every requirement is already implied by
        // the input cubes and any completion works; in ablation mode
        // (`use_arithmetic_solver` off) fall back to sampling completions.
        if unjustified.is_empty() || !options.use_arithmetic_solver {
            return self.concretize_outcome(netlist, asg, requirements);
        }

        self.ensure_islands(netlist, stats);
        self.collect_active(unjustified);
        if self.active.is_empty() {
            return self.concretize_outcome(netlist, asg, requirements);
        }

        // Speculative refinement: island solutions are merged into the shared
        // assignment under a trail mark instead of cloning it.
        let mark = asg.mark();
        for idx in 0..self.active.len() {
            let island_id = self.active[idx];
            stats.arithmetic_calls += 1;
            match solve_island(&mut self.islands[island_id], &self.net_var, asg, options) {
                IslandOutcome::Assignment(values) => {
                    // Merge the island solution into the assignment and re-run
                    // implication so the rest of the circuit sees it.
                    let island = &self.islands[island_id];
                    for (net, value) in island.nets.iter().zip(values) {
                        let cube = Bv3::from_bv(&Bv::from_u64(island.width, value));
                        match asg.refine(*net, &cube) {
                            Ok(true) => propagator.enqueue_net(netlist, *net),
                            Ok(false) => {}
                            Err(_) => {
                                // Drop events enqueued for the rolled-back
                                // merge so the propagator, like the
                                // assignment, is left as it was on entry.
                                propagator.clear();
                                asg.backtrack_to(mark);
                                return DatapathOutcome::Inconclusive;
                            }
                        }
                    }
                    if propagator
                        .run(netlist, asg, &mut stats.implication)
                        .is_err()
                    {
                        asg.backtrack_to(mark);
                        return DatapathOutcome::Inconclusive;
                    }
                }
                IslandOutcome::Infeasible => {
                    asg.backtrack_to(mark);
                    return DatapathOutcome::Infeasible;
                }
                // An exhausted enumeration budget and a failed concretization
                // are both inconclusive, so nothing distinguishes this case
                // downstream: fall through to concretization regardless.
                IslandOutcome::Unknown => {}
            }
        }
        let outcome = self.concretize_outcome(netlist, asg, requirements);
        asg.backtrack_to(mark);
        outcome
    }

    /// Runs the concretization pass and wraps it as a [`DatapathOutcome`].
    ///
    /// When the islands were individually satisfiable but the sampled
    /// combination does not extend to a full solution, the result is
    /// inconclusive (not a refutation) — same as an exhausted sample budget.
    fn concretize_outcome(
        &mut self,
        netlist: &Netlist,
        asg: &Assignment,
        requirements: &[(NetId, Bv3)],
    ) -> DatapathOutcome {
        if self.concretize_and_check(netlist, asg, requirements) {
            DatapathOutcome::Consistent(self.values.clone())
        } else {
            DatapathOutcome::Inconclusive
        }
    }

    /// Drops every cached artefact (islands, templates, evaluation order) so
    /// the next resolution rebuilds from scratch — the differential oracle
    /// path of [`CheckerOptions::incremental_datapath`]` = false`.
    fn invalidate(&mut self) {
        self.islands_built = false;
        self.islands.clear();
        self.gate_island.fill(NONE);
        self.net_var.fill(NONE);
        self.order_built = false;
        self.order_ok = false;
        self.order.clear();
    }

    /// Builds the island cache on first use (island topology depends only on
    /// the gate structure, never on values).
    fn ensure_islands(&mut self, netlist: &Netlist, stats: &mut CheckStats) {
        if self.islands_built {
            stats.island_cache_hits += 1;
            return;
        }
        stats.island_cache_misses += 1;
        self.islands_built = true;
        for (seed, seed_gate) in netlist.gates() {
            let width = netlist.net_width(seed_gate.output);
            if !is_island_gate(&seed_gate.kind)
                || !(2..=64).contains(&width)
                || self.gate_island[seed.index()] != NONE
            {
                continue;
            }
            let id = self.islands.len() as u32;
            let mut gates: Vec<GateId> = Vec::new();
            let mut nets: Vec<NetId> = Vec::new();
            self.queue.clear();
            self.queue.push_back(seed);
            self.gate_island[seed.index()] = id;
            while let Some(gate_id) = self.queue.pop_front() {
                let gate = netlist.gate(gate_id);
                gates.push(gate_id);
                for net in gate.inputs.iter().chain(std::iter::once(&gate.output)) {
                    if netlist.net_width(*net) != width || self.net_var[net.index()] != NONE {
                        continue;
                    }
                    self.net_var[net.index()] = 0; // claimed; final index assigned below
                    nets.push(*net);
                    // Explore neighbouring arithmetic gates of the same width.
                    let driver = netlist.driver(*net);
                    for n in netlist.fanouts(*net).iter().copied().chain(driver) {
                        let g = netlist.gate(n);
                        if is_island_gate(&g.kind)
                            && netlist.net_width(g.output) == width
                            && self.gate_island[n.index()] == NONE
                        {
                            self.gate_island[n.index()] = id;
                            self.queue.push_back(n);
                        }
                    }
                }
            }
            nets.sort();
            for (var, net) in nets.iter().enumerate() {
                self.net_var[net.index()] = var as u32;
            }
            gates.sort();
            let island = build_island_template(netlist, width, nets, &gates, &self.net_var);
            self.islands.push(island);
        }
        self.island_stamp = vec![0; self.islands.len()];
        self.active_gen = 0;
    }

    /// Re-slices the cached topology by the current justification frontier:
    /// an island is *active* when it contains at least one unjustified gate.
    /// Active ids are collected in ascending order (deterministic solve
    /// order, identical to a from-scratch rebuild).
    fn collect_active(&mut self, unjustified: &[GateId]) {
        self.active.clear();
        if self.islands.is_empty() {
            return;
        }
        self.active_gen = bump_generation(&mut self.island_stamp, self.active_gen);
        for gate_id in unjustified {
            let island = self.gate_island[gate_id.index()];
            if island != NONE && self.island_stamp[island as usize] != self.active_gen {
                self.island_stamp[island as usize] = self.active_gen;
                self.active.push(island as usize);
            }
        }
        self.active.sort_unstable();
    }

    fn ensure_order(&mut self, netlist: &Netlist) {
        if self.order_built {
            return;
        }
        self.order_built = true;
        match netlist.combinational_order() {
            Ok(order) => {
                self.order = order;
                self.order_ok = true;
            }
            Err(_) => self.order_ok = false,
        }
    }

    /// Completes the assignment with concrete values into [`Self::values`]
    /// and evaluates the whole circuit; `true` when all requirements hold.
    ///
    /// Several completions of the still-unknown primary-input bits are tried:
    /// all-zero, all-one and a sequence of deterministic pseudo-random
    /// patterns. This covers residual *disequality* requirements (e.g. "the
    /// register must differ from 0") that are not expressible as modular
    /// linear equations.
    fn concretize_and_check(
        &mut self,
        netlist: &Netlist,
        asg: &Assignment,
        requirements: &[(NetId, Bv3)],
    ) -> bool {
        self.ensure_order(netlist);
        if !self.order_ok {
            return false;
        }
        self.values.resize(netlist.net_count(), Bv::zero(1));
        const ATTEMPTS: u64 = 24;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        for attempt in 0..ATTEMPTS {
            for n in netlist.nets() {
                let cube = asg.value(n);
                self.values[n.index()] = match attempt {
                    0 => cube.min_value(),
                    1 => cube.max_value(),
                    _ => {
                        // Fill unknown bits with a pseudo-random pattern
                        // (xorshift), keeping every known bit.
                        let mut v = cube.min_value();
                        for bit in 0..cube.width() {
                            if !cube.bit(bit).is_known() {
                                seed ^= seed << 13;
                                seed ^= seed >> 7;
                                seed ^= seed << 17;
                                v = v.with_bit(bit, seed & 1 == 1);
                            }
                        }
                        v
                    }
                };
            }
            for gate_id in &self.order {
                let gate = netlist.gate(*gate_id);
                self.inputs.clear();
                for n in &gate.inputs {
                    self.inputs.push(self.values[n.index()].clone());
                }
                let out_w = netlist.net_width(gate.output);
                self.values[gate.output.index()] = eval_gate(&gate.kind, &self.inputs, out_w);
            }
            let ok = requirements
                .iter()
                .all(|(net, cube)| cube.matches(&self.values[net.index()]));
            if ok {
                return true;
            }
        }
        false
    }
}

/// Gate kinds participating in arithmetic islands.
fn is_island_gate(kind: &GateKind) -> bool {
    matches!(
        kind,
        GateKind::Add | GateKind::Sub | GateKind::Mul | GateKind::Buf | GateKind::Const(_)
    )
}

/// Transcribes the structural equations of one island into a pre-reduced
/// [`CheckpointedSystem`] template (adders/subtractors/buffers as linear
/// rows, constants as fixed variables, multipliers as product constraints).
/// `gates` must be in ascending id order (canonical template row order).
fn build_island_template(
    netlist: &Netlist,
    width: usize,
    nets: Vec<NetId>,
    gates: &[GateId],
    net_var: &[u32],
) -> CachedIsland {
    let ring = Ring::new(width as u32);
    let mut system = CheckpointedSystem::new(ring, nets.len());
    let mut products = Vec::new();
    let var = |net: &NetId| net_var[net.index()] as usize;
    for gate_id in gates {
        let gate = netlist.gate(*gate_id);
        match &gate.kind {
            GateKind::Add => system.add_sparse_equation(
                &[
                    (var(&gate.inputs[0]), 1),
                    (var(&gate.inputs[1]), 1),
                    (var(&gate.output), ring.neg(1)),
                ],
                0,
            ),
            GateKind::Sub => system.add_sparse_equation(
                &[
                    (var(&gate.inputs[0]), 1),
                    (var(&gate.inputs[1]), ring.neg(1)),
                    (var(&gate.output), ring.neg(1)),
                ],
                0,
            ),
            GateKind::Buf => system.add_sparse_equation(
                &[(var(&gate.inputs[0]), 1), (var(&gate.output), ring.neg(1))],
                0,
            ),
            GateKind::Const(v) => {
                if let Some(value) = v.to_u64() {
                    system.fix_variable(var(&gate.output), value);
                }
            }
            GateKind::Mul => products.push(ProductConstraint {
                a: var(&gate.inputs[0]),
                b: var(&gate.inputs[1]),
                c: var(&gate.output),
            }),
            _ => {}
        }
    }
    CachedIsland {
        width,
        ring,
        nets,
        products,
        system,
    }
}

/// Pushes the current value rows onto the island's checkpointed template and
/// solves: fully-known values become fixed variables, known low-order bits
/// become congruences (x ≡ c (mod 2^k) ⇔ 2^{w-k}·x ≡ 2^{w-k}·c (mod 2^w)).
fn solve_island(
    island: &mut CachedIsland,
    net_var: &[u32],
    asg: &Assignment,
    options: &CheckerOptions,
) -> IslandOutcome {
    let ring = island.ring;
    island.system.push_checkpoint();
    for net in &island.nets {
        let var = net_var[net.index()] as usize;
        let cube = asg.value(*net);
        if let Some(value) = cube.to_bv().and_then(|v| v.to_u64()) {
            island.system.fix_variable(var, value);
            continue;
        }
        let known_low = (0..cube.width())
            .take_while(|i| cube.bit(*i).is_known())
            .count();
        if known_low > 0 {
            let mut low_value = 0u64;
            for i in 0..known_low {
                if cube.bit(i) == Tv::One {
                    low_value |= 1 << i;
                }
            }
            let shift = (island.width - known_low) as u32;
            let factor = if shift >= 64 {
                0
            } else {
                ring.reduce(1u64 << shift)
            };
            if factor != 0 {
                island
                    .system
                    .add_sparse_equation(&[(var, factor)], ring.mul(factor, low_value));
            }
        }
    }
    let mut poll = || options.cancel.is_cancelled();
    let outcome = if island.products.is_empty() {
        match island.system.solve_interruptible(&mut poll) {
            Ok(sol) => IslandOutcome::Assignment(sol.instantiate(&vec![0; sol.num_free()])),
            Err(SolveAbort::Infeasible) => IslandOutcome::Infeasible,
            Err(SolveAbort::Interrupted) => IslandOutcome::Unknown,
        }
    } else {
        match solve_products_checkpointed(
            &mut island.system,
            &island.products,
            NONLINEAR_ENUMERATION_LIMIT,
            &mut poll,
        ) {
            MixedOutcome::Solution(values) => IslandOutcome::Assignment(values),
            MixedOutcome::Infeasible => IslandOutcome::Infeasible,
            MixedOutcome::Unknown => IslandOutcome::Unknown,
        }
    };
    island.system.pop_checkpoint();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    /// One-shot resolution through a fresh context (mirrors the old
    /// free-function API for the focused unit tests below).
    fn resolve_once(
        netlist: &Netlist,
        asg: &mut Assignment,
        requirements: &[(NetId, Bv3)],
        options: &CheckerOptions,
        stats: &mut CheckStats,
    ) -> DatapathOutcome {
        let mut ctx = DatapathContext::new(netlist);
        let mut propagator = Propagator::new(netlist);
        let mut unjustified = Vec::new();
        crate::justify::unjustified_gates(netlist, asg, &mut unjustified);
        ctx.resolve(
            netlist,
            asg,
            &mut propagator,
            &unjustified,
            requirements,
            options,
            stats,
        )
    }

    #[test]
    fn fully_justified_assignment_concretizes() {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.add(a, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(a, &cube("4'b0011")).unwrap();
        asg.refine(b, &cube("4'b0001")).unwrap();
        asg.refine(y, &cube("4'b0100")).unwrap();
        let reqs = vec![(y, cube("4'b0100"))];
        let out = resolve_once(
            &nl,
            &mut asg,
            &reqs,
            &CheckerOptions::default(),
            &mut CheckStats::default(),
        );
        match out {
            DatapathOutcome::Consistent(values) => {
                assert_eq!(values[y.index()].to_u64(), Some(4));
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn adder_requirement_solved_by_linear_system() {
        // Require y = a + b = 12 with nothing else known: the island solver
        // must produce some (a, b) summing to 12 modulo 16.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.add(a, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("4'b1100")).unwrap();
        let reqs = vec![(y, cube("4'b1100"))];
        let mut stats = CheckStats::default();
        let out = resolve_once(&nl, &mut asg, &reqs, &CheckerOptions::default(), &mut stats);
        match out {
            DatapathOutcome::Consistent(values) => {
                let av = values[a.index()].to_u64().unwrap();
                let bv = values[b.index()].to_u64().unwrap();
                assert_eq!((av + bv) % 16, 12);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
        assert!(stats.arithmetic_calls >= 1);
        assert!(stats.datapath_nanos > 0);
        // The assignment must be restored: speculative refinements are
        // backtracked through the delta trail, never cloned away.
        assert_eq!(asg.value(a), &Bv3::all_x(4));
        assert_eq!(asg.value(b), &Bv3::all_x(4));
    }

    #[test]
    fn chained_adders_with_constants() {
        // y = (a + 3) - b with y required 0 and b required 9 ⇒ a = 6.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let three = nl.constant(&Bv::from_u64(4, 3));
        let s = nl.add(a, three);
        let y = nl.sub(s, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("4'b0000")).unwrap();
        asg.refine(b, &cube("4'b1001")).unwrap();
        let reqs = vec![(y, cube("4'b0000")), (b, cube("4'b1001"))];
        let out = resolve_once(
            &nl,
            &mut asg,
            &reqs,
            &CheckerOptions::default(),
            &mut CheckStats::default(),
        );
        match out {
            DatapathOutcome::Consistent(values) => {
                assert_eq!(values[a.index()].to_u64(), Some(6));
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_island_detected() {
        // y = a + a = 2a must be even; requiring y = 5 is infeasible.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let y = nl.add(a, a);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("4'b0101")).unwrap();
        let reqs = vec![(y, cube("4'b0101"))];
        let out = resolve_once(
            &nl,
            &mut asg,
            &reqs,
            &CheckerOptions::default(),
            &mut CheckStats::default(),
        );
        assert_eq!(out, DatapathOutcome::Infeasible);
    }

    #[test]
    fn multiplier_wraparound_solution_found() {
        // y = 4 · b with y required 12: the modular solver may pick b = 3 or
        // b = 7 (both valid mod 16); an integral solver would only ever see 3.
        let mut nl = Netlist::new("t");
        let b = nl.input("b", 4);
        let four = nl.constant(&Bv::from_u64(4, 4));
        let y = nl.mul(four, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(y, &cube("4'b1100")).unwrap();
        let reqs = vec![(y, cube("4'b1100"))];
        let out = resolve_once(
            &nl,
            &mut asg,
            &reqs,
            &CheckerOptions::default(),
            &mut CheckStats::default(),
        );
        match out {
            DatapathOutcome::Consistent(values) => {
                let bv = values[b.index()].to_u64().unwrap();
                assert_eq!((4 * bv) % 16, 12);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    #[test]
    fn partial_low_bits_become_congruences() {
        // Require y = a + b = 8 where a's two low bits are already implied to
        // be 2'b11: the solution must respect them.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.add(a, b);
        let mut asg = Assignment::new(&nl);
        asg.refine(a, &cube("4'bxx11")).unwrap();
        asg.refine(y, &cube("4'b1000")).unwrap();
        let reqs = vec![(y, cube("4'b1000")), (a, cube("4'bxx11"))];
        let out = resolve_once(
            &nl,
            &mut asg,
            &reqs,
            &CheckerOptions::default(),
            &mut CheckStats::default(),
        );
        match out {
            DatapathOutcome::Consistent(values) => {
                let av = values[a.index()].to_u64().unwrap();
                assert_eq!(av & 0b11, 0b11);
            }
            other => panic!("expected consistent, got {other:?}"),
        }
    }

    /// Interleaves island solving with decision-style refinements and
    /// backtracking: the persistent context must return exactly what a fresh
    /// context returns at every step.
    #[test]
    fn incremental_context_matches_scratch_across_interleaved_decisions() {
        // Two independent islands: s = a + b (4-bit), t = c - d (4-bit),
        // plus a multiplier island m = 4·e.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let c = nl.input("c", 4);
        let d = nl.input("d", 4);
        let e = nl.input("e", 4);
        let s = nl.add(a, b);
        let t = nl.sub(c, d);
        let four = nl.constant(&Bv::from_u64(4, 4));
        let m = nl.mul(four, e);
        let options = CheckerOptions::default();

        let mut ctx = DatapathContext::new(&nl);
        let mut propagator = Propagator::new(&nl);
        let mut unjustified = Vec::new();

        // Decision levels: progressively refine requirements, resolving at
        // each level through BOTH the persistent context and a fresh one.
        let levels: Vec<Vec<(NetId, Bv3)>> = vec![
            vec![(s, cube("4'b1100"))],
            vec![(s, cube("4'b1100")), (t, cube("4'b0011"))],
            vec![
                (s, cube("4'b1100")),
                (t, cube("4'b0011")),
                (m, cube("4'b1000")),
            ],
            vec![(s, cube("4'b1100")), (a, cube("4'bxx01"))],
            vec![(m, cube("4'b0101"))], // 4·e = 5 is infeasible (odd)
        ];
        for (level, reqs) in levels.iter().enumerate() {
            let mut asg = Assignment::new(&nl);
            for (net, value) in reqs {
                asg.refine(*net, value).unwrap();
            }
            crate::justify::unjustified_gates(&nl, &asg, &mut unjustified);
            let mut stats = CheckStats::default();
            let incremental = ctx.resolve(
                &nl,
                &mut asg,
                &mut propagator,
                &unjustified,
                reqs,
                &options,
                &mut stats,
            );
            let mut scratch_ctx = DatapathContext::new(&nl);
            let mut scratch_prop = Propagator::new(&nl);
            let mut scratch_stats = CheckStats::default();
            let scratch = scratch_ctx.resolve(
                &nl,
                &mut asg,
                &mut scratch_prop,
                &unjustified,
                reqs,
                &options,
                &mut scratch_stats,
            );
            assert_eq!(incremental, scratch, "level {level}");
            assert_eq!(stats.arithmetic_calls, scratch_stats.arithmetic_calls);
        }
    }
}
