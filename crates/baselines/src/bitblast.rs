//! Bit-blasting of word-level netlists to CNF, and a SAT-based bounded model
//! checker in the style of Biere et al. (reference [13] of the paper).
//!
//! This is the bit-level baseline the paper compares against conceptually:
//! every word-level primitive is expanded into single-bit clauses (Tseitin
//! encoding), so the formula size — and the solver's memory — grows with the
//! bit width, whereas the word-level ATPG engine keeps buses as single
//! entities.

use crate::sat::{Cnf, Lit};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};
use wlac_atpg::{CancelToken, PropertyKind, Trace, Verification};
use wlac_bv::Bv;
use wlac_netlist::{GateKind, NetId, Netlist, Unrolling};

/// Error produced when a netlist contains a primitive the bit-blaster does
/// not support (multipliers and data-dependent shifts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsupportedGateError {
    /// Mnemonic of the unsupported gate.
    pub gate: String,
}

impl fmt::Display for UnsupportedGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bit-blasting does not support `{}` gates", self.gate)
    }
}

impl Error for UnsupportedGateError {}

/// CNF encoding of a (combinational) netlist: one SAT variable per net bit.
#[derive(Debug)]
pub struct BitBlaster {
    /// The CNF formula.
    pub cnf: Cnf,
    bits: HashMap<NetId, Vec<Lit>>,
    /// `var_origin[var] = (net, bit)` for the net-bit variables (a contiguous
    /// prefix of the variable space — Tseitin auxiliaries come later and have
    /// no entry). Used to lift learned clauses back to net level.
    var_origin: Vec<(NetId, u32)>,
}

impl BitBlaster {
    /// Encodes the given combinational netlist.
    ///
    /// # Errors
    ///
    /// Returns [`UnsupportedGateError`] for multipliers and variable shifts.
    pub fn encode(netlist: &Netlist) -> Result<Self, UnsupportedGateError> {
        let mut this = BitBlaster {
            cnf: Cnf::new(),
            bits: HashMap::new(),
            var_origin: Vec::new(),
        };
        for net in netlist.nets() {
            let lits = (0..netlist.net_width(net))
                .map(|bit| {
                    let var = this.cnf.fresh_var();
                    debug_assert_eq!(var, this.var_origin.len());
                    this.var_origin.push((net, bit as u32));
                    Lit::positive(var)
                })
                .collect();
            this.bits.insert(net, lits);
        }
        for (_, gate) in netlist.gates() {
            this.encode_gate(netlist, gate)?;
        }
        Ok(this)
    }

    /// The literal of bit `bit` of `net`.
    pub fn bit(&self, net: NetId, bit: usize) -> Lit {
        self.bits[&net][bit]
    }

    /// Maps a CNF variable back to its `(net, bit)` origin; `None` for
    /// Tseitin auxiliary variables.
    pub fn net_bit_of_var(&self, var: usize) -> Option<(NetId, u32)> {
        self.var_origin.get(var).copied()
    }

    /// Reads the value of `net` out of a SAT model (one truth value per CNF
    /// variable, as returned by [`Cnf::solve`]).
    pub fn decode_net(&self, model: &[bool], net: NetId) -> Bv {
        let lits = &self.bits[&net];
        let words: Vec<u64> = lits
            .chunks(64)
            .map(|chunk| {
                chunk.iter().enumerate().fold(0u64, |acc, (i, lit)| {
                    let value = model[lit.var()] ^ lit.is_negative();
                    acc | ((value as u64) << i)
                })
            })
            .collect();
        Bv::from_words(lits.len(), &words)
    }

    /// Adds unit clauses forcing `net` to the concrete value `value`.
    pub fn constrain_value(&mut self, net: NetId, value: &Bv) {
        for i in 0..value.width() {
            let lit = self.bit(net, i);
            self.cnf
                .add_clause(vec![if value.bit(i) { lit } else { lit.negated() }]);
        }
    }

    fn equal(&mut self, a: Lit, b: Lit) {
        self.cnf.add_structural_clause(vec![a.negated(), b]);
        self.cnf.add_structural_clause(vec![a, b.negated()]);
    }

    fn constant(&mut self, lit: Lit, value: bool) {
        self.cnf
            .add_structural_clause(vec![if value { lit } else { lit.negated() }]);
    }

    fn and_gate(&mut self, out: Lit, inputs: &[Lit]) {
        let mut clause = vec![out];
        for i in inputs {
            self.cnf.add_structural_clause(vec![out.negated(), *i]);
            clause.push(i.negated());
        }
        self.cnf.add_structural_clause(clause);
    }

    fn or_gate(&mut self, out: Lit, inputs: &[Lit]) {
        let mut clause = vec![out.negated()];
        for i in inputs {
            self.cnf.add_structural_clause(vec![out, i.negated()]);
            clause.push(*i);
        }
        self.cnf.add_structural_clause(clause);
    }

    fn xor_gate(&mut self, out: Lit, a: Lit, b: Lit) {
        self.cnf.add_structural_clause(vec![out.negated(), a, b]);
        self.cnf
            .add_structural_clause(vec![out.negated(), a.negated(), b.negated()]);
        self.cnf.add_structural_clause(vec![out, a.negated(), b]);
        self.cnf.add_structural_clause(vec![out, a, b.negated()]);
    }

    fn fresh(&mut self) -> Lit {
        Lit::positive(self.cnf.fresh_var())
    }

    fn not_of(&mut self, a: Lit) -> Lit {
        let out = self.fresh();
        self.equal(out, a.negated());
        out
    }

    fn xor_chain(&mut self, inputs: &[Lit]) -> Lit {
        let mut acc = inputs[0];
        for lit in &inputs[1..] {
            let next = self.fresh();
            self.xor_gate(next, acc, *lit);
            acc = next;
        }
        acc
    }

    fn adder(&mut self, a: &[Lit], b: &[Lit], carry_in: Option<Lit>) -> Vec<Lit> {
        let mut out = Vec::with_capacity(a.len());
        let mut carry = match carry_in {
            Some(c) => c,
            None => {
                let c = self.fresh();
                self.constant(c, false);
                c
            }
        };
        for i in 0..a.len() {
            let axb = self.fresh();
            self.xor_gate(axb, a[i], b[i]);
            let sum = self.fresh();
            self.xor_gate(sum, axb, carry);
            // Majority carry-out.
            let cout = self.fresh();
            for (x, y) in [(a[i], b[i]), (a[i], carry), (b[i], carry)] {
                self.cnf
                    .add_structural_clause(vec![cout, x.negated(), y.negated()]);
                self.cnf.add_structural_clause(vec![cout.negated(), x, y]);
            }
            out.push(sum);
            carry = cout;
        }
        out
    }

    /// Borrow-out literal of `a - b` (i.e. `a < b` unsigned).
    fn less_than(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut borrow = self.fresh();
        self.constant(borrow, false);
        for i in 0..a.len() {
            let na = self.not_of(a[i]);
            let t1 = self.fresh();
            self.and_gate(t1, &[na, b[i]]);
            let xnor = self.fresh();
            let x = self.fresh();
            self.xor_gate(x, a[i], b[i]);
            self.equal(xnor, x.negated());
            let t2 = self.fresh();
            self.and_gate(t2, &[xnor, borrow]);
            let next = self.fresh();
            self.or_gate(next, &[t1, t2]);
            borrow = next;
        }
        borrow
    }

    fn equality(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut eq_bits = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let x = self.fresh();
            self.xor_gate(x, a[i], b[i]);
            eq_bits.push(self.not_of(x));
        }
        let out = self.fresh();
        self.and_gate(out, &eq_bits);
        out
    }

    fn encode_gate(
        &mut self,
        netlist: &Netlist,
        gate: &wlac_netlist::Gate,
    ) -> Result<(), UnsupportedGateError> {
        let out_bits = self.bits[&gate.output].clone();
        let in_bits: Vec<Vec<Lit>> = gate.inputs.iter().map(|n| self.bits[n].clone()).collect();
        match &gate.kind {
            GateKind::Const(v) => {
                for (i, lit) in out_bits.iter().enumerate() {
                    self.constant(*lit, v.bit(i));
                }
            }
            GateKind::Buf | GateKind::Dff { .. } => {
                for (o, i) in out_bits.iter().zip(&in_bits[0]) {
                    self.equal(*o, *i);
                }
            }
            GateKind::Not => {
                for (o, i) in out_bits.iter().zip(&in_bits[0]) {
                    self.equal(*o, i.negated());
                }
            }
            GateKind::And | GateKind::Or | GateKind::Xor => {
                for (bit, o) in out_bits.iter().enumerate() {
                    let column: Vec<Lit> = in_bits.iter().map(|b| b[bit]).collect();
                    match gate.kind {
                        GateKind::And => self.and_gate(*o, &column),
                        GateKind::Or => self.or_gate(*o, &column),
                        _ => {
                            let x = self.xor_chain(&column);
                            self.equal(*o, x);
                        }
                    }
                }
            }
            GateKind::ReduceAnd => {
                let all: Vec<Lit> = in_bits[0].clone();
                self.and_gate(out_bits[0], &all);
            }
            GateKind::ReduceOr => {
                let all: Vec<Lit> = in_bits[0].clone();
                self.or_gate(out_bits[0], &all);
            }
            GateKind::ReduceXor => {
                let x = self.xor_chain(&in_bits[0]);
                self.equal(out_bits[0], x);
            }
            GateKind::Add => {
                let sum = self.adder(&in_bits[0], &in_bits[1], None);
                for (o, s) in out_bits.iter().zip(sum) {
                    self.equal(*o, s);
                }
            }
            GateKind::Sub => {
                let nb: Vec<Lit> = in_bits[1].iter().map(|l| l.negated()).collect();
                let one = self.fresh();
                self.constant(one, true);
                let sum = self.adder(&in_bits[0], &nb, Some(one));
                for (o, s) in out_bits.iter().zip(sum) {
                    self.equal(*o, s);
                }
            }
            GateKind::Eq | GateKind::Ne => {
                let eq = self.equality(&in_bits[0], &in_bits[1]);
                let target = if gate.kind == GateKind::Eq {
                    eq
                } else {
                    eq.negated()
                };
                self.equal(out_bits[0], target);
            }
            GateKind::Lt | GateKind::Ge => {
                let lt = self.less_than(&in_bits[0], &in_bits[1]);
                let target = if gate.kind == GateKind::Lt {
                    lt
                } else {
                    lt.negated()
                };
                self.equal(out_bits[0], target);
            }
            GateKind::Gt | GateKind::Le => {
                let lt = self.less_than(&in_bits[1], &in_bits[0]);
                let target = if gate.kind == GateKind::Gt {
                    lt
                } else {
                    lt.negated()
                };
                self.equal(out_bits[0], target);
            }
            GateKind::Mux => {
                let sel = in_bits[0][0];
                for (bit, o) in out_bits.iter().enumerate() {
                    let a = in_bits[1][bit];
                    let b = in_bits[2][bit];
                    self.cnf
                        .add_structural_clause(vec![sel.negated(), a.negated(), *o]);
                    self.cnf
                        .add_structural_clause(vec![sel.negated(), a, o.negated()]);
                    self.cnf.add_structural_clause(vec![sel, b.negated(), *o]);
                    self.cnf.add_structural_clause(vec![sel, b, o.negated()]);
                }
            }
            GateKind::Concat => {
                let low_w = in_bits[1].len();
                for (i, o) in out_bits.iter().enumerate() {
                    let src = if i < low_w {
                        in_bits[1][i]
                    } else {
                        in_bits[0][i - low_w]
                    };
                    self.equal(*o, src);
                }
            }
            GateKind::Slice { lo } => {
                for (i, o) in out_bits.iter().enumerate() {
                    self.equal(*o, in_bits[0][lo + i]);
                }
            }
            GateKind::ZeroExt => {
                for (i, o) in out_bits.iter().enumerate() {
                    if i < in_bits[0].len() {
                        self.equal(*o, in_bits[0][i]);
                    } else {
                        self.constant(*o, false);
                    }
                }
            }
            GateKind::Shl | GateKind::Shr => {
                // Only constant shift amounts are supported.
                let amount = netlist
                    .driver(gate.inputs[1])
                    .map(|d| netlist.gate(d))
                    .and_then(|g| match &g.kind {
                        GateKind::Const(v) => v.to_u64(),
                        _ => None,
                    })
                    .ok_or_else(|| UnsupportedGateError {
                        gate: "variable shift".into(),
                    })? as usize;
                let left = gate.kind == GateKind::Shl;
                let width = out_bits.len();
                for (i, o) in out_bits.iter().enumerate() {
                    let src = if left {
                        i.checked_sub(amount)
                    } else {
                        Some(i + amount).filter(|j| *j < width)
                    };
                    match src {
                        Some(j) => self.equal(*o, in_bits[0][j]),
                        None => self.constant(*o, false),
                    }
                }
            }
            GateKind::Mul => return Err(UnsupportedGateError { gate: "mul".into() }),
        }
        Ok(())
    }
}

/// Outcome of a bounded model check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BmcOutcome {
    /// No counter-example (or witness) exists within the bound.
    HoldsUpToBound,
    /// A satisfying assignment was found at the reported depth.
    Found {
        /// Unrolling depth at which the SAT solver found a model.
        depth: usize,
    },
    /// The SAT budget was exhausted or a gate was unsupported.
    Unknown,
}

/// Resource report of a BMC run, comparable to the ATPG checker's
/// [`wlac_atpg::CheckStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmcReport {
    /// Outcome.
    pub outcome: BmcOutcome,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Peak CNF memory in bytes.
    pub peak_memory_bytes: usize,
    /// Total CNF variables allocated across all bounds.
    pub variables: usize,
    /// Total CNF clauses across all bounds.
    pub clauses: usize,
    /// Concrete trace over the original sequential design when the outcome is
    /// [`BmcOutcome::Found`]: the SAT model's initial state and per-frame
    /// primary inputs, replayable with [`Trace::replay_monitor`] for
    /// cross-engine validation.
    pub trace: Option<Trace>,
    /// CDCL effort counters accumulated across all unrolling depths.
    pub sat: crate::sat::SatStats,
}

/// Runs SAT-based bounded model checking on a verification problem.
///
/// For `Always` properties it searches for a violation of the monitor, for
/// `Eventually` it searches for a witness — the same problems the ATPG
/// checker solves, making the reports directly comparable.
pub fn bounded_model_check(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
) -> BmcReport {
    bounded_model_check_cancellable(
        verification,
        max_frames,
        decision_budget,
        &CancelToken::new(),
    )
}

/// Converts a SAT model of an unrolled circuit into a [`Trace`] over the
/// original sequential design (initial flip-flop state plus per-frame primary
/// inputs), mirroring the ATPG checker's trace extraction.
fn model_to_trace(
    verification: &Verification,
    unrolling: &Unrolling,
    blaster: &BitBlaster,
    model: &[bool],
) -> Trace {
    let netlist = &verification.netlist;
    let initial_state = unrolling
        .initial_states()
        .iter()
        .map(|init| {
            let q = netlist.gate(init.flip_flop).output;
            (q, blaster.decode_net(model, init.net))
        })
        .collect();
    let inputs = (0..unrolling.frames())
        .map(|frame| {
            netlist
                .inputs()
                .iter()
                .map(|pi| (*pi, blaster.decode_net(model, unrolling.net(frame, *pi))))
                .collect()
        })
        .collect();
    Trace {
        initial_state,
        inputs,
    }
}

/// One literal of a frame-relative learned clause: bit `bit` of the copy of
/// `net` (a net of the **original** sequential design) at time-frame `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameLit {
    /// Time-frame the literal lives in (0-based, `< FrameClause::depth`).
    pub frame: u32,
    /// Net of the original (un-expanded) design.
    pub net: NetId,
    /// Bit index within the net.
    pub bit: u32,
    /// `true` when the literal asserts the bit is 0.
    pub negated: bool,
}

/// A design-valid learned clause lifted out of a bounded-model-checking run,
/// expressed over frame-relative net bits of the original design so it can be
/// replayed into any later unrolling of the same design.
///
/// `depth` records the unrolling depth the clause was learned at. The clause
/// is implied by the transition structure of frames `0..depth`; because the
/// structure of frames `s..s+depth` in any deeper unrolling is a superset of
/// that (frame 0 state variables are unconstrained pseudo-inputs, later
/// frames only add the connecting buffers), the clause shifted **up** by any
/// `s ≥ 0` remains valid in every unrolling of at least `depth + s` frames.
/// Shifting *down* would be unsound — the derivation may have relied on a
/// frame's state being driven by its predecessor.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrameClause {
    /// Unrolling depth (number of frames) at learn time.
    pub depth: u32,
    /// The literals; the clause asserts their disjunction.
    pub lits: Vec<FrameLit>,
}

impl FrameClause {
    /// Structural well-formedness against the design the clause claims to
    /// describe: every literal must name an existing net, a bit within its
    /// width and a frame below the recorded depth. Malformed clauses (e.g. a
    /// corrupted or poisoned knowledge base) must be rejected by callers
    /// before replay.
    pub fn is_well_formed(&self, netlist: &Netlist) -> bool {
        self.depth >= 1
            && !self.lits.is_empty()
            && self.lits.iter().all(|lit| {
                lit.frame < self.depth
                    && lit.net.index() < netlist.net_count()
                    && (lit.bit as usize) < netlist.net_width(lit.net)
            })
    }
}

/// Maximum length of a lifted clause: short clauses prune the most per byte,
/// and every extra literal must survive the net-bit lifting anyway.
const MAX_LIFT_LEN: usize = 8;

/// Like [`bounded_model_check_cancellable`], but warm-started and learning:
/// `seeds` are design-valid [`FrameClause`]s from earlier runs on the *same*
/// design, injected (at every sound shift) into each unrolling before
/// solving; the second return value is the new design-valid clauses learned
/// by this run, lifted back to frame-relative form.
///
/// Malformed seed clauses are skipped, never trusted — use
/// [`FrameClause::is_well_formed`] plus a design-identity check upstream to
/// reject a poisoned store outright.
pub fn bounded_model_check_learning(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
    cancel: &CancelToken,
    seeds: &[FrameClause],
) -> (BmcReport, Vec<FrameClause>) {
    bmc_impl(
        verification,
        max_frames,
        decision_budget,
        cancel,
        seeds,
        true,
    )
}

/// Injects every sound shift of each seed clause into the blasted formula.
fn inject_seeds(
    blaster: &mut BitBlaster,
    unrolling: &Unrolling,
    source: &Netlist,
    frames: usize,
    seeds: &[FrameClause],
) {
    for seed in seeds {
        if !seed.is_well_formed(source) || seed.depth as usize > frames {
            continue;
        }
        for shift in 0..=(frames as u32 - seed.depth) {
            let clause = seed
                .lits
                .iter()
                .map(|lit| {
                    let expanded = unrolling.net((lit.frame + shift) as usize, lit.net);
                    let sat_lit = blaster.bit(expanded, lit.bit as usize);
                    if lit.negated {
                        sat_lit.negated()
                    } else {
                        sat_lit
                    }
                })
                .collect();
            // Seeds are design-valid, so they are structural clauses: new
            // clauses learned from them stay exportable.
            blaster.cnf.add_structural_clause(clause);
        }
    }
}

/// Lifts the solver's exported clauses to frame-relative form. A clause
/// survives only when every literal maps to a net bit of the expanded circuit
/// (no Tseitin auxiliaries) whose net traces back to the original design.
fn lift_learned(
    blaster: &BitBlaster,
    unrolling: &Unrolling,
    frames: usize,
    exported: &[Vec<Lit>],
    out: &mut Vec<FrameClause>,
) {
    'clauses: for clause in exported {
        let mut lits = Vec::with_capacity(clause.len());
        for lit in clause {
            let Some((expanded, bit)) = blaster.net_bit_of_var(lit.var()) else {
                continue 'clauses;
            };
            let Some((frame, net)) = unrolling.origin(expanded) else {
                continue 'clauses;
            };
            lits.push(FrameLit {
                frame: frame as u32,
                net,
                bit,
                negated: lit.is_negative(),
            });
        }
        out.push(FrameClause {
            depth: frames as u32,
            lits,
        });
    }
}

/// Like [`bounded_model_check`], but polls `cancel` between the steps of each
/// unrolling depth (unroll, encode, solve) and inside the SAT search, so a
/// portfolio supervisor can stop a losing BMC run promptly. A cancelled run
/// reports [`BmcOutcome::Unknown`].
pub fn bounded_model_check_cancellable(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
    cancel: &CancelToken,
) -> BmcReport {
    bmc_impl(
        verification,
        max_frames,
        decision_budget,
        cancel,
        &[],
        false,
    )
    .0
}

fn bmc_impl(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
    cancel: &CancelToken,
    seeds: &[FrameClause],
    learn: bool,
) -> (BmcReport, Vec<FrameClause>) {
    let start = Instant::now();
    let mut peak = 0usize;
    let mut variables = 0usize;
    let mut clauses = 0usize;
    let mut sat = crate::sat::SatStats::default();
    let mut harvest: Vec<FrameClause> = Vec::new();
    let (outcome, trace) = 'bounds: {
        for frames in 1..=max_frames {
            if cancel.is_cancelled() {
                break 'bounds (BmcOutcome::Unknown, None);
            }
            let unrolling = Unrolling::new(&verification.netlist, frames);
            // Unrolling, encoding and solving a deep bound each take long
            // enough that a cancelled run polls between them, not only once
            // per bound.
            if cancel.is_cancelled() {
                break 'bounds (BmcOutcome::Unknown, None);
            }
            let Ok(mut blaster) = BitBlaster::encode(unrolling.circuit()) else {
                break 'bounds (BmcOutcome::Unknown, None);
            };
            inject_seeds(
                &mut blaster,
                &unrolling,
                &verification.netlist,
                frames,
                seeds,
            );
            for init in unrolling.initial_states() {
                if let Some(value) = &init.init {
                    blaster.constrain_value(init.net, value);
                }
            }
            for env in &verification.environment {
                for frame in 0..frames {
                    let net = unrolling.net(frame, *env);
                    blaster.constrain_value(net, &Bv::from_u64(1, 1));
                }
            }
            let target = match verification.property.kind {
                PropertyKind::Always => 0u64,
                PropertyKind::Eventually => 1u64,
            };
            let monitor = unrolling.net(frames - 1, verification.property.monitor);
            blaster.constrain_value(monitor, &Bv::from_u64(1, target));
            peak = peak.max(blaster.cnf.memory_bytes());
            variables += blaster.cnf.num_vars();
            clauses += blaster.cnf.num_clauses();
            if cancel.is_cancelled() {
                break 'bounds (BmcOutcome::Unknown, None);
            }
            let max_export = if learn { MAX_LIFT_LEN } else { 0 };
            let outcome = blaster
                .cnf
                .solve_learning(decision_budget, cancel, max_export);
            sat.absorb(&outcome.stats);
            if learn {
                lift_learned(&blaster, &unrolling, frames, &outcome.learned, &mut harvest);
            }
            if let Some(model) = outcome.model {
                let trace = model_to_trace(verification, &unrolling, &blaster, &model);
                break 'bounds (BmcOutcome::Found { depth: frames }, Some(trace));
            }
            if !outcome.complete {
                break 'bounds (BmcOutcome::Unknown, None);
            }
        }
        (BmcOutcome::HoldsUpToBound, None)
    };
    (
        BmcReport {
            outcome,
            elapsed: start.elapsed(),
            peak_memory_bytes: peak,
            variables,
            clauses,
            trace,
            sat,
        },
        harvest,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;

    #[test]
    fn combinational_tautology_is_unsat_for_violation() {
        // y = a | !a is always 1: BMC finds no violation.
        let mut nl = Netlist::new("taut");
        let a = nl.input("a", 1);
        let na = nl.not(a);
        let y = nl.or2(a, na);
        let property = Property::always(&nl, "taut", y);
        let report = bounded_model_check(&Verification::new(nl, property), 3, 100_000);
        assert_eq!(report.outcome, BmcOutcome::HoldsUpToBound);
        assert!(report.clauses > 0);
    }

    #[test]
    fn counter_violation_found_at_expected_depth() {
        // A 3-bit counter from 0; assert q != 2 — violated at depth 3
        // (values 0, 1, 2).
        let mut nl = Netlist::new("cnt");
        let (q, ff) = nl.dff_deferred(3, Some(Bv::zero(3)));
        let one = nl.constant(&Bv::from_u64(3, 1));
        let next = nl.add(q, one);
        nl.connect_dff_data(ff, next);
        let two = nl.constant(&Bv::from_u64(3, 2));
        let ok = nl.ne(q, two);
        let property = Property::always(&nl, "never2", ok);
        let report = bounded_model_check(&Verification::new(nl, property), 6, 1_000_000);
        assert_eq!(report.outcome, BmcOutcome::Found { depth: 3 });
    }

    #[test]
    fn comparator_and_arith_encoding_agree_with_simulation() {
        // Exhaustively compare the CNF encoding of y = (a + b) > 9 with the
        // word-level simulator for 4-bit inputs.
        let mut nl = Netlist::new("gt");
        let a = nl.input("a", 3);
        let b = nl.input("b", 3);
        let sum = nl.add(a, b);
        let limit = nl.constant(&Bv::from_u64(3, 5));
        let y = nl.gt(sum, limit);
        nl.mark_output("y", y);
        for av in 0..8u64 {
            for bv in 0..8u64 {
                let mut blaster = BitBlaster::encode(&nl).unwrap();
                blaster.constrain_value(a, &Bv::from_u64(3, av));
                blaster.constrain_value(b, &Bv::from_u64(3, bv));
                let expect = ((av + bv) % 8) > 5;
                blaster.constrain_value(y, &Bv::from_u64(1, expect as u64));
                let (model, complete) = blaster.cnf.solve(100_000);
                assert!(complete);
                assert!(model.is_some(), "encoding disagrees for {av}+{bv}");
                // And the opposite value must be unsatisfiable.
                let mut blaster = BitBlaster::encode(&nl).unwrap();
                blaster.constrain_value(a, &Bv::from_u64(3, av));
                blaster.constrain_value(b, &Bv::from_u64(3, bv));
                blaster.constrain_value(y, &Bv::from_u64(1, !expect as u64));
                let (model, complete) = blaster.cnf.solve(100_000);
                assert!(complete);
                assert!(model.is_none(), "inconsistent encoding for {av}+{bv}");
            }
        }
    }

    #[test]
    fn learning_bmc_harvests_and_replays_clauses_without_changing_verdicts() {
        // A counter with a structural impossibility (q + q is always even,
        // so bit 0 of the doubled value is 0): plenty of design-valid
        // learning material.
        let mut nl = Netlist::new("cnt");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let next = nl.add(q, one);
        nl.connect_dff_data(ff, next);
        let five = nl.constant(&Bv::from_u64(4, 5));
        let ok = nl.ne(q, five);
        let property = Property::always(&nl, "never5", ok);
        let verification = Verification::new(nl, property);

        let cancel = CancelToken::new();
        let cold = bounded_model_check_cancellable(&verification, 8, 1_000_000, &cancel);
        let (warm_report, harvest) =
            bounded_model_check_learning(&verification, 8, 1_000_000, &cancel, &[]);
        assert_eq!(cold.outcome, warm_report.outcome);
        // Everything harvested is structurally well-formed for this design.
        for clause in &harvest {
            assert!(clause.is_well_formed(&verification.netlist), "{clause:?}");
        }

        // Replaying the harvest must reproduce the identical outcome (the
        // clauses are implied, so the per-depth SAT answers cannot move).
        let (seeded, _) =
            bounded_model_check_learning(&verification, 8, 1_000_000, &cancel, &harvest);
        assert_eq!(seeded.outcome, warm_report.outcome);
        match (&warm_report.trace, &seeded.trace) {
            (Some(a), Some(b)) => assert_eq!(a.len(), b.len(), "violation depth must match"),
            (None, None) => {}
            other => panic!("trace presence diverged: {other:?}"),
        }
    }

    #[test]
    fn malformed_seed_clauses_are_skipped_not_trusted() {
        // A tautological design (y = a | !a): holds at every bound.
        let mut nl = Netlist::new("taut");
        let a = nl.input("a", 1);
        let na = nl.not(a);
        let y = nl.or2(a, na);
        let property = Property::always(&nl, "taut", y);
        let verification = Verification::new(nl, property);
        let poison = vec![
            // Net id far out of range.
            FrameClause {
                depth: 1,
                lits: vec![FrameLit {
                    frame: 0,
                    net: NetId::from_index(999),
                    bit: 0,
                    negated: true,
                }],
            },
            // Frame beyond the recorded depth.
            FrameClause {
                depth: 1,
                lits: vec![FrameLit {
                    frame: 3,
                    net: verification.netlist.inputs()[0],
                    bit: 0,
                    negated: false,
                }],
            },
            // Empty clause (would be instant UNSAT if trusted).
            FrameClause {
                depth: 1,
                lits: Vec::new(),
            },
        ];
        let (report, _) =
            bounded_model_check_learning(&verification, 3, 100_000, &CancelToken::new(), &poison);
        assert_eq!(
            report.outcome,
            BmcOutcome::HoldsUpToBound,
            "poisoned seeds must be skipped, not trusted"
        );
    }

    #[test]
    fn multipliers_are_rejected() {
        let mut nl = Netlist::new("mul");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let _ = nl.mul(a, b);
        assert!(BitBlaster::encode(&nl).is_err());
    }
}
