//! Bit-blasting of word-level netlists to CNF, and a SAT-based bounded model
//! checker in the style of Biere et al. (reference [13] of the paper).
//!
//! This is the bit-level baseline the paper compares against conceptually:
//! every word-level primitive is expanded into single-bit clauses (Tseitin
//! encoding), so the formula size — and the solver's memory — grows with the
//! bit width, whereas the word-level ATPG engine keeps buses as single
//! entities.
//!
//! The checker is only a solve step: [`bounded_model_check`] runs the bound
//! loop of [`wlac_atpg::check_bounds`], and for each query blasts the
//! unrolled circuit, constrains the query's requirements, solves and decodes
//! a model through the shared trace extractor. So it asks what the ATPG
//! checker asks, including the one-step induction that proves a property
//! outright. Like the ATPG checker it runs cold: nothing it learns outlives
//! the run.

use crate::sat::{Cnf, Lit};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};
use wlac_atpg::{check_bounds, CancelToken, QueryAnswer, Verdict, Verification};
use wlac_bv::Bv;
use wlac_netlist::{GateKind, NetId, Netlist};

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
        };
        for net in netlist.nets() {
            let lits = (0..netlist.net_width(net))
                .map(|_| Lit::positive(this.cnf.fresh_var()))
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
        self.cnf.add_clause(vec![a.negated(), b]);
        self.cnf.add_clause(vec![a, b.negated()]);
    }

    fn constant(&mut self, lit: Lit, value: bool) {
        self.cnf
            .add_clause(vec![if value { lit } else { lit.negated() }]);
    }

    fn and_gate(&mut self, out: Lit, inputs: &[Lit]) {
        let mut clause = vec![out];
        for i in inputs {
            self.cnf.add_clause(vec![out.negated(), *i]);
            clause.push(i.negated());
        }
        self.cnf.add_clause(clause);
    }

    fn or_gate(&mut self, out: Lit, inputs: &[Lit]) {
        let mut clause = vec![out.negated()];
        for i in inputs {
            self.cnf.add_clause(vec![out, i.negated()]);
            clause.push(*i);
        }
        self.cnf.add_clause(clause);
    }

    fn xor_gate(&mut self, out: Lit, a: Lit, b: Lit) {
        self.cnf.add_clause(vec![out.negated(), a, b]);
        self.cnf
            .add_clause(vec![out.negated(), a.negated(), b.negated()]);
        self.cnf.add_clause(vec![out, a.negated(), b]);
        self.cnf.add_clause(vec![out, a, b.negated()]);
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
                self.cnf.add_clause(vec![cout, x.negated(), y.negated()]);
                self.cnf.add_clause(vec![cout.negated(), x, y]);
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
                    self.cnf.add_clause(vec![sel.negated(), a.negated(), *o]);
                    self.cnf.add_clause(vec![sel.negated(), a, o.negated()]);
                    self.cnf.add_clause(vec![sel, b.negated(), *o]);
                    self.cnf.add_clause(vec![sel, b, o.negated()]);
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

/// Resource report of a BMC run, comparable to the ATPG checker's
/// [`wlac_atpg::CheckStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BmcReport {
    /// The conclusion: a full proof when the induction step closes, a
    /// validated trace over the original sequential design (the SAT model's
    /// initial state and per-frame primary inputs) at the first depth with a
    /// model, an exhausted bound, or `Unknown` (`cancelled`, `SAT budget
    /// exhausted` or `unsupported gate`).
    pub verdict: Verdict,
    /// Wall-clock time.
    pub elapsed: Duration,
    /// Peak CNF memory in bytes.
    pub peak_memory_bytes: usize,
    /// Total CNF variables allocated across all queries (every bound and
    /// the induction step).
    pub variables: usize,
    /// Total CNF clauses across all queries.
    pub clauses: usize,
    /// CDCL effort counters accumulated across all queries.
    pub sat: crate::sat::SatStats,
}

/// One literal of a frame-relative clause: bit `bit` of the copy of `net`
/// (a net of the **original** sequential design) at time-frame `frame`.
///
/// Nothing builds these any more. Earlier servers lifted SAT-BMC's learned
/// clauses into this form to seed later runs on the same design, and their
/// snapshots and journals still carry them: the decoders read such clauses
/// and drop them. The benchmark package (`perfbench/`) also names the type,
/// through [`FrameClause`], until ROADMAP item 3 un-pins it.
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

/// A frame-relative clause of [`FrameLit`]s, as earlier servers persisted
/// them: `depth` was the unrolling depth it was learned at. Inert; see
/// [`FrameLit`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FrameClause {
    /// Unrolling depth (number of frames) at learn time.
    pub depth: u32,
    /// The literals; the clause asserts their disjunction.
    pub lits: Vec<FrameLit>,
}

/// Runs SAT-based bounded model checking on a verification problem: the
/// shared bound loop of [`wlac_atpg::check_bounds`] (with its induction
/// step) over a bit-blasted encoding of each query. The queries are the ones
/// the ATPG checker solves, making the reports directly comparable. Every
/// query is solved from scratch.
///
/// `cancel` is polled before each bound, between encoding and solving, and
/// inside the SAT search, so a portfolio supervisor can stop a losing run
/// promptly; a cancelled run reports [`Verdict::Unknown`] with reason
/// `cancelled`.
pub fn bounded_model_check(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
    cancel: &CancelToken,
) -> BmcReport {
    let start = Instant::now();
    let mut peak = 0usize;
    let mut variables = 0usize;
    let mut clauses = 0usize;
    let mut sat = crate::sat::SatStats::default();
    let verdict = check_bounds(verification, max_frames, true, cancel, |query| {
        let Ok(mut blaster) = BitBlaster::encode(query.unrolling.circuit()) else {
            return QueryAnswer::Inconclusive("unsupported gate");
        };
        for (net, value) in query.requirements() {
            blaster.constrain_value(net, value);
        }
        peak = peak.max(blaster.cnf.memory_bytes());
        variables += blaster.cnf.num_vars();
        clauses += blaster.cnf.num_clauses();
        // Encoding a deep bound takes long enough that a cancelled run polls
        // here too, not only once per bound.
        if cancel.is_cancelled() {
            return QueryAnswer::Inconclusive("cancelled");
        }
        let (model, complete, stats) = blaster.cnf.solve_with_stats(decision_budget, cancel);
        sat.absorb(&stats);
        match model {
            Some(model) => QueryAnswer::Trace(query.trace(|net| blaster.decode_net(&model, net))),
            None if complete => QueryAnswer::Unsat,
            None if cancel.is_cancelled() => QueryAnswer::Inconclusive("cancelled"),
            None => QueryAnswer::Inconclusive("SAT budget exhausted"),
        }
    });
    BmcReport {
        verdict,
        elapsed: start.elapsed(),
        peak_memory_bytes: peak,
        variables,
        clauses,
        sat,
    }
}

/// [`bounded_model_check`] under the signature of the clause-seeding checker
/// it replaced: `seeds` are ignored and the second value is always empty.
/// Inert; kept only because the benchmark package (`perfbench/`) still calls
/// it, and it goes when ROADMAP item 3 un-pins that package.
pub fn bounded_model_check_learning(
    verification: &Verification,
    max_frames: usize,
    decision_budget: u64,
    cancel: &CancelToken,
    _seeds: &[FrameClause],
) -> (BmcReport, Vec<FrameClause>) {
    (
        bounded_model_check(verification, max_frames, decision_budget, cancel),
        Vec::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;
    use wlac_netlist::Unrolling;

    /// Runs the BMC, never cancelled.
    fn bmc(verification: &Verification, max_frames: usize, budget: u64) -> BmcReport {
        bounded_model_check(verification, max_frames, budget, &CancelToken::new())
    }

    #[test]
    fn combinational_tautology_is_unsat_for_violation() {
        // y = a | !a is always 1: BMC finds no violation, and the induction
        // step closes the proof after the first frame.
        let mut nl = Netlist::new("taut");
        let a = nl.input("a", 1);
        let na = nl.not(a);
        let y = nl.or2(a, na);
        let property = Property::always(&nl, "taut", y);
        let report = bmc(&Verification::new(nl, property), 3, 100_000);
        assert_eq!(
            report.verdict,
            Verdict::Holds {
                proved: true,
                frames: 1
            }
        );
        assert!(report.clauses > 0);
    }

    #[test]
    fn a_non_inductive_invariant_keeps_its_bounded_answer() {
        // A 3-bit counter from 0 that wraps at 4 never reaches 6, but
        // q != 6 is not inductive (the unreachable q = 5 steps to 6), so the
        // step fails and the loop keeps searching to the bound.
        let mut nl = Netlist::new("wrap");
        let (q, ff) = nl.dff_deferred(3, Some(Bv::zero(3)));
        let one = nl.constant(&Bv::from_u64(3, 1));
        let plus = nl.add(q, one);
        let four = nl.constant(&Bv::from_u64(3, 4));
        let at_four = nl.eq(q, four);
        let zero = nl.constant(&Bv::zero(3));
        let next = nl.mux(at_four, zero, plus);
        nl.connect_dff_data(ff, next);
        let six = nl.constant(&Bv::from_u64(3, 6));
        let ok = nl.ne(q, six);
        let property = Property::always(&nl, "never6", ok);
        let verification = Verification::new(nl, property);
        let report = bmc(&verification, 5, 1_000_000);
        assert_eq!(
            report.verdict,
            Verdict::Holds {
                proved: false,
                frames: 5
            }
        );
        // The step is a query of its own: six formulas for five bounds.
        let bound_only: usize = (1..=5)
            .map(|frames| {
                let unrolling = Unrolling::new(&verification.netlist, frames);
                BitBlaster::encode(unrolling.circuit())
                    .unwrap()
                    .cnf
                    .num_vars()
            })
            .sum();
        let step = BitBlaster::encode(Unrolling::new(&verification.netlist, 2).circuit())
            .unwrap()
            .cnf
            .num_vars();
        assert_eq!(report.variables, bound_only + step);
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
        let report = bmc(&Verification::new(nl, property), 6, 1_000_000);
        let Verdict::Violated { trace } = &report.verdict else {
            panic!("expected a violation, got {:?}", report.verdict);
        };
        assert_eq!(trace.len(), 3);
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

    /// A 3-bit counter from 0 and the objective "q reaches 2": the witness
    /// needs three cycles (values 0, 1, 2).
    fn reaches_two(wrap_at_one: bool) -> Verification {
        let mut nl = Netlist::new("cnt");
        let (q, ff) = nl.dff_deferred(3, Some(Bv::zero(3)));
        let one = nl.constant(&Bv::from_u64(3, 1));
        let plus = nl.add(q, one);
        let next = if wrap_at_one {
            // q alternates 0, 1, 0, 1, ... and never reaches 2.
            let at_one = nl.eq(q, one);
            let zero = nl.constant(&Bv::zero(3));
            nl.mux(at_one, zero, plus)
        } else {
            plus
        };
        nl.connect_dff_data(ff, next);
        let two = nl.constant(&Bv::from_u64(3, 2));
        let hit = nl.eq(q, two);
        let property = Property::eventually(&nl, "reaches_2", hit);
        Verification::new(nl, property)
    }

    #[test]
    fn reachable_objective_gives_a_witness_at_its_depth() {
        let report = bmc(&reaches_two(false), 6, 1_000_000);
        let Verdict::WitnessFound { trace } = &report.verdict else {
            panic!("expected a witness, got {:?}", report.verdict);
        };
        assert_eq!(trace.len(), 3);
    }

    #[test]
    fn unreachable_objective_has_no_witness_within_the_bound() {
        let report = bmc(&reaches_two(true), 5, 1_000_000);
        assert_eq!(report.verdict, Verdict::WitnessAbsent { frames: 5 });
    }

    #[test]
    fn a_run_cancelled_before_it_starts_is_unknown() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = bounded_model_check(&reaches_two(false), 6, 1_000_000, &cancel);
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: "cancelled".into()
            }
        );
        assert_eq!(report.clauses, 0, "no bound was encoded");
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
