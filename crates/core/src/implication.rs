//! Word-level logic implication (Section 3.1 of the paper).
//!
//! Every gate kind has forward and backward implication rules expressed over
//! three-valued cubes, and every rule is mask arithmetic on the cubes'
//! known/value planes, one 64-bit word at a time:
//!
//! * **Boolean gates**: forward is bit-parallel Kleene logic. Backward, an
//!   AND output bit at 1 forces every input to 1, and an output bit at 0
//!   forces the one input that is still undecided there to 0 when every
//!   other input is 1 (OR is the dual). "Exactly one undecided input" comes
//!   from a ones/twos accumulator over the inputs' undecided masks; XOR uses
//!   the same accumulator over the unknown masks plus a parity word,
//! * **arithmetic units** use 3-valued ripple addition, two carry chains of
//!   machine additions per word, and subtraction as `a + !b + 1` on the same
//!   chains (the Fig. 3 adder rule: the missing operand is
//!   `output − operand`),
//! * **comparators** translate cubes to `[min, max]` ranges, tighten the
//!   ranges from the output value, and map back to cubes MSB-first
//!   (the Fig. 4 rule); nets of 64 bits or fewer keep the ranges in `u64`s,
//! * **multiplexors** and equality use cube union (plane agreement) and
//!   intersection (plane meet) with null-intersection reasoning; a required
//!   disequality whose operands agree wherever both are known, with a single
//!   bit position left open, gives that bit the opposite value on the side
//!   that does not know it,
//! * **slices, concatenations and zero-extensions** shift planes,
//! * frame-connection buffers (the unrolled form of registers) propagate in
//!   both directions.
//!
//! The rules read the assignment's cubes in place and build only the cubes
//! they propose. Their oracle is ground truth: `tests/implication_ground_truth.rs`
//! checks every rule's fixed point against the exact projection found by
//! concrete evaluation, and pins each rule's precision gap.
//!
//! The [`Propagator`] runs these rules to a fixed point over a levelized
//! event queue (gates bucketed by topological depth, so forward implications
//! sweep the circuit in evaluation order and each gate is typically visited
//! once per wave); any contradiction surfaces as a [`Conflict`].
//!
//! The whole loop is allocation-free at steady state for nets up to 128 bits:
//! cubes are stored inline ([`wlac_bv::Bv3`]), proposals go through a
//! reusable scratch buffer, and the assignment trail records word deltas.

use crate::assignment::{Assignment, Conflict};
use wlac_bv::arith::{add3, eq3, ge3, gt3, le3, lt3, mul3, ne3, shift3_var, sub3};
use wlac_bv::range::{
    refine_to_range_in_place, refine_to_range_u64, saturating_dec, saturating_inc, EmptyRangeError,
};
use wlac_bv::{Bv, Bv3, Tv};
use wlac_netlist::{Gate, GateId, GateKind, NetId, Netlist};

/// Counters describing the implication effort (reported in [`crate::CheckStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImplicationStats {
    /// Number of gate implication evaluations.
    pub gate_evaluations: u64,
    /// Number of net refinements that added information.
    pub refinements: u64,
}

impl ImplicationStats {
    /// Merges the counters of another implication run into this one.
    ///
    /// `CheckStats::absorb` delegates here; the exhaustive destructuring
    /// means a counter added to this struct cannot be silently dropped from
    /// aggregation — forgetting to merge it is a compile error.
    pub fn absorb(&mut self, other: &ImplicationStats) {
        let ImplicationStats {
            gate_evaluations,
            refinements,
        } = other;
        self.gate_evaluations += gate_evaluations;
        self.refinements += refinements;
    }
}

/// Forward 3-valued evaluation of a gate from its current input cubes.
pub(crate) fn forward_eval(netlist: &Netlist, gate: &Gate, asg: &Assignment) -> Bv3 {
    let input = |i: usize| asg.value(gate.inputs[i]);
    match &gate.kind {
        GateKind::Const(v) => Bv3::from_bv(v),
        GateKind::Buf | GateKind::Dff { .. } => input(0).clone(),
        GateKind::Not => input(0).not3(),
        GateKind::And | GateKind::Or | GateKind::Xor => {
            let mut acc = input(0).clone();
            for net in gate.inputs.iter().skip(1) {
                let v = asg.value(*net);
                match gate.kind {
                    GateKind::And => acc.and3_assign(v),
                    GateKind::Or => acc.or3_assign(v),
                    _ => acc.xor3_assign(v),
                }
            }
            acc
        }
        GateKind::ReduceAnd => {
            let counts = BitCounts::of(input(0));
            Bv3::from_tv(if counts.zeros > 0 {
                Tv::Zero
            } else if counts.ones == counts.width {
                Tv::One
            } else {
                Tv::X
            })
        }
        GateKind::ReduceOr => {
            let counts = BitCounts::of(input(0));
            Bv3::from_tv(if counts.ones > 0 {
                Tv::One
            } else if counts.zeros == counts.width {
                Tv::Zero
            } else {
                Tv::X
            })
        }
        GateKind::ReduceXor => {
            let counts = BitCounts::of(input(0));
            Bv3::from_tv(if counts.unknown() == 0 {
                Tv::from_bool(counts.ones % 2 == 1)
            } else {
                Tv::X
            })
        }
        GateKind::Add => add3(input(0), input(1)).0,
        GateKind::Sub => sub3(input(0), input(1)).0,
        GateKind::Mul => mul3(input(0), input(1)),
        GateKind::Shl => shift3_var(input(0), input(1), true),
        GateKind::Shr => shift3_var(input(0), input(1), false),
        GateKind::Eq => Bv3::from_tv(eq3(input(0), input(1))),
        GateKind::Ne => Bv3::from_tv(ne3(input(0), input(1))),
        GateKind::Lt => Bv3::from_tv(lt3(input(0), input(1))),
        GateKind::Le => Bv3::from_tv(le3(input(0), input(1))),
        GateKind::Gt => Bv3::from_tv(gt3(input(0), input(1))),
        GateKind::Ge => Bv3::from_tv(ge3(input(0), input(1))),
        GateKind::Mux => match input(0).to_tv() {
            Tv::One => input(1).clone(),
            Tv::Zero => input(2).clone(),
            Tv::X => {
                let mut union = input(1).clone();
                union.union_assign(input(2));
                union
            }
        },
        GateKind::Concat => input(0).concat(input(1)),
        GateKind::Slice { lo } => input(0).slice(*lo, netlist.net_width(gate.output)),
        GateKind::ZeroExt => input(0).resize(netlist.net_width(gate.output)),
    }
}

/// Proposed refinements (net, cube) produced by one gate implication step.
pub(crate) type Proposals = Vec<(NetId, Bv3)>;

/// Approximate heap bytes held by a proposal buffer: the spine plus the cube
/// payloads currently parked in it.
fn proposals_memory_bytes(proposals: &Proposals) -> usize {
    let cube_heap = |c: &Bv3| 2 * c.width().div_ceil(64).max(2) * 8;
    proposals.capacity() * std::mem::size_of::<(NetId, Bv3)>()
        + proposals.iter().map(|(_, c)| cube_heap(c)).sum::<usize>()
}

/// Computes forward and backward implications for one gate into `out`
/// (cleared first), forward first.
///
/// The proposals are merged into the assignment by the caller; a proposal
/// never *weakens* a value (merging is monotone), and conflicting proposals
/// are detected by [`Assignment::refine`].
pub(crate) fn imply_gate(netlist: &Netlist, gate: &Gate, asg: &Assignment, out: &mut Proposals) {
    out.clear();
    out.push((gate.output, forward_eval(netlist, gate, asg)));
    backward(netlist, gate, asg, out);
}

fn backward(netlist: &Netlist, gate: &Gate, asg: &Assignment, out: &mut Proposals) {
    let y = asg.value(gate.output);
    let input = |i: usize| asg.value(gate.inputs[i]);
    match &gate.kind {
        GateKind::Const(_) => {}
        GateKind::Buf | GateKind::Dff { .. } => out.push((gate.inputs[0], y.clone())),
        GateKind::Not => out.push((gate.inputs[0], y.not3())),
        GateKind::And | GateKind::Or => backward_and_or(gate, y, asg, out),
        GateKind::Xor => backward_xor(gate, y, asg, out),
        GateKind::ReduceAnd => {
            let v = input(0);
            match y.to_tv() {
                Tv::One => out.push((gate.inputs[0], Bv3::from_bv(&Bv::ones(v.width())))),
                Tv::Zero => {
                    let counts = BitCounts::of(v);
                    if counts.unknown() == 1 && counts.ones == v.width() - 1 {
                        out.push((gate.inputs[0], with_x_bits(v, Tv::Zero)));
                    }
                }
                Tv::X => {}
            }
        }
        GateKind::ReduceOr => {
            let v = input(0);
            match y.to_tv() {
                Tv::Zero => out.push((gate.inputs[0], Bv3::from_bv(&Bv::zero(v.width())))),
                Tv::One => {
                    let counts = BitCounts::of(v);
                    if counts.unknown() == 1 && counts.zeros == v.width() - 1 {
                        out.push((gate.inputs[0], with_x_bits(v, Tv::One)));
                    }
                }
                Tv::X => {}
            }
        }
        GateKind::ReduceXor => {
            let v = input(0);
            if let Some(target) = y.to_tv().to_bool() {
                let counts = BitCounts::of(v);
                if counts.unknown() == 1 {
                    let needed = target != (counts.ones % 2 == 1);
                    out.push((gate.inputs[0], with_x_bits(v, Tv::from_bool(needed))));
                }
            }
        }
        GateKind::Add => {
            // The Fig. 3 rule: each operand is output minus the other operand.
            out.push((gate.inputs[0], sub3(y, input(1)).0));
            out.push((gate.inputs[1], sub3(y, input(0)).0));
        }
        GateKind::Sub => {
            // y = a - b  ⇒  a = y + b,  b = a - y.
            out.push((gate.inputs[0], add3(y, input(1)).0));
            out.push((gate.inputs[1], sub3(input(0), y).0));
        }
        GateKind::Mul => backward_mul(y, input(0), input(1), gate, out),
        GateKind::Shl | GateKind::Shr => {
            if let Some(amount) = input(1).to_bv().and_then(|v| v.to_u64()) {
                let width = y.width();
                let amount = (amount as usize).min(width);
                let mut refined = input(0).clone();
                if amount < width {
                    // Output bit i + amount of a left shift is input bit i;
                    // input bit i + amount of a right shift is output bit i.
                    if gate.kind == GateKind::Shl {
                        refined.overlay(0, &y.slice(amount, width - amount));
                    } else {
                        refined.overlay(amount, &y.slice(0, width - amount));
                    }
                }
                out.push((gate.inputs[0], refined));
            }
        }
        GateKind::Eq | GateKind::Ne => {
            let equal_required = match (gate.kind == GateKind::Eq, y.to_tv()) {
                (true, Tv::One) | (false, Tv::Zero) => Some(true),
                (true, Tv::Zero) | (false, Tv::One) => Some(false),
                _ => None,
            };
            match equal_required {
                Some(true) => {
                    let mut meet = input(0).clone();
                    if meet.intersect_assign(input(1)) {
                        out.push((gate.inputs[0], meet.clone()));
                        out.push((gate.inputs[1], meet));
                    } else {
                        // Equality required but impossible: force a conflict by
                        // proposing the (empty) intersection through both sides.
                        out.push((gate.inputs[0], input(1).clone()));
                    }
                }
                Some(false) => {
                    if let Some((idx, cube)) = differ_at_open_bit(input(0), input(1)) {
                        out.push((gate.inputs[idx], cube));
                    }
                }
                None => {}
            }
        }
        GateKind::Lt | GateKind::Le | GateKind::Gt | GateKind::Ge => {
            if let Some(truth) = y.to_tv().to_bool() {
                // Normalise everything to a strict or non-strict `a (<|<=) b`.
                let (a_idx, b_idx, strict) = match (&gate.kind, truth) {
                    (GateKind::Lt, true) => (0, 1, true),
                    (GateKind::Lt, false) => (1, 0, false), // b <= a
                    (GateKind::Le, true) => (0, 1, false),
                    (GateKind::Le, false) => (1, 0, true), // b < a
                    (GateKind::Gt, true) => (1, 0, true),  // b < a
                    (GateKind::Gt, false) => (0, 1, false),
                    (GateKind::Ge, true) => (1, 0, false),
                    (GateKind::Ge, false) => (0, 1, true),
                    _ => unreachable!(),
                };
                let (a, b) = (input(a_idx), input(b_idx));
                let (refined_a, refined_b) = if a.width() <= 64 {
                    tighten_u64(a, b, strict)
                } else {
                    tighten_wide(a, b, strict)
                };
                for (idx, refined) in [(a_idx, refined_a), (b_idx, refined_b)] {
                    match refined {
                        Ok(cube) => out.push((gate.inputs[idx], cube)),
                        // No member satisfies the relation: force a conflict.
                        Err(_) => out.push((gate.output, Bv3::from_tv(Tv::from_bool(!truth)))),
                    }
                }
            }
        }
        GateKind::Mux => {
            let (t, e) = (input(1), input(2));
            match input(0).to_tv() {
                Tv::One => {
                    let mut meet = t.clone();
                    if meet.intersect_assign(y) {
                        out.push((gate.inputs[1], meet));
                    }
                }
                Tv::Zero => {
                    let mut meet = e.clone();
                    if meet.intersect_assign(y) {
                        out.push((gate.inputs[2], meet));
                    }
                }
                Tv::X => {
                    // Null intersection with the output rules a data input out
                    // and implies the select value (the paper's mux rule).
                    match (t.intersects(y), e.intersects(y)) {
                        (true, false) => out.push((gate.inputs[0], Bv3::from_tv(Tv::One))),
                        (false, true) => out.push((gate.inputs[0], Bv3::from_tv(Tv::Zero))),
                        (false, false) => {
                            // Both impossible: conflict via contradictory select.
                            out.push((gate.inputs[0], Bv3::from_tv(Tv::One)));
                            out.push((gate.inputs[0], Bv3::from_tv(Tv::Zero)));
                        }
                        (true, true) => {}
                    }
                }
            }
        }
        GateKind::Concat => {
            let hi_w = netlist.net_width(gate.inputs[0]);
            let lo_w = netlist.net_width(gate.inputs[1]);
            out.push((gate.inputs[0], y.slice(lo_w, hi_w)));
            out.push((gate.inputs[1], y.slice(0, lo_w)));
        }
        GateKind::Slice { lo } => {
            let mut refined = input(0).clone();
            refined.overlay(*lo, y);
            out.push((gate.inputs[0], refined));
        }
        GateKind::ZeroExt => {
            let in_w = netlist.net_width(gate.inputs[0]);
            out.push((gate.inputs[0], y.slice(0, in_w)));
        }
    }
}

/// AND/OR backward implication. Per output bit: the passive value (AND 1,
/// OR 0) is forced onto every input, and the controlling value is forced
/// onto the one input that is still `x` when every other input is passive.
/// Every input gets a proposal, in input order.
fn backward_and_or(gate: &Gate, y: &Bv3, asg: &Assignment, out: &mut Proposals) {
    let is_and = gate.kind == GateKind::And;
    let first = out.len();
    out.extend(gate.inputs.iter().map(|n| (*n, asg.value(*n).clone())));
    for w in 0..y.word_count() {
        let (yk, yv) = y.word(w);
        if yk == 0 {
            continue;
        }
        let (passive, controlling) = if is_and {
            (yk & yv, yk & !yv)
        } else {
            (yk & !yv, yk & yv)
        };
        // Bits where at least one / at least two inputs are not passive.
        let (mut ones, mut twos) = (0u64, 0u64);
        for (_, cube) in &out[first..] {
            let (k, v) = cube.word(w);
            let undecided = if is_and { !(k & v) } else { !(k & !v) };
            twos |= ones & undecided;
            ones |= undecided;
        }
        let lone = controlling & ones & !twos;
        for (_, cube) in &mut out[first..] {
            let (k, v) = cube.word(w);
            // The lone undecided input takes the controlling value if it is x.
            let forced = lone & !k;
            let value = if is_and {
                v | passive
            } else {
                (v & !passive) | forced
            };
            cube.set_word(w, k | passive | forced, value);
        }
    }
}

/// XOR backward implication: where the output bit is known and exactly one
/// input bit is `x`, that bit is the parity of the output and the other
/// inputs. Every input gets a proposal, in input order.
fn backward_xor(gate: &Gate, y: &Bv3, asg: &Assignment, out: &mut Proposals) {
    let first = out.len();
    out.extend(gate.inputs.iter().map(|n| (*n, asg.value(*n).clone())));
    for w in 0..y.word_count() {
        let (yk, yv) = y.word(w);
        if yk == 0 {
            continue;
        }
        // Unknown bits seen at least once / twice, and the parity of the
        // output with every input (x bits hold value 0).
        let (mut ones, mut twos, mut parity) = (0u64, 0u64, yv);
        for (_, cube) in &out[first..] {
            let (k, v) = cube.word(w);
            twos |= ones & !k;
            ones |= !k;
            parity ^= v;
        }
        let lone = yk & ones & !twos;
        for (_, cube) in &mut out[first..] {
            let (k, v) = cube.word(w);
            let forced = lone & !k;
            cube.set_word(w, k | forced, v | (forced & parity));
        }
    }
}

/// Disequality backward implication: when `a` and `b` agree on every bit
/// both know and exactly one bit position is still open, and one side
/// knows that bit, the other side must take the opposite value there.
/// Returns the index of the input to refine and its refined cube.
fn differ_at_open_bit(a: &Bv3, b: &Bv3) -> Option<(usize, Bv3)> {
    let (mut both_known, mut lone_word) = (0, None);
    for w in 0..a.word_count() {
        let ((ak, av), (bk, bv)) = (a.word(w), b.word(w));
        if (av ^ bv) & ak & bk != 0 {
            return None; // already unequal
        }
        both_known += (ak & bk).count_ones() as usize;
        if ak != bk {
            lone_word = Some(w);
        }
    }
    // With one open position, `ak ^ bk` has at most that one bit set.
    let w = lone_word.filter(|_| both_known + 1 == a.width())?;
    let ((ak, av), (bk, bv)) = (a.word(w), b.word(w));
    let bit = ak ^ bk;
    let (idx, known_value, other) = if ak & bit != 0 {
        (1, av, b)
    } else {
        (0, bv, a)
    };
    let mut refined = other.clone();
    let (k, v) = refined.word(w);
    refined.set_word(w, k | bit, v | (bit & !known_value));
    Some((idx, refined))
}

/// The refined `a` and `b` of a comparator backward implication, or the
/// error of an operand with no member that satisfies the relation.
type Tightened = (Result<Bv3, EmptyRangeError>, Result<Bv3, EmptyRangeError>);

/// Fig. 4 range tightening of `a (<|<=) b` for nets of at most 64 bits: both
/// ranges as `u64`s, then each operand refined MSB-first into its bound.
fn tighten_u64(a: &Bv3, b: &Bv3, strict: bool) -> Tightened {
    let full = u64::MAX >> (64 - a.width());
    let ((ka, va), (kb, vb)) = (a.word(0), b.word(0));
    let (min_a, max_a) = (va, va | (!ka & full));
    let (min_b, max_b) = (vb, vb | (!kb & full));
    // a <(=) b: a <= max_b (- 1 if strict), b >= min_a (+ 1 if strict).
    let a_hi = if strict {
        max_b.saturating_sub(1)
    } else {
        max_b
    }
    .min(max_a);
    let b_lo = if strict && min_a != full {
        min_a + 1
    } else {
        min_a
    }
    .max(min_b);
    let mut refined_a = a.clone();
    let mut refined_b = b.clone();
    (
        refine_to_range_u64(&mut refined_a, min_a, a_hi).map(|()| refined_a),
        refine_to_range_u64(&mut refined_b, b_lo, max_b).map(|()| refined_b),
    )
}

/// [`tighten_u64`] for nets wider than 64 bits, on [`Bv`] range ends.
fn tighten_wide(a: &Bv3, b: &Bv3, strict: bool) -> Tightened {
    let (min_a, max_a) = (a.min_value(), a.max_value());
    let (min_b, max_b) = (b.min_value(), b.max_value());
    let a_hi = if strict {
        saturating_dec(&max_b)
    } else {
        max_b.clone()
    };
    let b_lo = if strict {
        saturating_inc(&min_a)
    } else {
        min_a.clone()
    };
    let a_hi = a_hi.min(max_a);
    let b_lo = b_lo.max(min_b);
    let mut refined_a = a.clone();
    let mut refined_b = b.clone();
    (
        refine_to_range_in_place(&mut refined_a, &min_a, &a_hi).map(|()| refined_a),
        refine_to_range_in_place(&mut refined_b, &b_lo, &max_b).map(|()| refined_b),
    )
}

/// Backward implication across a multiplier: possible only when enough is known.
fn backward_mul(y: &Bv3, a: &Bv3, b: &Bv3, gate: &Gate, out: &mut Proposals) {
    let width = y.width();
    if width > 64 {
        return;
    }
    // An odd product forces both operands odd.
    if y.bit(0) == Tv::One {
        out.push((gate.inputs[0], a.with_bit(0, Tv::One)));
        out.push((gate.inputs[1], b.with_bit(0, Tv::One)));
    }
    if let Some(yv) = y.to_bv().and_then(|v| v.to_u64()) {
        let ring = wlac_modsolve::Ring::new(width as u32);
        for (known, unknown_idx) in [(a, 1usize), (b, 0usize)] {
            if let Some(kv) = known.to_bv().and_then(|v| v.to_u64()) {
                if let Some(set) = wlac_modsolve::inverse_with_product(ring, kv, yv) {
                    if set.count() == 1 {
                        out.push((
                            gate.inputs[unknown_idx],
                            Bv3::from_bv(&Bv::from_u64(width, set.base())),
                        ));
                    }
                } else {
                    // No factorisation exists: force a conflict on the output.
                    out.push((gate.output, Bv3::from_bv(&Bv::from_u64(width, yv ^ 1))));
                }
            }
        }
    }
}

/// Known-1 and known-0 bit counts of a cube, from plane popcounts.
struct BitCounts {
    width: usize,
    ones: usize,
    zeros: usize,
}

impl BitCounts {
    fn of(cube: &Bv3) -> BitCounts {
        let (mut ones, mut zeros) = (0, 0);
        for i in 0..cube.word_count() {
            let (known, value) = cube.word(i);
            ones += value.count_ones() as usize;
            zeros += (known & !value).count_ones() as usize;
        }
        BitCounts {
            width: cube.width(),
            ones,
            zeros,
        }
    }

    fn unknown(&self) -> usize {
        self.width - self.ones - self.zeros
    }
}

/// A copy of `cube` with every `x` bit set to `t`. The reduction rules call
/// it on cubes with exactly one `x` bit.
fn with_x_bits(cube: &Bv3, t: Tv) -> Bv3 {
    let mut out = cube.clone();
    for i in 0..cube.word_count() {
        let (known, value) = cube.word(i);
        let fill = if t == Tv::One { !known } else { 0 };
        // `set_word` drops the known bits past the width.
        out.set_word(i, u64::MAX, value | fill);
    }
    out
}

/// Event-driven fixed-point implication over a netlist.
///
/// Pending gates are kept in a *levelized bucket queue* ordered by
/// topological depth: forward implications are processed as one sweep from
/// inputs to outputs instead of FIFO interleaving, which minimises repeated
/// re-evaluation of deep gates. Backward implications re-activate shallower
/// buckets by moving the scan cursor back. All buffers (buckets, queued
/// flags, proposal scratch) are allocated once per netlist and reused across
/// runs, so a `Propagator` should be created once per search and shared by
/// every decision/backtrack cycle.
#[derive(Debug)]
pub(crate) struct Propagator {
    /// Pending gates, bucketed by topological depth.
    buckets: Vec<Vec<GateId>>,
    /// Topological depth per gate (flip-flops and sources at depth 0).
    depth: Vec<u32>,
    queued: Vec<bool>,
    /// Lowest bucket index that may be non-empty.
    active_min: usize,
    /// Total number of queued gates.
    pending: usize,
    /// Proposal buffer reused by every gate evaluation.
    proposals: Proposals,
}

impl Propagator {
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let mut depth = vec![0u32; netlist.gate_count()];
        // Combinational cycles cannot happen in well-formed netlists; if they
        // do, every gate stays at depth 0 and the queue degenerates to a
        // single LIFO bucket, which is still correct.
        if let Ok(order) = netlist.combinational_order() {
            for gate_id in order {
                let gate = netlist.gate(gate_id);
                let d = gate
                    .inputs
                    .iter()
                    .filter_map(|n| netlist.driver(*n))
                    .filter(|g| !netlist.gate(*g).kind.is_flip_flop())
                    .map(|g| depth[g.index()] + 1)
                    .max()
                    .unwrap_or(0);
                depth[gate_id.index()] = d;
            }
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0) as usize;
        Propagator {
            buckets: vec![Vec::new(); max_depth + 1],
            depth,
            queued: vec![false; netlist.gate_count()],
            active_min: max_depth + 1,
            pending: 0,
            proposals: Proposals::new(),
        }
    }

    /// Enqueues every gate (used for the initial implication pass).
    pub(crate) fn enqueue_all(&mut self, netlist: &Netlist) {
        for (id, _) in netlist.gates() {
            self.enqueue(id);
        }
    }

    fn enqueue(&mut self, gate: GateId) {
        if !self.queued[gate.index()] {
            self.queued[gate.index()] = true;
            let d = self.depth[gate.index()] as usize;
            self.buckets[d].push(gate);
            self.pending += 1;
            self.active_min = self.active_min.min(d);
        }
    }

    fn pop(&mut self) -> Option<GateId> {
        if self.pending == 0 {
            return None;
        }
        while self.buckets[self.active_min].is_empty() {
            self.active_min += 1;
        }
        let gate = self.buckets[self.active_min]
            .pop()
            .expect("non-empty bucket");
        self.queued[gate.index()] = false;
        self.pending -= 1;
        Some(gate)
    }

    /// Drops all pending events (also used to reset a context between runs).
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            for gate in bucket.drain(..) {
                self.queued[gate.index()] = false;
            }
        }
        self.pending = 0;
        self.active_min = self.buckets.len();
    }

    /// Approximate heap bytes held by the propagator: depth/queued tables,
    /// the bucketed worklist and the implication scratch. Feeds the search's
    /// memory estimate for the paper's Table 2 column.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let buckets: usize = self
            .buckets
            .iter()
            .map(|b| b.capacity() * size_of::<GateId>() + size_of::<Vec<GateId>>())
            .sum();
        buckets
            + self.depth.capacity() * size_of::<u32>()
            + self.queued.capacity() * size_of::<bool>()
            + proposals_memory_bytes(&self.proposals)
    }

    /// Enqueues the driver and readers of a net whose value changed.
    pub(crate) fn enqueue_net(&mut self, netlist: &Netlist, net: NetId) {
        if let Some(driver) = netlist.driver(net) {
            self.enqueue(driver);
        }
        for reader in netlist.fanouts(net) {
            self.enqueue(*reader);
        }
    }

    /// Runs implication to a fixed point.
    ///
    /// # Errors
    ///
    /// Returns the first [`Conflict`] encountered; the assignment then holds
    /// partially-propagated values and is expected to be backtracked by the
    /// caller.
    pub(crate) fn run(
        &mut self,
        netlist: &Netlist,
        asg: &mut Assignment,
        stats: &mut ImplicationStats,
    ) -> Result<(), Conflict> {
        let mut proposals = std::mem::take(&mut self.proposals);
        let result = self.run_inner(netlist, asg, stats, &mut proposals);
        self.proposals = proposals;
        result
    }

    fn run_inner(
        &mut self,
        netlist: &Netlist,
        asg: &mut Assignment,
        stats: &mut ImplicationStats,
        proposals: &mut Proposals,
    ) -> Result<(), Conflict> {
        while let Some(gate_id) = self.pop() {
            let gate = netlist.gate(gate_id);
            stats.gate_evaluations += 1;
            imply_gate(netlist, gate, asg, proposals);
            for (net, cube) in proposals.iter() {
                match asg.refine(*net, cube) {
                    Ok(true) => {
                        stats.refinements += 1;
                        self.enqueue_net(netlist, *net);
                    }
                    Ok(false) => {}
                    Err(conflict) => {
                        self.clear();
                        return Err(conflict);
                    }
                }
            }
        }
        Ok(())
    }
}

/// A standalone word-level implication engine: an [`Assignment`] plus a
/// levelized [`Propagator`] behind a small public API.
///
/// This exposes the checker's innermost loop — refine a net, propagate to a
/// fixed point, backtrack — for diagnostics, benchmarking and embedding. At
/// steady state (after the first propagation has warmed the internal
/// buffers) the engine performs **zero heap allocations** for nets up to
/// 128 bits wide; `crates/core/tests/alloc_free.rs` enforces this with a
/// counting allocator.
///
/// # Examples
///
/// ```
/// use wlac_atpg::ImplicationEngine;
/// use wlac_netlist::Netlist;
///
/// let mut nl = Netlist::new("demo");
/// let a = nl.input("a", 4);
/// let b = nl.input("b", 4);
/// let y = nl.add(a, b);
/// let mut engine = ImplicationEngine::new(&nl);
/// engine.assume(&nl, y, &"4'b0111".parse().unwrap()).unwrap();
/// engine.assume(&nl, a, &"4'b1x1x".parse().unwrap()).unwrap();
/// engine.propagate(&nl).unwrap();
/// assert_eq!(engine.value(b).to_string(), "4'b1x0x");
/// ```
#[derive(Debug)]
pub struct ImplicationEngine {
    asg: Assignment,
    propagator: Propagator,
    stats: ImplicationStats,
}

impl ImplicationEngine {
    /// Creates an engine with every net unknown.
    pub fn new(netlist: &Netlist) -> Self {
        ImplicationEngine {
            asg: Assignment::new(netlist),
            propagator: Propagator::new(netlist),
            stats: ImplicationStats::default(),
        }
    }

    /// Refines `net` with `cube` and schedules the affected gates.
    ///
    /// # Errors
    ///
    /// Returns a [`Conflict`] when the cube contradicts the current value.
    pub fn assume(&mut self, netlist: &Netlist, net: NetId, cube: &Bv3) -> Result<bool, Conflict> {
        let changed = self.asg.refine(net, cube)?;
        if changed {
            self.propagator.enqueue_net(netlist, net);
        }
        Ok(changed)
    }

    /// Runs implication to a fixed point.
    ///
    /// # Errors
    ///
    /// Returns the first [`Conflict`]; the caller is expected to
    /// [`backtrack`](ImplicationEngine::backtrack_to) past it.
    pub fn propagate(&mut self, netlist: &Netlist) -> Result<(), Conflict> {
        self.propagator.run(netlist, &mut self.asg, &mut self.stats)
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> &Bv3 {
        self.asg.value(net)
    }

    /// Takes a trail mark for later backtracking.
    pub fn mark(&self) -> usize {
        self.asg.mark()
    }

    /// Restores every net to its value at `mark`.
    pub fn backtrack_to(&mut self, mark: usize) {
        self.asg.backtrack_to(mark);
    }

    /// Accumulated implication statistics.
    pub fn stats(&self) -> ImplicationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    /// Runs implication to fixpoint on a small netlist after some seeds.
    fn settle(netlist: &Netlist, seeds: &[(NetId, Bv3)]) -> Result<Assignment, Conflict> {
        let mut asg = Assignment::new(netlist);
        let mut prop = Propagator::new(netlist);
        let mut stats = ImplicationStats::default();
        for (net, value) in seeds {
            asg.refine(*net, value)?;
            prop.enqueue_net(netlist, *net);
        }
        prop.enqueue_all(netlist);
        prop.run(netlist, &mut asg, &mut stats)?;
        Ok(asg)
    }

    #[test]
    fn and_gate_paper_example() {
        // Section 3.1: a = 10xx, b = 1x1x at a 4-bit AND with output x00x
        // forward-implies y = 100x and backward-implies a = 100x.
        let mut nl = Netlist::new("and");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.and2(a, b);
        let asg = settle(
            &nl,
            &[
                (a, cube("4'b10xx")),
                (b, cube("4'b1x1x")),
                (y, cube("4'bx00x")),
            ],
        )
        .unwrap();
        assert_eq!(asg.value(y), &cube("4'b100x"));
        assert_eq!(asg.value(a), &cube("4'b100x"));
    }

    #[test]
    fn adder_fig3_example() {
        let mut nl = Netlist::new("adder");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.add(a, b);
        let asg = settle(&nl, &[(y, cube("4'b0111")), (a, cube("4'b1x1x"))]).unwrap();
        assert_eq!(asg.value(b), &cube("4'b1x0x"));
    }

    #[test]
    fn comparator_fig4_example() {
        let mut nl = Netlist::new("cmp");
        let a = nl.input("in_a", 4);
        let b = nl.input("in_b", 4);
        let y = nl.gt(a, b);
        let asg = settle(
            &nl,
            &[
                (a, cube("4'bx01x")),
                (b, cube("4'b1x0x")),
                (y, cube("1'b1")),
            ],
        )
        .unwrap();
        assert_eq!(asg.value(a), &cube("4'b101x"));
        assert_eq!(asg.value(b), &cube("4'b100x"));
    }

    #[test]
    fn mux_null_intersection_implies_select() {
        let mut nl = Netlist::new("mux");
        let sel = nl.input("sel", 1);
        let t = nl.input("t", 4);
        let e = nl.input("e", 4);
        let y = nl.mux(sel, t, e);
        // Output 5 is incompatible with the then-input forced to 0, so sel = 0.
        let asg = settle(&nl, &[(t, cube("4'b0000")), (y, cube("4'b0101"))]).unwrap();
        assert_eq!(asg.value(sel).to_tv(), Tv::Zero);
        assert_eq!(asg.value(e), &cube("4'b0101"));
    }

    #[test]
    fn register_buffer_propagates_both_ways() {
        let mut nl = Netlist::new("buf");
        let d = nl.input("d", 4);
        let q = nl.buf(d);
        let asg = settle(&nl, &[(q, cube("4'b1x00"))]).unwrap();
        assert_eq!(asg.value(d), &cube("4'b1x00"));
    }

    #[test]
    fn equality_requirement_intersects_operands() {
        let mut nl = Netlist::new("eq");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.eq(a, b);
        let asg = settle(
            &nl,
            &[
                (a, cube("4'b10xx")),
                (b, cube("4'bxx01")),
                (y, cube("1'b1")),
            ],
        )
        .unwrap();
        assert_eq!(asg.value(a), &cube("4'b1001"));
        assert_eq!(asg.value(b), &cube("4'b1001"));
    }

    #[test]
    fn equality_conflict_detected() {
        let mut nl = Netlist::new("eq2");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.eq(a, b);
        let result = settle(
            &nl,
            &[
                (a, cube("4'b0000")),
                (b, cube("4'b1111")),
                (y, cube("1'b1")),
            ],
        );
        assert!(result.is_err());
    }

    #[test]
    fn multiplier_inverse_implication() {
        let mut nl = Netlist::new("mul");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.mul(a, b);
        // a = 3 (odd, invertible), y = 9 ⇒ b = 3·inverse = 3^{-1}·9 = 11·9 = 3.
        let asg = settle(&nl, &[(a, cube("4'b0011")), (y, cube("4'b1001"))]).unwrap();
        assert_eq!(asg.value(b), &cube("4'b0011"));
    }

    #[test]
    fn shift_backward_with_known_amount() {
        let mut nl = Netlist::new("shl");
        let a = nl.input("a", 4);
        let amt = nl.constant(&Bv::from_u64(4, 1));
        let y = nl.shl(a, amt);
        let asg = settle(&nl, &[(y, cube("4'b011x"))]).unwrap();
        // Output bits 1..3 are input bits 0..2.
        assert_eq!(asg.value(a).bit(0), Tv::One);
        assert_eq!(asg.value(a).bit(1), Tv::One);
        assert_eq!(asg.value(a).bit(2), Tv::Zero);
    }

    #[test]
    fn concat_slice_zext_backward() {
        let mut nl = Netlist::new("structural");
        let hi = nl.input("hi", 2);
        let lo = nl.input("lo", 2);
        let cat = nl.concat(hi, lo);
        let sl = nl.slice(cat, 1, 2);
        let zx = nl.zext(sl, 5);
        let asg = settle(&nl, &[(zx, cube("5'b00011"))]).unwrap();
        assert_eq!(asg.value(sl), &cube("2'b11"));
        // slice bits 1..2 of cat are 1, i.e. lo bit1 = 1, hi bit0 = 1.
        assert_eq!(asg.value(lo).bit(1), Tv::One);
        assert_eq!(asg.value(hi).bit(0), Tv::One);
    }

    #[test]
    fn conflict_on_impossible_comparator() {
        let mut nl = Netlist::new("cmp_bad");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let y = nl.lt(a, b);
        // a >= 12, b <= 3 and a < b is impossible.
        let result = settle(
            &nl,
            &[
                (a, cube("4'b11xx")),
                (b, cube("4'b00xx")),
                (y, cube("1'b1")),
            ],
        );
        assert!(result.is_err());
    }

    #[test]
    fn reduction_gates_backward() {
        let mut nl = Netlist::new("reduce");
        let a = nl.input("a", 3);
        let y = nl.reduce_or(a);
        let asg = settle(&nl, &[(y, cube("1'b0"))]).unwrap();
        assert_eq!(asg.value(a), &cube("3'b000"));

        let mut nl2 = Netlist::new("reduce_and");
        let a2 = nl2.input("a", 3);
        let y2 = nl2.reduce_and(a2);
        let asg2 = settle(&nl2, &[(y2, cube("1'b1"))]).unwrap();
        assert_eq!(asg2.value(a2), &cube("3'b111"));
    }
}
