//! The bit-serial implication rules, kept verbatim as the test oracle of the
//! word-parallel kernel in the parent module: every proposal the kernel
//! makes (net, cube and order) and every unjustified verdict must equal
//! what these rules give.
//!
//! They call `wlac_bv`'s cube operations, which `crates/bv/tests/differential.rs`
//! checks against their own bit-serial forms.

use super::Proposals;
use crate::assignment::Assignment;
use wlac_bv::arith::{add3, eq3, ge3, gt3, le3, lt3, mul3, ne3, shift3_var, sub3};
use wlac_bv::range::{refine_to_range_in_place, saturating_dec, saturating_inc};
use wlac_bv::{Bv, Bv3, Tv};
use wlac_netlist::{Gate, GateKind, Netlist};

/// Forward 3-valued evaluation of a gate from its current input cubes.
pub(super) fn forward_eval(netlist: &Netlist, gate: &Gate, asg: &Assignment) -> Bv3 {
    let input = |i: usize| asg.value(gate.inputs[i]).clone();
    let out_width = netlist.net_width(gate.output);
    match &gate.kind {
        GateKind::Const(v) => Bv3::from_bv(v),
        GateKind::Buf | GateKind::Dff { .. } => input(0),
        GateKind::Not => input(0).not3(),
        GateKind::And => gate
            .inputs
            .iter()
            .skip(1)
            .fold(input(0), |acc, n| acc.and3(asg.value(*n))),
        GateKind::Or => gate
            .inputs
            .iter()
            .skip(1)
            .fold(input(0), |acc, n| acc.or3(asg.value(*n))),
        GateKind::Xor => gate
            .inputs
            .iter()
            .skip(1)
            .fold(input(0), |acc, n| acc.xor3(asg.value(*n))),
        GateKind::ReduceAnd => {
            let v = input(0);
            let any_zero = (0..v.width()).any(|i| v.bit(i) == Tv::Zero);
            let all_one = (0..v.width()).all(|i| v.bit(i) == Tv::One);
            Bv3::from_tv(if any_zero {
                Tv::Zero
            } else if all_one {
                Tv::One
            } else {
                Tv::X
            })
        }
        GateKind::ReduceOr => {
            let v = input(0);
            let any_one = (0..v.width()).any(|i| v.bit(i) == Tv::One);
            let all_zero = (0..v.width()).all(|i| v.bit(i) == Tv::Zero);
            Bv3::from_tv(if any_one {
                Tv::One
            } else if all_zero {
                Tv::Zero
            } else {
                Tv::X
            })
        }
        GateKind::ReduceXor => {
            let v = input(0);
            if v.is_fully_known() {
                let ones = (0..v.width()).filter(|i| v.bit(*i) == Tv::One).count();
                Bv3::from_tv(Tv::from_bool(ones % 2 == 1))
            } else {
                Bv3::from_tv(Tv::X)
            }
        }
        GateKind::Add => add3(&input(0), &input(1)).0,
        GateKind::Sub => sub3(&input(0), &input(1)).0,
        GateKind::Mul => mul3(&input(0), &input(1)),
        GateKind::Shl => shift3_var(&input(0), &input(1), true),
        GateKind::Shr => shift3_var(&input(0), &input(1), false),
        GateKind::Eq => Bv3::from_tv(eq3(&input(0), &input(1))),
        GateKind::Ne => Bv3::from_tv(ne3(&input(0), &input(1))),
        GateKind::Lt => Bv3::from_tv(lt3(&input(0), &input(1))),
        GateKind::Le => Bv3::from_tv(le3(&input(0), &input(1))),
        GateKind::Gt => Bv3::from_tv(gt3(&input(0), &input(1))),
        GateKind::Ge => Bv3::from_tv(ge3(&input(0), &input(1))),
        GateKind::Mux => {
            let sel = input(0).to_tv();
            match sel {
                Tv::One => input(1),
                Tv::Zero => input(2),
                Tv::X => {
                    let mut union = input(1);
                    union.union_assign(asg.value(gate.inputs[2]));
                    union
                }
            }
        }
        GateKind::Concat => input(0).concat(&input(1)),
        GateKind::Slice { lo } => input(0).slice(*lo, out_width),
        GateKind::ZeroExt => input(0).resize(out_width),
    }
}

/// All proposals of one gate evaluation, forward first.
pub(super) fn imply_gate(netlist: &Netlist, gate: &Gate, asg: &Assignment) -> Proposals {
    let mut out = vec![(gate.output, forward_eval(netlist, gate, asg))];
    backward(netlist, gate, asg, &mut out, &mut Vec::new());
    out
}

/// The unjustified-gate test: a required output bit the forward value
/// does not imply.
pub(super) fn gate_is_unjustified(netlist: &Netlist, gate: &Gate, asg: &Assignment) -> bool {
    let required = asg.value(gate.output);
    if required.is_all_x() {
        return false;
    }
    let forward = forward_eval(netlist, gate, asg);
    (0..required.width()).any(|i| required.bit(i).is_known() && !forward.bit(i).is_known())
}

fn backward(
    netlist: &Netlist,
    gate: &Gate,
    asg: &Assignment,
    out: &mut Proposals,
    cubes: &mut Vec<Bv3>,
) {
    let y = asg.value(gate.output).clone();
    let input = |i: usize| asg.value(gate.inputs[i]).clone();
    match &gate.kind {
        GateKind::Const(_) => {}
        GateKind::Buf | GateKind::Dff { .. } => out.push((gate.inputs[0], y)),
        GateKind::Not => out.push((gate.inputs[0], y.not3())),
        GateKind::And | GateKind::Or => {
            let is_and = gate.kind == GateKind::And;
            let width = y.width();
            // Working copies double as both the "current value" snapshot and
            // the refined proposal: every mutation below touches only the bit
            // position currently being decided, which is read before it is
            // written, so no stale reads can occur.
            cubes.clear();
            cubes.extend(gate.inputs.iter().map(|n| asg.value(*n).clone()));
            let controlling = if is_and { Tv::Zero } else { Tv::One };
            let passive = !controlling;
            for bit in 0..width {
                match y.bit(bit) {
                    t if t == passive => {
                        // AND output 1 / OR output 0: every input takes the passive value.
                        for p in cubes.iter_mut() {
                            p.set_bit(bit, passive);
                        }
                    }
                    t if t == controlling => {
                        // Exactly one undetermined input left while all others
                        // are passive: it must take the controlling value.
                        let mut undecided = 0usize;
                        let mut last = 0usize;
                        for (i, v) in cubes.iter().enumerate() {
                            if v.bit(bit) != passive {
                                undecided += 1;
                                last = i;
                            }
                        }
                        if undecided == 1 && cubes[last].bit(bit) == Tv::X {
                            cubes[last].set_bit(bit, controlling);
                        }
                    }
                    _ => {}
                }
            }
            for (net, cube) in gate.inputs.iter().zip(cubes.drain(..)) {
                out.push((*net, cube));
            }
        }
        GateKind::Xor => {
            let width = y.width();
            cubes.clear();
            cubes.extend(gate.inputs.iter().map(|n| asg.value(*n).clone()));
            for bit in 0..width {
                if !y.bit(bit).is_known() {
                    continue;
                }
                let mut unknown = 0usize;
                let mut last = 0usize;
                for (i, v) in cubes.iter().enumerate() {
                    if !v.bit(bit).is_known() {
                        unknown += 1;
                        last = i;
                    }
                }
                if unknown == 1 {
                    let mut parity = y.bit(bit);
                    for (i, v) in cubes.iter().enumerate() {
                        if i != last {
                            parity = parity ^ v.bit(bit);
                        }
                    }
                    cubes[last].set_bit(bit, parity);
                }
            }
            for (net, cube) in gate.inputs.iter().zip(cubes.drain(..)) {
                out.push((*net, cube));
            }
        }
        GateKind::ReduceAnd => {
            let v = input(0);
            match y.to_tv() {
                Tv::One => out.push((gate.inputs[0], Bv3::from_bv(&Bv::ones(v.width())))),
                Tv::Zero => {
                    let (unknown, first_unknown) = count_bits(&v, Tv::X);
                    let (ones, _) = count_bits(&v, Tv::One);
                    if unknown == 1 && ones == v.width() - 1 {
                        out.push((gate.inputs[0], v.with_bit(first_unknown, Tv::Zero)));
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
                    let (unknown, first_unknown) = count_bits(&v, Tv::X);
                    let (zeros, _) = count_bits(&v, Tv::Zero);
                    if unknown == 1 && zeros == v.width() - 1 {
                        out.push((gate.inputs[0], v.with_bit(first_unknown, Tv::One)));
                    }
                }
                Tv::X => {}
            }
        }
        GateKind::ReduceXor => {
            let v = input(0);
            if let Some(target) = y.to_tv().to_bool() {
                let (unknown, first_unknown) = count_bits(&v, Tv::X);
                if unknown == 1 {
                    let (ones, _) = count_bits(&v, Tv::One);
                    let needed = target != (ones % 2 == 1);
                    out.push((
                        gate.inputs[0],
                        v.with_bit(first_unknown, Tv::from_bool(needed)),
                    ));
                }
            }
        }
        GateKind::Add => {
            // The Fig. 3 rule: each operand is output minus the other operand.
            out.push((gate.inputs[0], sub3(&y, &input(1)).0));
            out.push((gate.inputs[1], sub3(&y, &input(0)).0));
        }
        GateKind::Sub => {
            // y = a - b  ⇒  a = y + b,  b = a - y.
            out.push((gate.inputs[0], add3(&y, &input(1)).0));
            out.push((gate.inputs[1], sub3(&input(0), &y).0));
        }
        GateKind::Mul => {
            backward_mul(&y, &input(0), &input(1), gate, out);
        }
        GateKind::Shl | GateKind::Shr => {
            let left = gate.kind == GateKind::Shl;
            if let Some(amount) = input(1).to_bv().and_then(|v| v.to_u64()) {
                let amount = (amount as usize).min(y.width());
                let a = input(0);
                let mut refined = a.clone();
                for i in 0..y.width() {
                    // For a left shift, output bit i+amount equals input bit i.
                    let (out_bit, in_bit) = if left {
                        (i.checked_add(amount), i)
                    } else {
                        (i.checked_sub(amount), i)
                    };
                    if let Some(ob) = out_bit {
                        if ob < y.width() && y.bit(ob).is_known() {
                            refined.set_bit(in_bit, y.bit(ob));
                        }
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
            if equal_required == Some(true) {
                let mut meet = input(0);
                if meet.intersect_assign(asg.value(gate.inputs[1])) {
                    out.push((gate.inputs[0], meet.clone()));
                    out.push((gate.inputs[1], meet));
                } else {
                    // Equality required but impossible: force a conflict by
                    // proposing the (empty) intersection through both sides.
                    out.push((gate.inputs[0], input(1)));
                }
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
                let a = asg.value(gate.inputs[a_idx]).clone();
                let b = asg.value(gate.inputs[b_idx]).clone();
                let (min_a, max_a) = (a.min_value(), a.max_value());
                let (min_b, max_b) = (b.min_value(), b.max_value());
                // a <(=) b: a <= max_b (- 1 if strict), b >= min_a (+ 1 if strict).
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
                let a_hi = if a_hi < max_a { a_hi } else { max_a };
                let b_lo = if b_lo > min_b { b_lo } else { min_b };
                let mut refined_a = a.clone();
                match refine_to_range_in_place(&mut refined_a, &min_a, &a_hi) {
                    Ok(()) => out.push((gate.inputs[a_idx], refined_a)),
                    Err(_) => {
                        // No member of `a` satisfies the relation: force a conflict.
                        out.push((gate.output, Bv3::from_tv(Tv::from_bool(!truth))));
                    }
                }
                let mut refined_b = b.clone();
                match refine_to_range_in_place(&mut refined_b, &b_lo, &max_b) {
                    Ok(()) => out.push((gate.inputs[b_idx], refined_b)),
                    Err(_) => {
                        out.push((gate.output, Bv3::from_tv(Tv::from_bool(!truth))));
                    }
                }
            }
        }
        GateKind::Mux => {
            let sel = input(0);
            let t = input(1);
            let e = input(2);
            match sel.to_tv() {
                Tv::One => {
                    let mut meet = t;
                    if meet.intersect_assign(&y) {
                        out.push((gate.inputs[1], meet));
                    }
                }
                Tv::Zero => {
                    let mut meet = e;
                    if meet.intersect_assign(&y) {
                        out.push((gate.inputs[2], meet));
                    }
                }
                Tv::X => {
                    // Null intersection with the output rules a data input out
                    // and implies the select value (the paper's mux rule).
                    let t_possible = t.intersect(&y).is_some();
                    let e_possible = e.intersect(&y).is_some();
                    match (t_possible, e_possible) {
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
            let in_w = netlist.net_width(gate.inputs[0]);
            let mut refined = input(0);
            for i in 0..y.width() {
                if y.bit(i).is_known() && lo + i < in_w {
                    refined.set_bit(lo + i, y.bit(i));
                }
            }
            out.push((gate.inputs[0], refined));
        }
        GateKind::ZeroExt => {
            let in_w = netlist.net_width(gate.inputs[0]);
            out.push((gate.inputs[0], y.slice(0, in_w)));
        }
    }
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

/// Counts bits of `cube` equal to `t`, also returning the index of the last
/// such bit (0 when there is none). Used by the reduction-gate backward rules
/// without building index vectors.
fn count_bits(cube: &Bv3, t: Tv) -> (usize, usize) {
    let mut count = 0;
    let mut last = 0;
    for i in 0..cube.width() {
        if cube.bit(i) == t {
            count += 1;
            last = i;
        }
    }
    (count, last)
}

/// Kernel differential: for one gate and every cube combination (or a
/// seeded sample of them) on its pins, the word-parallel rules must propose
/// exactly the oracle's list — same nets, cubes and order — and agree on
/// whether the gate is unjustified.
mod differential {
    use super::super::{imply_gate, Proposals};
    use crate::assignment::Assignment;
    use crate::justify::gate_is_unjustified;
    use wlac_bv::{Bv, Bv3, Tv};
    use wlac_netlist::{GateId, GateKind, NetId, Netlist};
    use wlac_rng::Rng64 as Rng;

    /// A netlist holding one gate of `kind`, with a fresh net on every pin.
    struct OneGate {
        nl: Netlist,
        id: GateId,
        /// Inputs in gate order, then the output.
        pins: Vec<NetId>,
    }

    impl OneGate {
        fn new(kind: GateKind, input_widths: &[usize], out_width: usize) -> OneGate {
            let mut nl = Netlist::new("one_gate");
            let mut pins: Vec<NetId> = input_widths
                .iter()
                .enumerate()
                .map(|(i, w)| nl.input(format!("i{i}"), *w))
                .collect();
            let out = nl.add_net(out_width);
            let id = nl
                .add_gate(kind, pins.as_slice(), out)
                .expect("valid gate shape");
            pins.push(out);
            OneGate { nl, id, pins }
        }

        fn widths(&self) -> Vec<usize> {
            self.pins.iter().map(|p| self.nl.net_width(*p)).collect()
        }

        /// Loads `cubes` onto the pins and compares kernel and oracle.
        fn check(&self, asg: &mut Assignment, cubes: &[&Bv3], kernel: &mut Proposals) {
            asg.backtrack_to(0);
            for (pin, cube) in self.pins.iter().zip(cubes) {
                asg.refine(*pin, cube).expect("pins start unknown");
            }
            let gate = self.nl.gate(self.id);
            imply_gate(&self.nl, gate, asg, kernel);
            let oracle = super::imply_gate(&self.nl, gate, asg);
            let show = || {
                let pins: Vec<String> = cubes.iter().map(|c| c.to_string()).collect();
                format!("{:?} on {}", gate.kind, pins.join(", "))
            };
            assert_eq!(*kernel, oracle, "proposals of {}", show());
            assert_eq!(
                gate_is_unjustified(&self.nl, self.id, asg),
                super::gate_is_unjustified(&self.nl, gate, asg),
                "unjustified verdict of {}",
                show()
            );
        }
    }

    /// Every cube of the given width.
    fn all_cubes(width: usize) -> Vec<Bv3> {
        (0..3usize.pow(width as u32))
            .map(|mut n| {
                let mut cube = Bv3::all_x(width);
                for i in 0..width {
                    cube.set_bit(i, [Tv::Zero, Tv::One, Tv::X][n % 3]);
                    n /= 3;
                }
                cube
            })
            .collect()
    }

    /// Checks every combination of cubes on the gate's pins.
    fn exhaustive(one: &OneGate) {
        let domains: Vec<Vec<Bv3>> = one.widths().into_iter().map(all_cubes).collect();
        let mut asg = Assignment::new(&one.nl);
        let mut kernel = Proposals::new();
        let mut index = vec![0usize; domains.len()];
        loop {
            let cubes: Vec<&Bv3> = index.iter().zip(&domains).map(|(i, d)| &d[*i]).collect();
            one.check(&mut asg, &cubes, &mut kernel);
            // Odometer step over the pins.
            let mut pin = 0;
            loop {
                if pin == index.len() {
                    return;
                }
                index[pin] += 1;
                if index[pin] < domains[pin].len() {
                    break;
                }
                index[pin] = 0;
                pin += 1;
            }
        }
    }

    /// A cube that is mostly known, mostly `x` or uniform, by turns.
    fn random_cube(rng: &mut Rng, width: usize) -> Bv3 {
        let x_per_mille = [50, 500, 950][(rng.next_u64() % 3) as usize];
        let mut out = Bv3::all_x(width);
        for i in 0..width {
            if rng.next_u64() % 1000 >= x_per_mille {
                out.set_bit(i, Tv::from_bool(rng.next_u64() & 1 == 1));
            }
        }
        out
    }

    /// Checks `samples` seeded random cube combinations. Half of the time
    /// the second data pin copies the first one's known bits, so equality,
    /// range and intersection rules see compatible operands too.
    fn sampled(one: &OneGate, rng: &mut Rng, samples: usize) {
        let widths = one.widths();
        let mut asg = Assignment::new(&one.nl);
        let mut kernel = Proposals::new();
        for _ in 0..samples {
            let mut cubes: Vec<Bv3> = widths.iter().map(|w| random_cube(rng, *w)).collect();
            if cubes.len() >= 3 && widths[0] == widths[1] && rng.next_u64() & 1 == 1 {
                let mut copy = cubes[0].clone();
                copy.union_assign(&random_cube(rng, widths[0]));
                cubes[1] = copy;
            }
            let refs: Vec<&Bv3> = cubes.iter().collect();
            one.check(&mut asg, &refs, &mut kernel);
        }
    }

    /// Every three-valued digit of `n` in base 3, least significant first.
    fn tv_digits(mut n: usize, count: usize) -> impl Iterator<Item = Tv> {
        (0..count).map(move |_| {
            let t = [Tv::Zero, Tv::One, Tv::X][n % 3];
            n /= 3;
            t
        })
    }

    /// For gates whose rules work bit by bit (And/Or/Xor), when the full
    /// product of cubes is too large: every pair of bit positions takes
    /// every pair of per-bit pin tuples, the other positions random.
    fn pairwise(one: &OneGate, rng: &mut Rng) {
        let widths = one.widths();
        let w = widths[0];
        assert!(widths.iter().all(|pin| *pin == w), "bitwise gate");
        let tuples = 3usize.pow(widths.len() as u32);
        let mut asg = Assignment::new(&one.nl);
        let mut kernel = Proposals::new();
        for p in 0..w {
            for q in p + 1..w {
                for (t, u) in (0..tuples).flat_map(|t| (0..tuples).map(move |u| (t, u))) {
                    let mut cubes: Vec<Bv3> = widths.iter().map(|w| random_cube(rng, *w)).collect();
                    for (cube, bit) in cubes.iter_mut().zip(tv_digits(t, widths.len())) {
                        cube.set_bit(p, bit);
                    }
                    for (cube, bit) in cubes.iter_mut().zip(tv_digits(u, widths.len())) {
                        cube.set_bit(q, bit);
                    }
                    let refs: Vec<&Bv3> = cubes.iter().collect();
                    one.check(&mut asg, &refs, &mut kernel);
                }
            }
        }
    }

    const BOOLEAN: [GateKind; 3] = [GateKind::And, GateKind::Or, GateKind::Xor];
    const ARITHMETIC: [GateKind; 3] = [GateKind::Add, GateKind::Sub, GateKind::Mul];
    const COMPARATORS: [GateKind; 6] = [
        GateKind::Eq,
        GateKind::Ne,
        GateKind::Lt,
        GateKind::Le,
        GateKind::Gt,
        GateKind::Ge,
    ];

    /// The one-input, constant, shift and mux shapes with `w`-bit data.
    fn unary_shapes(w: usize) -> Vec<OneGate> {
        vec![
            OneGate::new(GateKind::Const(Bv::from_u64(w, 5)), &[], w),
            OneGate::new(GateKind::Buf, &[w], w),
            OneGate::new(GateKind::Dff { init: None }, &[w], w),
            OneGate::new(GateKind::Not, &[w], w),
            OneGate::new(GateKind::ReduceAnd, &[w], 1),
            OneGate::new(GateKind::ReduceOr, &[w], 1),
            OneGate::new(GateKind::ReduceXor, &[w], 1),
            OneGate::new(GateKind::Shl, &[w, 2], w),
            OneGate::new(GateKind::Shr, &[w, 2], w),
            OneGate::new(GateKind::Mux, &[1, w, w], w),
        ]
    }

    /// The structural gates producing a `w`-bit output.
    fn structural_shapes(w: usize) -> Vec<OneGate> {
        let mut out = Vec::new();
        for hi in 1..w {
            out.push(OneGate::new(GateKind::Concat, &[hi, w - hi], w));
        }
        for in_w in 1..=w {
            out.push(OneGate::new(GateKind::ZeroExt, &[in_w], w));
        }
        for src in w..=w + 2 {
            for lo in 0..=src - w {
                out.push(OneGate::new(GateKind::Slice { lo }, &[src], w));
            }
        }
        out
    }

    /// Two-input gates of the given kinds; comparators have a 1-bit output.
    fn binary_shapes(kinds: &[GateKind], w: usize) -> Vec<OneGate> {
        kinds
            .iter()
            .map(|kind| {
                let out = if kind.is_comparator() { 1 } else { w };
                OneGate::new(kind.clone(), &[w, w], out)
            })
            .collect()
    }

    #[test]
    fn boolean_rules_match_bit_serial_exhaustively_up_to_four_bits() {
        let mut rng = Rng::seed_from_u64(0x6A7E_0001);
        for w in 1..=4 {
            for one in binary_shapes(&BOOLEAN, w) {
                exhaustive(&one);
            }
            for kind in BOOLEAN {
                let three = OneGate::new(kind, &[w, w, w], w);
                // 81^4 combinations at four bits: too many for a unit test.
                if w < 4 {
                    exhaustive(&three);
                } else {
                    pairwise(&three, &mut rng);
                }
            }
        }
    }

    #[test]
    fn arithmetic_rules_match_bit_serial_exhaustively_up_to_four_bits() {
        for w in 1..=4 {
            for one in binary_shapes(&ARITHMETIC, w) {
                exhaustive(&one);
            }
        }
    }

    #[test]
    fn comparator_and_structural_rules_match_bit_serial_exhaustively_up_to_four_bits() {
        for w in 1..=4 {
            let shapes = binary_shapes(&COMPARATORS, w)
                .into_iter()
                .chain(unary_shapes(w))
                .chain(structural_shapes(w));
            for one in shapes {
                exhaustive(&one);
            }
        }
    }

    #[test]
    fn kernel_matches_bit_serial_rules_on_random_wide_cubes() {
        let mut rng = Rng::seed_from_u64(0x6A7E_0016);
        for w in [63, 64, 65, 128, 129] {
            let mut wide = unary_shapes(w);
            wide.extend(binary_shapes(&BOOLEAN, w));
            wide.extend(binary_shapes(&ARITHMETIC, w));
            wide.extend(binary_shapes(&COMPARATORS, w));
            for kind in BOOLEAN {
                wide.push(OneGate::new(kind, &[w, w, w], w));
            }
            wide.push(OneGate::new(GateKind::Shl, &[w, 8], w));
            wide.push(OneGate::new(GateKind::Concat, &[w, 7], w + 7));
            wide.push(OneGate::new(GateKind::Concat, &[9, w], w + 9));
            wide.push(OneGate::new(GateKind::Slice { lo: 3 }, &[w], w - 5));
            wide.push(OneGate::new(GateKind::Slice { lo: w / 2 }, &[w], w - w / 2));
            wide.push(OneGate::new(GateKind::ZeroExt, &[w], w + 66));
            wide.push(OneGate::new(GateKind::ZeroExt, &[w - 2], w));
            for one in &wide {
                sampled(one, &mut rng, 400);
            }
        }
    }
}
