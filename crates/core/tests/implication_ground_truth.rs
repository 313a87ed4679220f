//! Ground truth for the word-level implication rules (Section 3.1).
//!
//! Each test builds a netlist holding one gate, loads every tuple of cubes
//! on its pins into the public [`ImplicationEngine`], and compares the fixed
//! point with the exact projection: the cube hull, per pin, of the concrete
//! assignments that satisfy the gate ([`wlac_sim::eval_gate`]) and lie in
//! the tuple.
//!
//! * **Soundness**: the engine conflicts only when no such assignment
//!   exists, and every net's cube covers its exact projection.
//! * **Precision**: the satisfiable tuples left wider than their projection
//!   and the unsatisfiable ones left unrefuted are counted, and each count
//!   is pinned, so any change in a rule's strength changes a number.
//!
//! Forward implication is checked the same way with only the inputs
//! assumed. A tuple of all-`x` cubes is left out: assuming it changes no
//! net, so the gate is never visited.
//!
//! At 63, 64, 65, 128 and 129 bits, where enumeration is out of reach,
//! seeded concrete assignments with bits forgotten at random must never
//! conflict, and every net must still contain its concrete value.

use wlac_atpg::ImplicationEngine;
use wlac_bv::{Bv, Bv3};
use wlac_netlist::{GateKind, NetId, Netlist};
use wlac_rng::Rng64 as Rng;
use wlac_sim::eval_gate;

/// A netlist holding one gate, with a fresh net on every pin.
struct OneGate {
    nl: Netlist,
    kind: GateKind,
    /// Inputs in gate order, then the output.
    pins: Vec<NetId>,
    widths: Vec<usize>,
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
        nl.add_gate(kind.clone(), pins.as_slice(), out)
            .expect("valid gate shape");
        pins.push(out);
        let widths = pins.iter().map(|p| nl.net_width(*p)).collect();
        OneGate {
            nl,
            kind,
            pins,
            widths,
        }
    }

    /// Two `w`-bit operands; comparators have a 1-bit output.
    fn binary(kind: GateKind, w: usize) -> OneGate {
        let out = if kind.is_comparator() { 1 } else { w };
        OneGate::new(kind, &[w, w], out)
    }

    fn input_count(&self) -> usize {
        self.pins.len() - 1
    }

    fn eval(&self, inputs: &[Bv]) -> Bv {
        eval_gate(&self.kind, inputs, self.widths[self.input_count()])
    }

    fn name(&self) -> String {
        format!("{:?} {:?}", self.kind, self.widths)
    }

    /// Every concrete assignment that satisfies the gate, one value per pin.
    fn solutions(&self) -> Vec<Vec<u64>> {
        let inputs = &self.widths[..self.input_count()];
        let bits: usize = inputs.iter().sum();
        (0..1u64 << bits)
            .map(|mut n| {
                let mut row: Vec<u64> = inputs
                    .iter()
                    .map(|w| {
                        let v = n & mask(*w);
                        n >>= *w;
                        v
                    })
                    .collect();
                let values: Vec<Bv> = row
                    .iter()
                    .zip(inputs)
                    .map(|(v, w)| Bv::from_u64(*w, *v))
                    .collect();
                row.push(self.eval(&values).to_u64().expect("narrow output"));
                row
            })
            .collect()
    }

    /// Assumes `tuple` on the first pins, propagates, and returns every
    /// pin's planes at the fixed point, or `None` on a conflict.
    fn settle(&self, engine: &mut ImplicationEngine, tuple: &[Planes]) -> Option<Vec<Planes>> {
        engine.backtrack_to(0);
        for ((pin, planes), w) in self.pins.iter().zip(tuple).zip(&self.widths) {
            engine
                .assume(&self.nl, *pin, &planes.cube(*w))
                .expect("pins start unknown");
        }
        engine.propagate(&self.nl).ok()?;
        Some(
            self.pins
                .iter()
                .map(|p| Planes::of(engine.value(*p)))
                .collect(),
        )
    }

    fn show(&self, tuple: &[Planes]) -> String {
        let cubes: Vec<String> = tuple
            .iter()
            .zip(&self.widths)
            .map(|(p, w)| p.cube(*w).to_string())
            .collect();
        format!("{} on {}", self.name(), cubes.join(", "))
    }
}

fn mask(width: usize) -> u64 {
    u64::MAX >> (64 - width)
}

/// The known and value planes of a cube of at most 64 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Planes {
    known: u64,
    value: u64,
}

impl Planes {
    const X: Planes = Planes { known: 0, value: 0 };

    fn of(cube: &Bv3) -> Planes {
        let (known, value) = cube.word(0);
        Planes { known, value }
    }

    fn cube(self, width: usize) -> Bv3 {
        let mut cube = Bv3::all_x(width);
        cube.set_word(0, self.known, self.value);
        cube
    }

    fn contains(self, v: u64) -> bool {
        v & self.known == self.value
    }

    /// Every value of `exact` is a member.
    fn covers(self, exact: Planes) -> bool {
        self.known & !exact.known == 0 && (self.value ^ exact.value) & self.known == 0
    }
}

/// Cube hull of a set of concrete values: the bits on which they all agree.
#[derive(Debug, Clone, Copy)]
struct Hull {
    all: u64,
    any: u64,
    members: usize,
}

impl Hull {
    const EMPTY: Hull = Hull {
        all: u64::MAX,
        any: 0,
        members: 0,
    };

    fn add(&mut self, v: u64) {
        self.all &= v;
        self.any |= v;
        self.members += 1;
    }

    fn planes(self, width: usize) -> Planes {
        let known = !(self.all ^ self.any) & mask(width);
        Planes {
            known,
            value: self.all & known,
        }
    }
}

/// Calls `visit` with every tuple of cubes of the given widths, except the
/// one whose cubes are all `x`.
fn for_each_tuple(widths: &[usize], mut visit: impl FnMut(&[Planes])) {
    let bits: usize = widths.iter().sum();
    let mut tuple = vec![Planes::X; widths.len()];
    for mut n in 0..3u64.pow(bits as u32) {
        for (planes, w) in tuple.iter_mut().zip(widths) {
            *planes = Planes::X;
            for bit in 0..*w {
                // Digit 0 is a known 0, 1 a known 1 and 2 an x.
                if n % 3 < 2 {
                    planes.known |= 1 << bit;
                    planes.value |= (n % 3) << bit;
                }
                n /= 3;
            }
        }
        if tuple.iter().any(|p| p.known != 0) {
            visit(&tuple);
        }
    }
}

/// The exact projection of `tuple` (on the first pins) onto every pin.
fn project(solutions: &[Vec<u64>], tuple: &[Planes]) -> Vec<Hull> {
    let mut hulls = vec![Hull::EMPTY; solutions[0].len()];
    for row in solutions {
        if row.iter().zip(tuple).all(|(v, p)| p.contains(*v)) {
            for (hull, v) in hulls.iter_mut().zip(row) {
                hull.add(*v);
            }
        }
    }
    hulls
}

/// How far one gate's rules fall short of the exact projection.
#[derive(Debug, Default, PartialEq, Eq)]
struct Gap {
    /// Satisfiable tuples whose fixed point leaves a net wider than its
    /// projection.
    weaker: usize,
    /// Unsatisfiable tuples whose fixed point has no conflict.
    missed_conflicts: usize,
    /// Input tuples whose forward output is wider than the hull of the
    /// outputs.
    forward_weaker: usize,
}

impl Gap {
    const EXACT: Gap = Gap {
        weaker: 0,
        missed_conflicts: 0,
        forward_weaker: 0,
    };

    fn new(weaker: usize, missed_conflicts: usize, forward_weaker: usize) -> Gap {
        Gap {
            weaker,
            missed_conflicts,
            forward_weaker,
        }
    }
}

/// Runs every tuple of `one` through the engine, asserts soundness, and
/// counts the precision gap.
fn gap(one: &OneGate) -> Gap {
    let solutions = one.solutions();
    let mut engine = ImplicationEngine::new(&one.nl);
    let mut gap = Gap::default();
    let mut check = |tuple: &[Planes], forward: bool| {
        let hulls = project(&solutions, tuple);
        let satisfiable = hulls[0].members > 0;
        let Some(fixed) = one.settle(&mut engine, tuple) else {
            assert!(!satisfiable, "conflict on satisfiable {}", one.show(tuple));
            return;
        };
        if !satisfiable {
            gap.missed_conflicts += 1;
            return;
        }
        let mut wider = false;
        for (pin, (planes, hull)) in fixed.iter().zip(&hulls).enumerate() {
            let exact = hull.planes(one.widths[pin]);
            assert!(
                planes.covers(exact),
                "pin {pin} of {} is {} but its projection is {}",
                one.show(tuple),
                planes.cube(one.widths[pin]),
                exact.cube(one.widths[pin])
            );
            wider |= *planes != exact;
        }
        match (forward, wider) {
            (false, true) => gap.weaker += 1,
            (true, true) => gap.forward_weaker += 1,
            _ => {}
        }
    };
    for_each_tuple(&one.widths, |tuple| check(tuple, false));
    for_each_tuple(&one.widths[..one.input_count()], |tuple| check(tuple, true));
    gap
}

fn assert_gap(one: &OneGate, expected: Gap) {
    assert_eq!(gap(one), expected, "{}", one.name());
}

#[test]
fn boolean_and_reduction_rules_are_exact() {
    for w in 1..=3 {
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            assert_gap(&OneGate::binary(kind.clone(), w), Gap::EXACT);
            if w <= 2 {
                assert_gap(&OneGate::new(kind, &[w, w, w], w), Gap::EXACT);
            }
        }
        for kind in [GateKind::Not, GateKind::Buf, GateKind::Dff { init: None }] {
            assert_gap(&OneGate::new(kind, &[w], w), Gap::EXACT);
        }
        for kind in [GateKind::ReduceAnd, GateKind::ReduceOr, GateKind::ReduceXor] {
            assert_gap(&OneGate::new(kind, &[w], 1), Gap::EXACT);
        }
        let constant = GateKind::Const(Bv::from_u64(w, 5 & mask(w)));
        assert_gap(&OneGate::new(constant, &[], w), Gap::EXACT);
    }
}

#[test]
fn comparator_rules_are_exact() {
    for w in 1..=3 {
        for kind in [
            GateKind::Eq,
            GateKind::Ne,
            GateKind::Lt,
            GateKind::Le,
            GateKind::Gt,
            GateKind::Ge,
        ] {
            assert_gap(&OneGate::binary(kind, w), Gap::EXACT);
        }
    }
}

#[test]
fn mux_and_structural_rules_are_exact() {
    for w in 1..=3 {
        assert_gap(&OneGate::new(GateKind::Mux, &[1, w, w], w), Gap::EXACT);
        for hi in 1..w {
            assert_gap(
                &OneGate::new(GateKind::Concat, &[hi, w - hi], w),
                Gap::EXACT,
            );
        }
        for in_w in 1..=w {
            assert_gap(&OneGate::new(GateKind::ZeroExt, &[in_w], w), Gap::EXACT);
        }
        for src in w..=w + 2 {
            for lo in 0..=src - w {
                assert_gap(&OneGate::new(GateKind::Slice { lo }, &[src], w), Gap::EXACT);
            }
        }
    }
}

/// The Fig. 3 rule (an adder's missing operand is output − operand) refutes
/// every unsatisfiable tuple; what it leaves open is knowledge that needs
/// both unknown operands at once.
#[test]
fn adder_and_subtractor_refute_every_conflict() {
    for kind in [GateKind::Add, GateKind::Sub] {
        for (w, expected) in [
            (1, Gap::EXACT),
            (2, Gap::new(40, 0, 0)),
            (3, Gap::new(2_280, 0, 0)),
        ] {
            assert_gap(&OneGate::binary(kind.clone(), w), expected);
        }
    }
}

/// Products and shifts by an unknown amount are left to the modular solver
/// and to decisions: their rules are sound, and these are their gaps.
#[test]
fn multiplier_and_shifter_gaps_are_pinned() {
    for (w, expected) in [
        (1, Gap::EXACT),
        (2, Gap::new(112, 14, 7)),
        (3, Gap::new(5_656, 1_342, 156)),
    ] {
        assert_gap(&OneGate::binary(GateKind::Mul, w), expected);
    }
    for kind in [GateKind::Shl, GateKind::Shr] {
        for (w, expected) in [
            (1, Gap::new(3, 0, 0)),
            (2, Gap::new(123, 13, 0)),
            (3, Gap::new(3_202, 686, 0)),
        ] {
            assert_gap(&OneGate::new(kind.clone(), &[w, w], w), expected);
        }
    }
}

/// A random value of `width` bits.
fn random_bv(rng: &mut Rng, width: usize) -> Bv {
    let words: Vec<u64> = (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
    Bv::from_words(width, &words)
}

/// `value` with each bit forgotten at one of four rates, picked at random:
/// mostly known, half known, mostly forgotten, or all forgotten.
fn forget(rng: &mut Rng, value: &Bv) -> Bv3 {
    let per_mille = [50, 500, 950, 1000][(rng.next_u64() % 4) as usize];
    let mut cube = Bv3::from_bv(value);
    for (i, word) in value.words().iter().enumerate() {
        let mut known = 0;
        for bit in 0..64 {
            if rng.next_u64() % 1000 >= per_mille {
                known |= 1 << bit;
            }
        }
        cube.set_word(i, known, *word);
    }
    cube
}

/// Seeded assignments of `one`: random inputs, except that a second operand
/// of the first one's width copies it a third of the time and differs from
/// it in one bit another third, so equality and range rules see close
/// operands.
fn sampled(one: &OneGate, rng: &mut Rng, samples: usize) {
    let mut engine = ImplicationEngine::new(&one.nl);
    let n = one.input_count();
    let data = usize::from(one.kind == GateKind::Mux);
    for _ in 0..samples {
        let mut values: Vec<Bv> = one.widths[..n].iter().map(|w| random_bv(rng, *w)).collect();
        if n >= data + 2 && one.widths[data] == one.widths[data + 1] {
            let w = one.widths[data];
            match rng.next_u64() % 3 {
                0 => values[data + 1] = values[data].clone(),
                1 => {
                    let bit = (rng.next_u64() % w as u64) as usize;
                    values[data + 1] = values[data].with_bit(bit, !values[data].bit(bit));
                }
                _ => {}
            }
        }
        values.push(one.eval(&values));
        engine.backtrack_to(0);
        let cubes: Vec<Bv3> = values.iter().map(|v| forget(rng, v)).collect();
        for (pin, cube) in one.pins.iter().zip(&cubes) {
            engine
                .assume(&one.nl, *pin, cube)
                .expect("pins start unknown");
        }
        let show = || {
            let cubes: Vec<String> = cubes.iter().map(|c| c.to_string()).collect();
            format!("{} on {}", one.name(), cubes.join(", "))
        };
        assert!(
            engine.propagate(&one.nl).is_ok(),
            "conflict on satisfiable {}",
            show()
        );
        for (pin, value) in one.pins.iter().zip(&values) {
            assert!(
                engine.value(*pin).matches(value),
                "{} dropped {value}: {}",
                show(),
                engine.value(*pin)
            );
        }
    }
}

#[test]
fn every_rule_keeps_a_concrete_assignment_at_wide_widths() {
    let mut rng = Rng::seed_from_u64(0x6A7E_0025);
    for w in [63, 64, 65, 128, 129] {
        let mut shapes = vec![
            OneGate::new(GateKind::Const(random_bv(&mut rng, w)), &[], w),
            OneGate::new(GateKind::Not, &[w], w),
            OneGate::new(GateKind::Buf, &[w], w),
            OneGate::new(GateKind::Dff { init: None }, &[w], w),
            OneGate::new(GateKind::ReduceAnd, &[w], 1),
            OneGate::new(GateKind::ReduceOr, &[w], 1),
            OneGate::new(GateKind::ReduceXor, &[w], 1),
            OneGate::new(GateKind::Shl, &[w, 8], w),
            OneGate::new(GateKind::Shr, &[w, 8], w),
            OneGate::new(GateKind::Mux, &[1, w, w], w),
            OneGate::new(GateKind::Concat, &[w, 7], w + 7),
            OneGate::new(GateKind::Concat, &[9, w], w + 9),
            OneGate::new(GateKind::Slice { lo: 3 }, &[w], w - 5),
            OneGate::new(GateKind::Slice { lo: w / 2 }, &[w], w - w / 2),
            OneGate::new(GateKind::ZeroExt, &[w], w + 66),
            OneGate::new(GateKind::ZeroExt, &[w - 2], w),
        ];
        for kind in [GateKind::And, GateKind::Or, GateKind::Xor] {
            shapes.push(OneGate::new(kind.clone(), &[w, w, w], w));
            shapes.push(OneGate::binary(kind, w));
        }
        for kind in [
            GateKind::Add,
            GateKind::Sub,
            GateKind::Mul,
            GateKind::Eq,
            GateKind::Ne,
            GateKind::Lt,
            GateKind::Le,
            GateKind::Gt,
            GateKind::Ge,
        ] {
            shapes.push(OneGate::binary(kind, w));
        }
        for one in &shapes {
            sampled(one, &mut rng, 300);
        }
    }
}
