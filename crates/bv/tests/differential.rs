//! Differential tests: the word-parallel `Bv3` operations must agree with a
//! naive per-bit three-valued reference model across the inline/spilled
//! representation boundary (widths 1, 63, 64, 65, 128, 129).
//!
//! Widths up to 128 bits use the inline small-vector storage; 129 bits spills
//! to the heap. Every operation must produce identical logical results on
//! both sides of that boundary.
//!
//! The arithmetic, range and structural operations are also compared against
//! [`bitserial`], the bit-at-a-time implementations they replaced: every cube
//! combination at widths 1–4, and seeded random cubes at 63, 64, 65, 128 and
//! 129 bits.

use wlac_bv::arith::{add3_with_carry, eq3, le3, lt3, mul3, shl3, shr3, sub3};
use wlac_bv::range::refine_to_range_in_place;
use wlac_bv::{Bv, Bv3, Tv};
use wlac_rng::Rng64 as Rng;

/// The bit-serial operations, kept verbatim as the oracle for the
/// word-parallel ones. Each is written against `Bv3`'s per-bit API only.
mod bitserial {
    use wlac_bv::{Bv, Bv3, Tv};

    /// Full adder: `(sum, carry)`; the carry is the Kleene majority.
    fn full_add(a: Tv, b: Tv, cin: Tv) -> (Tv, Tv) {
        (a ^ b ^ cin, (a & b) | (a & cin) | (b & cin))
    }

    /// Full subtractor for `a - b`: `(difference, borrow)`.
    fn full_sub(a: Tv, b: Tv, bin: Tv) -> (Tv, Tv) {
        (a ^ b ^ bin, (!a & b) | (!(a ^ b) & bin))
    }

    pub fn add3(a: &Bv3, b: &Bv3, carry_in: Tv) -> (Bv3, Tv) {
        let mut out = Bv3::all_x(a.width());
        let mut carry = carry_in;
        for i in 0..a.width() {
            let (s, c) = full_add(a.bit(i), b.bit(i), carry);
            out.set_bit(i, s);
            carry = c;
        }
        (out, carry)
    }

    pub fn sub3(a: &Bv3, b: &Bv3) -> (Bv3, Tv) {
        let mut out = Bv3::all_x(a.width());
        let mut borrow = Tv::Zero;
        for i in 0..a.width() {
            let (d, bo) = full_sub(a.bit(i), b.bit(i), borrow);
            out.set_bit(i, d);
            borrow = bo;
        }
        (out, borrow)
    }

    pub fn eq3(a: &Bv3, b: &Bv3) -> Tv {
        if a.intersect(b).is_none() {
            return Tv::Zero;
        }
        match (a.to_bv(), b.to_bv()) {
            (Some(x), Some(y)) if x == y => Tv::One,
            _ => Tv::X,
        }
    }

    pub fn lt3(a: &Bv3, b: &Bv3) -> Tv {
        if a.max_value() < b.min_value() {
            Tv::One
        } else if a.min_value() >= b.max_value() {
            Tv::Zero
        } else {
            Tv::X
        }
    }

    pub fn le3(a: &Bv3, b: &Bv3) -> Tv {
        if a.max_value() <= b.min_value() {
            Tv::One
        } else if a.min_value() > b.max_value() {
            Tv::Zero
        } else {
            Tv::X
        }
    }

    fn overlap(a_lo: &Bv, a_hi: &Bv, b_lo: &Bv, b_hi: &Bv) -> bool {
        a_lo <= b_hi && b_lo <= a_hi
    }

    /// MSB-first range tightening; on an empty range the cube keeps the
    /// partial state the in-place procedure left behind.
    pub fn refine_to_range(cube: &mut Bv3, lo: &Bv, hi: &Bv) -> Result<(), ()> {
        if lo > hi || !overlap(&cube.min_value(), &cube.max_value(), lo, hi) {
            return Err(());
        }
        for i in (0..cube.width()).rev() {
            if cube.bit(i) != Tv::X {
                continue;
            }
            cube.set_bit(i, Tv::Zero);
            let zero_ok = overlap(&cube.min_value(), &cube.max_value(), lo, hi);
            cube.set_bit(i, Tv::One);
            let one_ok = overlap(&cube.min_value(), &cube.max_value(), lo, hi);
            match (zero_ok, one_ok) {
                (true, true) => {
                    cube.set_bit(i, Tv::X);
                    break;
                }
                (true, false) => cube.set_bit(i, Tv::Zero),
                (false, true) => {}
                (false, false) => return Err(()),
            }
        }
        Ok(())
    }

    pub fn resize(c: &Bv3, width: usize) -> Bv3 {
        let mut out = Bv3::all_x(width);
        for i in 0..width {
            out.set_bit(i, if i < c.width() { c.bit(i) } else { Tv::Zero });
        }
        out
    }

    pub fn slice(c: &Bv3, lo: usize, width: usize) -> Bv3 {
        let mut out = Bv3::all_x(width);
        for i in 0..width {
            out.set_bit(i, c.bit(lo + i));
        }
        out
    }

    pub fn concat(high: &Bv3, low: &Bv3) -> Bv3 {
        let mut out = Bv3::all_x(high.width() + low.width());
        for i in 0..low.width() {
            out.set_bit(i, low.bit(i));
        }
        for i in 0..high.width() {
            out.set_bit(low.width() + i, high.bit(i));
        }
        out
    }

    pub fn shl3(a: &Bv3, amount: usize) -> Bv3 {
        let mut out = Bv3::all_x(a.width());
        for i in 0..a.width() {
            out.set_bit(
                i,
                if i < amount {
                    Tv::Zero
                } else {
                    a.bit(i - amount)
                },
            );
        }
        out
    }

    pub fn shr3(a: &Bv3, amount: usize) -> Bv3 {
        let mut out = Bv3::all_x(a.width());
        for i in 0..a.width() {
            let t = if i + amount < a.width() {
                a.bit(i + amount)
            } else {
                Tv::Zero
            };
            out.set_bit(i, t);
        }
        out
    }

    pub fn mul3(a: &Bv3, b: &Bv3) -> Bv3 {
        let width = a.width();
        if let (Some(av), Some(bv)) = (a.to_bv(), b.to_bv()) {
            return Bv3::from_bv(&av.mul(&bv));
        }
        let zero = Bv::zero(width);
        if a.to_bv().map(|v| v.is_zero()).unwrap_or(false)
            || b.to_bv().map(|v| v.is_zero()).unwrap_or(false)
        {
            return Bv3::from_bv(&zero);
        }
        let known_prefix = |c: &Bv3| (0..width).take_while(|i| c.bit(*i).is_known()).count();
        let zeros = |c: &Bv3| (0..width).take_while(|i| c.bit(*i) == Tv::Zero).count();
        let mut out = Bv3::all_x(width);
        let low = known_prefix(a).min(known_prefix(b));
        if low > 0 {
            let prod = a.min_value().mul(&b.min_value());
            for i in 0..low {
                out.set_bit(i, Tv::from_bool(prod.bit(i)));
            }
        }
        for i in 0..(zeros(a) + zeros(b)).min(width) {
            out.set_bit(i, Tv::Zero);
        }
        out
    }
}

/// The widths straddling every storage boundary: one word, two words
/// (inline), and three words (spilled).
const WIDTHS: [usize; 6] = [1, 63, 64, 65, 128, 129];

/// Deterministic random cube: each bit independently 0, 1 or x.
fn random_cube(rng: &mut Rng, width: usize) -> Bv3 {
    let mut out = Bv3::all_x(width);
    for i in 0..width {
        let t = match rng.next_u64() % 3 {
            0 => Tv::Zero,
            1 => Tv::One,
            _ => Tv::X,
        };
        out.set_bit(i, t);
    }
    out
}

fn random_bv(rng: &mut Rng, width: usize) -> Bv {
    let mut out = Bv::zero(width);
    for i in 0..width {
        out = out.with_bit(i, rng.next_u64() & 1 == 1);
    }
    out
}

/// Per-bit reference for the bitwise three-valued operations.
fn ref_bitwise(a: &Bv3, b: &Bv3, f: impl Fn(Tv, Tv) -> Tv) -> Bv3 {
    let mut out = Bv3::all_x(a.width());
    for i in 0..a.width() {
        out.set_bit(i, f(a.bit(i), b.bit(i)));
    }
    out
}

#[test]
fn representation_matches_width_boundary() {
    for &w in &WIDTHS {
        let cube = Bv3::all_x(w);
        let value = Bv::zero(w);
        assert_eq!(cube.is_inline(), w <= 128, "Bv3 width {w}");
        assert_eq!(value.is_inline(), w <= 128, "Bv width {w}");
    }
}

#[test]
fn bitwise_ops_match_per_bit_reference() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0001);
    for &w in &WIDTHS {
        for _ in 0..16 {
            let a = random_cube(&mut rng, w);
            let b = random_cube(&mut rng, w);
            assert_eq!(a.and3(&b), ref_bitwise(&a, &b, |x, y| x & y), "and3 w={w}");
            assert_eq!(a.or3(&b), ref_bitwise(&a, &b, |x, y| x | y), "or3 w={w}");
            assert_eq!(a.xor3(&b), ref_bitwise(&a, &b, |x, y| x ^ y), "xor3 w={w}");
            assert_eq!(a.not3(), ref_bitwise(&a, &a, |x, _| !x), "not3 w={w}");
        }
    }
}

#[test]
fn intersect_union_refine_match_per_bit_reference() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0002);
    for &w in &WIDTHS {
        for _ in 0..16 {
            let a = random_cube(&mut rng, w);
            let b = random_cube(&mut rng, w);

            // Reference intersection: per-bit Tv::intersect, None on clash.
            let mut ref_meet = Some(Bv3::all_x(w));
            for i in 0..w {
                match a.bit(i).intersect(b.bit(i)) {
                    Some(t) => {
                        if let Some(m) = ref_meet.as_mut() {
                            m.set_bit(i, t);
                        }
                    }
                    None => ref_meet = None,
                }
                if ref_meet.is_none() {
                    break;
                }
            }
            assert_eq!(a.intersect(&b), ref_meet, "intersect w={w}");

            // In-place meet agrees with the functional form.
            let mut meet_in_place = a.clone();
            let compatible = meet_in_place.intersect_assign(&b);
            assert_eq!(compatible, ref_meet.is_some(), "intersect_assign w={w}");
            if let Some(m) = &ref_meet {
                assert_eq!(&meet_in_place, m, "intersect_assign value w={w}");
            }

            // Union: per-bit Tv::union.
            let ref_union = ref_bitwise(&a, &b, |x, y| x.union(y));
            assert_eq!(a.union(&b), ref_union, "union w={w}");
            let mut union_in_place = a.clone();
            union_in_place.union_assign(&b);
            assert_eq!(union_in_place, ref_union, "union_assign w={w}");

            // Refine == intersect (same lattice meet, conflict == disjoint).
            let mut refined = a.clone();
            match refined.refine(&b) {
                Ok(_) => assert_eq!(Some(refined), ref_meet, "refine w={w}"),
                Err(_) => assert!(ref_meet.is_none(), "refine conflict w={w}"),
            }
        }
    }
}

#[test]
fn refine_recording_deltas_restore_exactly() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0003);
    for &w in &WIDTHS {
        for _ in 0..8 {
            let original = random_cube(&mut rng, w);
            let other = random_cube(&mut rng, w);
            let mut cube = original.clone();
            let mut deltas: Vec<(usize, u64, u64)> = Vec::new();
            match cube.refine_recording(&other, |i, k, v| deltas.push((i, k, v))) {
                Ok(changed) => {
                    assert_eq!(changed, !deltas.is_empty(), "w={w}");
                    // Replaying the recorded deltas in reverse restores the
                    // original cube exactly.
                    for (i, k, v) in deltas.into_iter().rev() {
                        cube.set_word(i, k, v);
                    }
                    assert_eq!(cube, original, "restore w={w}");
                }
                Err(_) => {
                    // On conflict nothing may have been reported or changed.
                    assert!(deltas.is_empty(), "w={w}");
                    assert_eq!(cube, original, "conflict leaves cube intact w={w}");
                }
            }
        }
    }
}

#[test]
fn min_max_matches_and_members_are_covered() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0004);
    for &w in &WIDTHS {
        for _ in 0..8 {
            let a = random_cube(&mut rng, w);
            let (lo, hi) = (a.min_value(), a.max_value());
            assert!(lo <= hi, "w={w}");
            assert!(a.matches(&lo), "min member w={w}");
            assert!(a.matches(&hi), "max member w={w}");
            // A random member obtained by filling x bits stays in range.
            let mut member = lo.clone();
            for i in 0..w {
                if a.bit(i) == Tv::X {
                    member = member.with_bit(i, rng.next_u64() & 1 == 1);
                }
            }
            assert!(a.matches(&member), "member w={w}");
            assert!(lo <= member && member <= hi, "member range w={w}");
        }
    }
}

#[test]
fn concrete_roundtrip_across_widths() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0005);
    for &w in &WIDTHS {
        for _ in 0..8 {
            let v = random_bv(&mut rng, w);
            let cube = Bv3::from_bv(&v);
            assert!(cube.is_fully_known(), "w={w}");
            assert_eq!(cube.to_bv(), Some(v.clone()), "roundtrip w={w}");
            assert_eq!(cube.min_value(), v, "min w={w}");
            assert_eq!(cube.max_value(), v, "max w={w}");
        }
    }
}

#[test]
fn slicing_across_the_word_boundary() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0006);
    // Slicing a spilled 129-bit cube down to inline widths and back up.
    let wide = random_cube(&mut rng, 129);
    for lo in [0usize, 1, 63, 64, 65] {
        let slice = wide.slice(lo, 64);
        assert!(slice.is_inline());
        for i in 0..64 {
            assert_eq!(slice.bit(i), wide.bit(lo + i), "lo={lo} bit={i}");
        }
    }
    let back = wide.slice(1, 128).concat(&wide.slice(0, 1));
    assert_eq!(back.width(), 129);
    for i in 0..129 {
        assert_eq!(back.bit(i), wide.bit(i), "concat bit={i}");
    }
}

/// Every cube of the given width, in a fixed order.
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

/// Random cubes biased three ways: mostly known, mostly `x`, and uniform.
fn random_biased_cube(rng: &mut Rng, width: usize) -> Bv3 {
    let x_per_mille = [50, 500, 950][(rng.next_u64() % 3) as usize];
    let mut out = Bv3::all_x(width);
    for i in 0..width {
        if rng.next_u64() % 1000 >= x_per_mille {
            out.set_bit(i, Tv::from_bool(rng.next_u64() & 1 == 1));
        }
    }
    out
}

/// A random member of `cube`, nudged by a small amount half of the time so
/// interval ends also fall just outside the cube.
fn near_member(rng: &mut Rng, cube: &Bv3) -> Bv {
    let mut v = cube.min_value();
    for i in 0..cube.width() {
        if cube.bit(i) == Tv::X && rng.next_u64() & 1 == 1 {
            v = v.with_bit(i, true);
        }
    }
    match rng.next_u64() % 4 {
        0 => v.add(&Bv::from_u64(cube.width(), 1 + rng.next_u64() % 3)),
        1 => v.sub(&Bv::from_u64(cube.width(), 1 + rng.next_u64() % 3)),
        _ => v,
    }
}

fn check_arith_pair(a: &Bv3, b: &Bv3) {
    for carry in [Tv::Zero, Tv::One, Tv::X] {
        assert_eq!(
            add3_with_carry(a, b, carry),
            bitserial::add3(a, b, carry),
            "add3 {a} + {b} + {carry}"
        );
    }
    assert_eq!(sub3(a, b), bitserial::sub3(a, b), "sub3 {a} - {b}");
    assert_eq!(eq3(a, b), bitserial::eq3(a, b), "eq3 {a} {b}");
    assert_eq!(lt3(a, b), bitserial::lt3(a, b), "lt3 {a} {b}");
    assert_eq!(le3(a, b), bitserial::le3(a, b), "le3 {a} {b}");
    assert_eq!(mul3(a, b), bitserial::mul3(a, b), "mul3 {a} * {b}");
    assert_eq!(a.concat(b), bitserial::concat(a, b), "concat {a} {b}");
}

fn check_range(cube: &Bv3, lo: &Bv, hi: &Bv) {
    let mut fast = cube.clone();
    let fast_ok = refine_to_range_in_place(&mut fast, lo, hi).is_ok();
    let mut slow = cube.clone();
    let slow_ok = bitserial::refine_to_range(&mut slow, lo, hi).is_ok();
    assert_eq!(fast_ok, slow_ok, "refine {cube} to [{lo}, {hi}]");
    assert_eq!(fast, slow, "refine {cube} to [{lo}, {hi}]");
}

fn check_unary(c: &Bv3) {
    let w = c.width();
    for width in [1, w.saturating_sub(1).max(1), w, w + 1, w + 64] {
        assert_eq!(
            c.resize(width),
            bitserial::resize(c, width),
            "resize {c} to {width}"
        );
    }
    for amount in [0, 1, w / 2, w.saturating_sub(1), w, w + 1] {
        assert_eq!(
            shl3(c, amount),
            bitserial::shl3(c, amount),
            "shl3 {c} by {amount}"
        );
        assert_eq!(
            shr3(c, amount),
            bitserial::shr3(c, amount),
            "shr3 {c} by {amount}"
        );
    }
}

#[test]
fn arithmetic_matches_bit_serial_exhaustively_up_to_four_bits() {
    for w in 1..=4 {
        let cubes = all_cubes(w);
        for a in &cubes {
            for b in &cubes {
                check_arith_pair(a, b);
            }
            check_unary(a);
            for lo in 0..w {
                for width in 1..=w - lo {
                    assert_eq!(
                        a.slice(lo, width),
                        bitserial::slice(a, lo, width),
                        "slice {a}"
                    );
                }
            }
            for lo in 0..1u64 << w {
                for hi in 0..1u64 << w {
                    check_range(a, &Bv::from_u64(w, lo), &Bv::from_u64(w, hi));
                }
            }
        }
        // Concatenation across unequal widths.
        for low_w in 1..=4 {
            for a in &cubes {
                for b in &all_cubes(low_w) {
                    assert_eq!(a.concat(b), bitserial::concat(a, b), "concat {a} {b}");
                }
            }
        }
    }
}

#[test]
fn arithmetic_matches_bit_serial_on_random_wide_cubes() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0007);
    for w in [63, 64, 65, 128, 129] {
        for _ in 0..300 {
            let a = random_biased_cube(&mut rng, w);
            let b = random_biased_cube(&mut rng, w);
            check_arith_pair(&a, &b);
            // Equal and disjoint-by-one-bit operands hit the eq3 edge cases.
            check_arith_pair(&a, &a);
            check_unary(&a);
            let lo = (rng.next_u64() as usize) % w;
            let width = 1 + (rng.next_u64() as usize) % (w - lo);
            assert_eq!(
                a.slice(lo, width),
                bitserial::slice(&a, lo, width),
                "slice w={w}"
            );
            let low_w = 1 + (rng.next_u64() as usize) % 70;
            let low = random_biased_cube(&mut rng, low_w);
            assert_eq!(a.concat(&low), bitserial::concat(&a, &low), "concat w={w}");
            let (x, y) = (near_member(&mut rng, &a), near_member(&mut rng, &a));
            check_range(&a, &x, &y);
            check_range(&a, &y, &x);
            check_range(&a, &x, &near_member(&mut rng, &b));
            check_range(&a, &a.min_value(), &a.max_value());
        }
    }
}
