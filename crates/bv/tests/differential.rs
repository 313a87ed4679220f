//! Differential tests: the word-parallel `Bv3` operations must agree with a
//! naive per-bit three-valued reference model across the inline/spilled
//! representation boundary (widths 1, 63, 64, 65, 128, 129).
//!
//! Widths up to 128 bits use the inline small-vector storage; 129 bits spills
//! to the heap. Every operation must produce identical logical results on
//! both sides of that boundary.
//!
//! The arithmetic, range and structural operations are checked against
//! ground truth, the cube hull of their results on every member of their
//! operands: exactly for every cube combination at widths 1–4, where every
//! operation but `mul3` must equal that hull, and by containment of the
//! results on seeded random members at 63, 64, 65, 128 and 129 bits.

use wlac_bv::arith::{add3_with_carry, eq3, le3, lt3, mul3, shift3_var, shl3, shr3, sub3};
use wlac_bv::range::refine_to_range;
use wlac_bv::{Bv, Bv3, Tv};
use wlac_rng::Rng64 as Rng;

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

/// Every member of a cube of at most 64 bits.
fn members(cube: &Bv3) -> Vec<u64> {
    let (known, value) = cube.word(0);
    (0..1u64 << cube.width())
        .filter(|v| v & known == value)
        .collect()
}

/// The cube hull of some `width`-bit values: the bits on which they all
/// agree, or `None` for no values.
fn hull(width: usize, values: impl IntoIterator<Item = u64>) -> Option<Bv3> {
    values.into_iter().fold(None, |acc: Option<Bv3>, v| {
        let cube = Bv3::from_u64(width, v);
        Some(acc.map_or(cube.clone(), |h| h.union(&cube)))
    })
}

/// The three-valued hull of some truth values.
fn tv_hull(values: impl IntoIterator<Item = bool>) -> Tv {
    hull(1, values.into_iter().map(u64::from))
        .expect("at least one value")
        .to_tv()
}

/// The members of a carry-in.
fn carry_members(carry: Tv) -> Vec<u64> {
    match carry.to_bool() {
        Some(c) => vec![u64::from(c)],
        None => vec![0, 1],
    }
}

/// Every pair of members of two cubes of at most 64 bits.
fn member_pairs(a: &Bv3, b: &Bv3) -> Vec<(u64, u64)> {
    let ys = members(b);
    members(a)
        .into_iter()
        .flat_map(|x| ys.iter().map(move |y| (x, *y)))
        .collect()
}

/// Checks the two-operand operations but `mul3` on one pair of cubes of at
/// most 4 bits against their exact hulls.
fn check_pair_exactly(a: &Bv3, b: &Bv3) {
    let w = a.width();
    let full = (1u64 << w) - 1;
    let pairs = member_pairs(a, b);
    for carry in [Tv::Zero, Tv::One, Tv::X] {
        let sums = || {
            pairs
                .iter()
                .flat_map(|(x, y)| carry_members(carry).into_iter().map(move |c| x + y + c))
        };
        let exact = (
            hull(w, sums().map(|s| s & full)).unwrap(),
            tv_hull(sums().map(|s| s > full)),
        );
        assert_eq!(
            add3_with_carry(a, b, carry),
            exact,
            "add3 {a} + {b} + {carry}"
        );
    }
    let exact = (
        hull(w, pairs.iter().map(|(x, y)| x.wrapping_sub(*y) & full)).unwrap(),
        tv_hull(pairs.iter().map(|(x, y)| x < y)),
    );
    assert_eq!(sub3(a, b), exact, "sub3 {a} - {b}");
    assert_eq!(
        eq3(a, b),
        tv_hull(pairs.iter().map(|(x, y)| x == y)),
        "eq3 {a} {b}"
    );
    assert_eq!(
        lt3(a, b),
        tv_hull(pairs.iter().map(|(x, y)| x < y)),
        "lt3 {a} {b}"
    );
    assert_eq!(
        le3(a, b),
        tv_hull(pairs.iter().map(|(x, y)| x <= y)),
        "le3 {a} {b}"
    );
}

/// Checks the one-operand and structural operations on a cube of at most
/// 4 bits against their exact hulls.
fn check_unary_exactly(a: &Bv3) {
    let w = a.width();
    let of = |f: &dyn Fn(u64) -> u64, width: usize| hull(width, members(a).into_iter().map(f));
    for width in 1..=w + 2 {
        let exact = of(&|x| x & ((1u64 << width) - 1), width).unwrap();
        assert_eq!(a.resize(width), exact, "resize {a} to {width}");
    }
    for lo in 0..w {
        for width in 1..=w - lo {
            let exact = of(&|x| (x >> lo) & ((1u64 << width) - 1), width).unwrap();
            assert_eq!(a.slice(lo, width), exact, "slice {a} [{lo} +: {width}]");
        }
    }
    let full = (1u64 << w) - 1;
    for amount in 0..=w + 1 {
        let left = of(&|x| x.checked_shl(amount as u32).unwrap_or(0) & full, w).unwrap();
        let right = of(&|x| x.checked_shr(amount as u32).unwrap_or(0), w).unwrap();
        assert_eq!(shl3(a, amount), left, "shl3 {a} by {amount}");
        assert_eq!(shr3(a, amount), right, "shr3 {a} by {amount}");
    }
    for low in (1..=4).flat_map(all_cubes) {
        let low_w = low.width();
        let low_members = members(&low);
        let exact = hull(
            w + low_w,
            members(a)
                .into_iter()
                .flat_map(|x| low_members.iter().map(move |y| (x << low_w) | y)),
        )
        .unwrap();
        assert_eq!(a.concat(&low), exact, "concat {a} {low}");
    }
    for amount in (1..=3).flat_map(all_cubes) {
        let shift = |left: bool| {
            hull(
                w,
                members(a).into_iter().flat_map(|x| {
                    members(&amount).into_iter().map(move |s| {
                        let s = s.min(w as u64) as u32;
                        if left {
                            x.checked_shl(s).unwrap_or(0) & full
                        } else {
                            x.checked_shr(s).unwrap_or(0)
                        }
                    })
                }),
            )
            .unwrap()
        };
        for left in [true, false] {
            assert_eq!(
                shift3_var(a, &amount, left),
                shift(left),
                "shift3_var {a} by {amount}"
            );
        }
    }
    for lo in 0..1u64 << w {
        for hi in 0..1u64 << w {
            let inside = hull(w, members(a).into_iter().filter(|x| (lo..=hi).contains(x)));
            let refined = refine_to_range(a, &Bv::from_u64(w, lo), &Bv::from_u64(w, hi)).ok();
            assert_eq!(refined, inside, "refine {a} to [{lo}, {hi}]");
        }
    }
}

#[test]
fn cube_operations_equal_their_exact_hulls_up_to_four_bits() {
    for w in 1..=4 {
        let cubes = all_cubes(w);
        for a in &cubes {
            for b in &cubes {
                check_pair_exactly(a, b);
            }
            check_unary_exactly(a);
        }
    }
}

/// `mul3` propagates only the known low-order bits and trailing zeros; the
/// modular solver handles products at the leaves. It must cover the exact
/// hull, and the pairs it leaves wider are pinned.
#[test]
fn mul3_is_sound_and_its_gap_is_pinned() {
    for (w, pinned) in [(1, 0), (2, 7), (3, 156), (4, 1_960)] {
        let cubes = all_cubes(w);
        let full = (1u64 << w) - 1;
        let mut weaker = 0;
        for a in &cubes {
            for b in &cubes {
                let pairs = member_pairs(a, b);
                let exact = hull(w, pairs.iter().map(|(x, y)| (x * y) & full)).unwrap();
                let product = mul3(a, b);
                assert!(
                    product.covers(&exact),
                    "mul3 {a} * {b} = {product} drops a member of {exact}"
                );
                weaker += usize::from(product != exact);
            }
        }
        assert_eq!(
            weaker, pinned,
            "mul3 pairs wider than their hull at {w} bits"
        );
    }
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

/// A random member of `cube`.
fn member(rng: &mut Rng, cube: &Bv3) -> Bv {
    let mut v = cube.min_value();
    for i in 0..cube.width() {
        if cube.bit(i) == Tv::X && rng.next_u64() & 1 == 1 {
            v = v.with_bit(i, true);
        }
    }
    v
}

/// `v` nudged by a small amount half of the time, so interval ends also
/// fall just outside a cube.
fn nudge(rng: &mut Rng, v: Bv) -> Bv {
    let w = v.width();
    match rng.next_u64() % 4 {
        0 => v.add(&Bv::from_u64(w, 1 + rng.next_u64() % 3)),
        1 => v.sub(&Bv::from_u64(w, 1 + rng.next_u64() % 3)),
        _ => v,
    }
}

/// Every operation's result on `a` and `b` contains its result on the
/// members `x` and `y`.
fn check_members(rng: &mut Rng, a: &Bv3, b: &Bv3, x: &Bv, y: &Bv) {
    let w = a.width();
    let wide = |v: &Bv| v.resize(w + 1);
    for carry in [Tv::Zero, Tv::One, Tv::X] {
        let c = match carry.to_bool() {
            Some(c) => c,
            None => rng.next_u64() & 1 == 1,
        };
        let total = wide(x)
            .add(&wide(y))
            .add(&Bv::from_u64(w + 1, u64::from(c)));
        let (sum, carry_out) = add3_with_carry(a, b, carry);
        assert!(sum.matches(&total.resize(w)), "add3 {a} + {b} + {carry}");
        assert!(
            carry_out.covers(Tv::from_bool(total.bit(w))),
            "carry of {a} + {b} + {carry}"
        );
    }
    let (diff, borrow) = sub3(a, b);
    assert!(diff.matches(&x.sub(y)), "sub3 {a} - {b}");
    assert!(borrow.covers(Tv::from_bool(x < y)), "borrow of {a} - {b}");
    assert!(eq3(a, b).covers(Tv::from_bool(x == y)), "eq3 {a} {b}");
    assert!(lt3(a, b).covers(Tv::from_bool(x < y)), "lt3 {a} {b}");
    assert!(le3(a, b).covers(Tv::from_bool(x <= y)), "le3 {a} {b}");
    assert!(mul3(a, b).matches(&x.mul(y)), "mul3 {a} * {b}");
    assert!(a.concat(b).matches(&x.concat(y)), "concat {a} {b}");
    for width in [1, w - 1, w, w + 1, w + 64] {
        assert!(
            a.resize(width).matches(&x.resize(width)),
            "resize {a} to {width}"
        );
    }
    let lo = (rng.next_u64() as usize) % w;
    let width = 1 + (rng.next_u64() as usize) % (w - lo);
    assert!(a.slice(lo, width).matches(&x.slice(lo, width)), "slice {a}");
    for amount in [0, 1, w / 2, w - 1, w, w + 1] {
        assert!(
            shl3(a, amount).matches(&x.shl(amount)),
            "shl3 {a} by {amount}"
        );
        assert!(
            shr3(a, amount).matches(&x.shr(amount)),
            "shr3 {a} by {amount}"
        );
    }
    let amount = random_biased_cube(rng, 8);
    let s = member(rng, &amount).to_u64().unwrap() as usize;
    assert!(
        shift3_var(a, &amount, true).matches(&x.shl(s)),
        "shift3_var {a} << {amount}"
    );
    assert!(
        shift3_var(a, &amount, false).matches(&x.shr(s)),
        "shift3_var {a} >> {amount}"
    );
    let (lo, hi) = (nudge(rng, x.clone()), nudge(rng, y.clone()));
    if lo <= *x && *x <= hi {
        let refined = refine_to_range(a, &lo, &hi);
        assert!(
            refined.is_ok_and(|r| r.matches(x)),
            "refine {a} to [{lo}, {hi}] drops {x}"
        );
    }
}

#[test]
fn cube_operations_contain_their_results_on_members_at_wide_widths() {
    let mut rng = Rng::seed_from_u64(0xD1FF_0007);
    for w in [63, 64, 65, 128, 129] {
        for _ in 0..300 {
            let a = random_biased_cube(&mut rng, w);
            let b = random_biased_cube(&mut rng, w);
            let (x, y) = (member(&mut rng, &a), member(&mut rng, &b));
            check_members(&mut rng, &a, &b, &x, &y);
            // Equal operands and members hit the eq3 edge cases.
            let z = member(&mut rng, &a);
            check_members(&mut rng, &a, &a, &x, &x);
            check_members(&mut rng, &a, &a, &x, &z);
        }
    }
}
