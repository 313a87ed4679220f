//! Three-valued word-level arithmetic.
//!
//! These functions implement the "3-valued forward and backward simulation"
//! that the paper performs on arithmetic units (Section 3.1): addition, and
//! subtraction as `a + !b + 1`, propagate per-bit knowledge through one
//! three-valued ripple carry chain, multiplication propagates what can be
//! deduced from the known low-order bits, and the comparison helpers
//! evaluate relational operators over cube ranges.
//!
//! Every operation here except [`mul3`], and [`shift3_var`] on an amount with
//! more than 16 members, is exact: its result is the cube hull of the results
//! on every member of its operands. `crates/bv/tests/differential.rs`
//! checks each against that hull.
//!
//! Everything is mask arithmetic on the cubes' known/value planes, one `u64`
//! word at a time. A three-valued ripple chain splits into two Boolean
//! chains — "the carry is known 1" and "the carry may be 1" — and each of
//! those is the carry vector of one machine addition, so a whole word of
//! carries costs two adds instead of 64 full-adder steps.

use crate::{last_word_mask, Bv, Bv3, Tv, WORD_BITS};
use std::cmp::Ordering;

/// Carries of the word addition `x + y + carry_in`: bit `i` of the first
/// result is the carry *into* bit `i`, the second is the carry out of bit 63.
fn carries(x: u64, y: u64, carry_in: bool) -> (u64, bool) {
    let (sum, o1) = x.overflowing_add(y);
    let (sum, o2) = sum.overflowing_add(u64::from(carry_in));
    (sum ^ x ^ y, o1 | o2)
}

/// Runs the two Boolean chains of a three-valued ripple ("known 1", "may be
/// 1") over the words of a `width`-bit operation and returns the final
/// carry. `step(i, one, maybe)` gets word `i` and the two chains' carries
/// into it, writes the word's result, and returns for each chain its carry
/// vector (bit `b` = carry into bit `b`) and its carry out of bit 63. The
/// carry out of a partial last word is bit `width % 64` of its vector.
fn ripple(
    width: usize,
    words: usize,
    carry_one: bool,
    carry_maybe: bool,
    mut step: impl FnMut(usize, bool, bool) -> ((u64, bool), (u64, bool)),
) -> Tv {
    let (mut one, mut maybe) = (carry_one, carry_maybe);
    for i in 0..words {
        let ((one_vec, one_out), (maybe_vec, maybe_out)) = step(i, one, maybe);
        let rem = width % WORD_BITS;
        if i + 1 == words && rem != 0 {
            one = (one_vec >> rem) & 1 == 1;
            maybe = (maybe_vec >> rem) & 1 == 1;
        } else {
            one = one_out;
            maybe = maybe_out;
        }
    }
    if one {
        Tv::One
    } else if !maybe {
        Tv::Zero
    } else {
        Tv::X
    }
}

/// Mask of the valid bits of word `i` of a `words`-word, `width`-bit cube.
fn word_mask(width: usize, words: usize, i: usize) -> u64 {
    if i + 1 == words {
        last_word_mask(width)
    } else {
        u64::MAX
    }
}

/// Word `i` of the cube's largest member (every `x` bit set to 1).
fn max_word(c: &Bv3, i: usize) -> u64 {
    let (known, value) = c.word(i);
    value | (!known & word_mask(c.width(), c.word_count(), i))
}

/// Compares two same-width numbers given word by word, most significant
/// word first.
fn cmp_words(words: usize, a: impl Fn(usize) -> u64, b: impl Fn(usize) -> u64) -> Ordering {
    for i in (0..words).rev() {
        match a(i).cmp(&b(i)) {
            Ordering::Equal => continue,
            ord => return ord,
        }
    }
    Ordering::Equal
}

/// Three-valued addition: returns `(sum, carry_out)`.
///
/// Every bit of the sum is known as soon as the corresponding operand bits
/// and incoming carry are known; the carry chain itself propagates partial
/// knowledge (two known ones force a carry, two known zeros kill it).
///
/// # Panics
///
/// Panics if the operand widths differ.
///
/// # Examples
///
/// ```
/// use wlac_bv::{arith::add3, Bv3, Tv};
///
/// # fn main() -> Result<(), wlac_bv::ParseBvError> {
/// let (sum, carry) = add3(&"4'b0011".parse()?, &"4'b0001".parse()?);
/// assert_eq!(sum.to_string(), "4'b0100");
/// assert_eq!(carry, Tv::Zero);
/// # Ok(())
/// # }
/// ```
pub fn add3(a: &Bv3, b: &Bv3) -> (Bv3, Tv) {
    add3_with_carry(a, b, Tv::Zero)
}

/// Three-valued addition with an explicit carry-in.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn add3_with_carry(a: &Bv3, b: &Bv3, carry_in: Tv) -> (Bv3, Tv) {
    let mut out = Bv3::all_x(a.width());
    let carry = add3_into(a, b, carry_in, &mut out);
    (out, carry)
}

/// Three-valued addition written into a caller-provided cube; returns the
/// carry-out. The in-place form of [`add3_with_carry`].
///
/// # Panics
///
/// Panics if the widths of `a`, `b` and `out` differ.
pub fn add3_into(a: &Bv3, b: &Bv3, carry_in: Tv, out: &mut Bv3) -> Tv {
    add3_planes(a, b, false, carry_in, out)
}

/// The one three-valued carry chain: `a + b + carry_in`, or `a + !b +
/// carry_in` when `complement_b`, written into `out`; returns the carry-out.
fn add3_planes(a: &Bv3, b: &Bv3, complement_b: bool, carry_in: Tv, out: &mut Bv3) -> Tv {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.width(), out.width(), "width mismatch");
    // A full adder's carry is known 1 when two inputs are known 1: the carry
    // chain of the minimum members (x = 0). It is known 0 when two inputs
    // are known 0, i.e. when the chain of the maximum members (x = 1) has no
    // carry.
    let (width, words) = (a.width(), a.word_count());
    ripple(
        width,
        words,
        carry_in == Tv::One,
        carry_in != Tv::Zero,
        |i, one_in, maybe_in| {
            let (ak, av) = a.word(i);
            let (bk, bv) = b.word(i);
            // Complementing `b` flips its known values; its x bits stay x.
            let bv = if complement_b { bk & !bv } else { bv };
            let mask = word_mask(width, words, i);
            let one = carries(av, bv, one_in);
            let maybe = carries(av | (!ak & mask), bv | (!bk & mask), maybe_in);
            let known = ak & bk & (one.0 | !maybe.0);
            out.set_word(i, known, av ^ bv ^ one.0);
            (one, maybe)
        },
    )
}

/// Three-valued subtraction `a - b`: returns `(difference, borrow_out)`.
///
/// This is the operation behind the paper's adder *backward* implication
/// (Fig. 3): knowing an adder's output and one input, the other input is
/// `output - input`, and the final borrow equals the adder's carry-out.
/// It runs [`add3`]'s carry chain on `a + !b + 1`, so, like the sum, the
/// difference and the borrow are exact: a bit is known exactly when every
/// pair of members gives it the same value.
///
/// # Panics
///
/// Panics if the operand widths differ.
///
/// # Examples
///
/// ```
/// use wlac_bv::{arith::sub3, Bv3, Tv};
///
/// # fn main() -> Result<(), wlac_bv::ParseBvError> {
/// let (diff, borrow) = sub3(&"4'b0111".parse()?, &"4'b1x1x".parse()?);
/// assert_eq!(diff.to_string(), "4'b1x0x");
/// assert_eq!(borrow, Tv::One);
/// # Ok(())
/// # }
/// ```
pub fn sub3(a: &Bv3, b: &Bv3) -> (Bv3, Tv) {
    let mut out = Bv3::all_x(a.width());
    let borrow = sub3_into(a, b, &mut out);
    (out, borrow)
}

/// Three-valued subtraction written into a caller-provided scratch cube;
/// returns the borrow-out. The in-place form of [`sub3`].
///
/// # Panics
///
/// Panics if the widths of `a`, `b` and `out` differ.
pub fn sub3_into(a: &Bv3, b: &Bv3, out: &mut Bv3) -> Tv {
    // a - b = a + !b + 1, and the sum carries out exactly when a - b does
    // not borrow.
    !add3_planes(a, b, true, Tv::One, out)
}

/// Three-valued negation (two's complement).
pub fn neg3(a: &Bv3) -> Bv3 {
    let zero = Bv3::from_bv(&Bv::zero(a.width()));
    sub3(&zero, a).0
}

/// Three-valued multiplication (forward propagation only).
///
/// * If both operands are fully known the exact modular product is returned.
/// * If either operand is known to be zero the result is zero.
/// * Otherwise the low-order bits that are determined by the known low-order
///   bits of both operands are propagated (the product modulo `2^L` depends
///   only on the operands modulo `2^L`), and known trailing zeros of the two
///   operands accumulate.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn mul3(a: &Bv3, b: &Bv3) -> Bv3 {
    assert_eq!(a.width(), b.width(), "width mismatch");
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
    let mut out = Bv3::all_x(width);
    // Low bits determined by known low bits of both operands.
    let low = known_prefix(a).min(known_prefix(b));
    // Known trailing zeros accumulate: a = a'·2^k, b = b'·2^m ⇒ ab ≡ 0 (mod 2^{k+m}).
    let zeros = (known_trailing_zeros(a) + known_trailing_zeros(b)).min(width);
    let prod = if low > 0 {
        a.min_value().mul(&b.min_value())
    } else {
        zero
    };
    for (i, word) in prod.words().iter().enumerate() {
        let base = i * WORD_BITS;
        let low_bits = low_mask(low.saturating_sub(base));
        let zero_bits = low_mask(zeros.saturating_sub(base));
        out.set_word(i, low_bits | zero_bits, word & low_bits & !zero_bits);
    }
    out
}

/// The `n.min(64)` lowest bits of a word.
fn low_mask(n: usize) -> u64 {
    if n >= WORD_BITS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Length of the run of low bits, starting at the LSB, whose plane bit is
/// set in `plane(word)`.
fn trailing_run(c: &Bv3, plane: impl Fn(u64, u64) -> u64) -> usize {
    let mut run = 0;
    for i in 0..c.word_count() {
        let (known, value) = c.word(i);
        let ones = plane(known, value).trailing_ones() as usize;
        run += ones;
        if ones < WORD_BITS {
            break;
        }
    }
    run.min(c.width())
}

/// Number of consecutive known bits starting at the LSB.
fn known_prefix(a: &Bv3) -> usize {
    trailing_run(a, |known, _| known)
}

/// Number of consecutive known-zero bits starting at the LSB.
fn known_trailing_zeros(a: &Bv3) -> usize {
    trailing_run(a, |known, value| known & !value)
}

/// Three-valued logical shift left by a concrete amount.
pub fn shl3(a: &Bv3, amount: usize) -> Bv3 {
    let width = a.width();
    if amount >= width {
        return Bv3::from_u64(width, 0);
    }
    if amount == 0 {
        return a.clone();
    }
    a.slice(0, width - amount).concat(&Bv3::from_u64(amount, 0))
}

/// Three-valued logical shift right by a concrete amount.
pub fn shr3(a: &Bv3, amount: usize) -> Bv3 {
    let width = a.width();
    if amount >= width {
        return Bv3::from_u64(width, 0);
    }
    if amount == 0 {
        return a.clone();
    }
    Bv3::from_u64(amount, 0).concat(&a.slice(amount, width - amount))
}

/// Maximum number of `x` bits of a shift amount whose members
/// [`shift3_var`] enumerates.
const MAX_SHIFT_X_BITS: usize = 4;

/// Three-valued shift by a (possibly unknown) cube amount.
///
/// If the amount is fully known the exact shift is returned; if it has at
/// most 16 members, the shifts by every member are cube-unioned; otherwise
/// the result is fully unknown.
pub fn shift3_var(a: &Bv3, amount: &Bv3, left: bool) -> Bv3 {
    if amount.count_x() > MAX_SHIFT_X_BITS {
        return Bv3::all_x(a.width());
    }
    let (mut xs, mut count) = ([0usize; MAX_SHIFT_X_BITS], 0);
    for i in 0..amount.width() {
        if amount.bit(i) == Tv::X {
            xs[count] = i;
            count += 1;
        }
    }
    let base = amount.min_value();
    let mut acc: Option<Bv3> = None;
    for pick in 0..1u32 << count {
        let member = xs[..count]
            .iter()
            .enumerate()
            .fold(base.clone(), |m, (j, bit)| {
                m.with_bit(*bit, (pick >> j) & 1 == 1)
            });
        let amt = member
            .to_u64()
            .map_or(a.width(), |v| v.min(a.width() as u64) as usize);
        let shifted = if left { shl3(a, amt) } else { shr3(a, amt) };
        acc = Some(match acc {
            None => shifted,
            Some(prev) => prev.union(&shifted),
        });
    }
    acc.expect("a cube has at least one member")
}

/// Three-valued equality comparison.
///
/// Returns `One` when both cubes are the same concrete value, `Zero` when the
/// cubes are disjoint, `X` otherwise.
///
/// # Panics
///
/// Panics if widths differ.
pub fn eq3(a: &Bv3, b: &Bv3) -> Tv {
    assert_eq!(a.width(), b.width(), "width mismatch");
    let words = a.word_count();
    let mut same_value = true;
    for i in 0..words {
        let (ak, av) = a.word(i);
        let (bk, bv) = b.word(i);
        if (av ^ bv) & ak & bk != 0 {
            return Tv::Zero;
        }
        let full = word_mask(a.width(), words, i);
        same_value &= ak == full && bk == full && av == bv;
    }
    if same_value {
        Tv::One
    } else {
        Tv::X
    }
}

/// Three-valued disequality comparison.
pub fn ne3(a: &Bv3, b: &Bv3) -> Tv {
    !eq3(a, b)
}

/// Three-valued unsigned `a < b` using interval reasoning.
///
/// # Panics
///
/// Panics if widths differ.
pub fn lt3(a: &Bv3, b: &Bv3) -> Tv {
    assert_eq!(a.width(), b.width(), "width mismatch");
    let words = a.word_count();
    if cmp_words(words, |i| max_word(a, i), |i| b.word(i).1) == Ordering::Less {
        Tv::One
    } else if cmp_words(words, |i| a.word(i).1, |i| max_word(b, i)) != Ordering::Less {
        Tv::Zero
    } else {
        Tv::X
    }
}

/// Three-valued unsigned `a <= b` using interval reasoning.
pub fn le3(a: &Bv3, b: &Bv3) -> Tv {
    assert_eq!(a.width(), b.width(), "width mismatch");
    let words = a.word_count();
    if cmp_words(words, |i| max_word(a, i), |i| b.word(i).1) != Ordering::Greater {
        Tv::One
    } else if cmp_words(words, |i| a.word(i).1, |i| max_word(b, i)) == Ordering::Greater {
        Tv::Zero
    } else {
        Tv::X
    }
}

/// Three-valued unsigned `a > b`.
pub fn gt3(a: &Bv3, b: &Bv3) -> Tv {
    lt3(b, a)
}

/// Three-valued unsigned `a >= b`.
pub fn ge3(a: &Bv3, b: &Bv3) -> Tv {
    le3(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    #[test]
    fn add_concrete() {
        let (s, c) = add3(&cube("4'b1001"), &cube("4'b1011"));
        assert_eq!(s.to_string(), "4'b0100");
        assert_eq!(c, Tv::One);
        let (s, c) = add3(&cube("4'b0001"), &cube("4'b0010"));
        assert_eq!(s.to_string(), "4'b0011");
        assert_eq!(c, Tv::Zero);
    }

    #[test]
    fn add_partial_knowledge() {
        // Low bit known in both → low bit of sum known even with unknown highs.
        let (s, _) = add3(&cube("4'bxxx0"), &cube("4'bxxx1"));
        assert_eq!(s.bit(0), Tv::One);
        assert_eq!(s.bit(1), Tv::X);
        // Unknown carry poisons higher bits.
        let (s, _) = add3(&cube("4'bxx1x"), &cube("4'bxx1x"));
        assert_eq!(s.bit(0), Tv::X);
    }

    #[test]
    fn fig3_adder_backward_implication() {
        // out = 4'b0111, one input = 4'b1x1x ⇒ other input = 4'b1x0x,
        // carry-out (borrow of the subtraction) = 1.
        let (other, borrow) = sub3(&cube("4'b0111"), &cube("4'b1x1x"));
        assert_eq!(other.to_string(), "4'b1x0x");
        assert_eq!(borrow, Tv::One);
    }

    #[test]
    fn sub_concrete_matches_modular() {
        let (d, borrow) = sub3(&cube("4'b0011"), &cube("4'b0101"));
        assert_eq!(
            d.to_bv().unwrap().to_u64(),
            Some((3u64.wrapping_sub(5)) & 0xf)
        );
        assert_eq!(borrow, Tv::One);
    }

    #[test]
    fn neg_is_twos_complement() {
        assert_eq!(neg3(&cube("4'b0001")).to_string(), "4'b1111");
        assert_eq!(neg3(&cube("4'b0000")).to_string(), "4'b0000");
        // Unknown bits stay (partially) unknown.
        assert_eq!(neg3(&cube("4'b000x")).bit(0), Tv::X);
    }

    #[test]
    fn mul_concrete_and_zero() {
        assert_eq!(
            mul3(&cube("4'b0100"), &cube("4'b0111")).to_string(),
            "4'b1100" // 4*7 = 28 ≡ 12 (mod 16)
        );
        assert_eq!(
            mul3(&cube("4'b0000"), &cube("4'bxxxx")).to_string(),
            "4'b0000"
        );
    }

    #[test]
    fn mul_partial_low_bits() {
        // Both operands have known low two bits (01 and 11): product low two
        // bits are 11 regardless of the unknown high bits.
        let p = mul3(&cube("4'bxx01"), &cube("4'bxx11"));
        assert_eq!(p.bit(0), Tv::One);
        assert_eq!(p.bit(1), Tv::One);
        assert_eq!(p.bit(3), Tv::X);
        // Trailing zeros accumulate: xx10 * x100 has at least 3 trailing zeros.
        let p = mul3(&cube("4'bxx10"), &cube("4'bx100"));
        assert_eq!(p.bit(0), Tv::Zero);
        assert_eq!(p.bit(1), Tv::Zero);
        assert_eq!(p.bit(2), Tv::Zero);
    }

    #[test]
    fn shifts_concrete_amounts() {
        assert_eq!(shl3(&cube("4'b1x01"), 1).to_string(), "4'bx010");
        assert_eq!(shr3(&cube("4'b1x01"), 2).to_string(), "4'b001x");
        assert_eq!(shl3(&cube("4'b1111"), 4).to_string(), "4'b0000");
    }

    #[test]
    fn variable_shift_enumerates_small_cubes() {
        // amount = 2'b0x ∈ {0, 1}: result is the union of both shifts.
        let out = shift3_var(&cube("4'b0011"), &cube("2'b0x"), true);
        // shl 0 = 0011, shl 1 = 0110 → union = 0x1x
        assert_eq!(out.to_string(), "4'b0x1x");
        // Fully unknown wide amount gives all-x.
        let out = shift3_var(&cube("8'b00000011"), &Bv3::all_x(8), true);
        assert!(out.is_all_x());
    }

    #[test]
    fn comparisons_on_ranges() {
        assert_eq!(lt3(&cube("4'b00xx"), &cube("4'b1xxx")), Tv::One);
        assert_eq!(lt3(&cube("4'b1xxx"), &cube("4'b00xx")), Tv::Zero);
        assert_eq!(lt3(&cube("4'bxxxx"), &cube("4'bxxxx")), Tv::X);
        assert_eq!(gt3(&cube("4'b1xxx"), &cube("4'b00xx")), Tv::One);
        assert_eq!(le3(&cube("4'b0011"), &cube("4'b0011")), Tv::One);
        assert_eq!(ge3(&cube("4'b0011"), &cube("4'b0100")), Tv::Zero);
    }

    #[test]
    fn equality_on_cubes() {
        assert_eq!(eq3(&cube("4'b1010"), &cube("4'b1010")), Tv::One);
        assert_eq!(eq3(&cube("4'b10xx"), &cube("4'b01xx")), Tv::Zero);
        assert_eq!(eq3(&cube("4'b10xx"), &cube("4'b10xx")), Tv::X);
        assert_eq!(ne3(&cube("4'b10xx"), &cube("4'b01xx")), Tv::One);
    }

    #[test]
    fn addition_soundness_on_samples() {
        // For every concrete pair consistent with the cubes, the concrete sum
        // must be covered by the three-valued sum.
        let a = cube("4'b1x0x");
        let b = cube("4'bx01x");
        let (sum, carry) = add3(&a, &b);
        for av in 0..16u64 {
            for bv in 0..16u64 {
                let abv = Bv::from_u64(4, av);
                let bbv = Bv::from_u64(4, bv);
                if a.matches(&abv) && b.matches(&bbv) {
                    let s = abv.add(&bbv);
                    assert!(sum.matches(&s), "sum cube must cover {av}+{bv}");
                    let real_carry = av + bv >= 16;
                    if carry.is_known() {
                        assert_eq!(carry, Tv::from_bool(real_carry));
                    }
                }
            }
        }
    }
}
