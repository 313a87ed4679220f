//! Range reasoning over cubes.
//!
//! The paper's comparator implication (Fig. 4) translates a cube into a
//! `[min, max]` interval, tightens the interval using the comparator's output
//! value, and maps the tightened interval back to three-valued logic using
//! two rules:
//!
//! * **Rule 1** — only `x` bits may receive new Boolean implications, and
//! * **Rule 2** — more significant bits must be implied before less
//!   significant ones, because only the most significant `x` bit splits the
//!   cube's range into two *disjoint* sub-ranges.
//!
//! [`refine_to_range`] implements exactly that MSB-first procedure. It visits
//! only the cube's `x` bits, and for cubes of 64 bits or fewer
//! ([`refine_to_range_u64`]) keeps the interval ends in plain `u64`s.

use crate::{last_word_mask, Bv, Bv3, WORD_BITS};
use std::error::Error;
use std::fmt;

/// The `[min, max]` interval spanned by a cube (all `x` set to 0 / to 1).
///
/// # Examples
///
/// ```
/// use wlac_bv::{range::range_of, Bv3};
///
/// # fn main() -> Result<(), wlac_bv::ParseBvError> {
/// let (lo, hi) = range_of(&"4'bx01x".parse::<Bv3>()?);
/// assert_eq!(lo.to_u64(), Some(2));
/// assert_eq!(hi.to_u64(), Some(11));
/// # Ok(())
/// # }
/// ```
pub fn range_of(cube: &Bv3) -> (Bv, Bv) {
    (cube.min_value(), cube.max_value())
}

/// Error returned when a cube cannot be tightened into a target interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyRangeError;

impl fmt::Display for EmptyRangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cube has no value inside the required range")
    }
}

impl Error for EmptyRangeError {}

/// Tightens `cube` so that its interval fits inside `[lo, hi]`, implying bits
/// most-significant-first (the paper's Rules 1 and 2).
///
/// Starting from the most significant unknown bit, each branch (`0`/`1`) of
/// the bit is kept only if its sub-cube interval intersects `[lo, hi]`. When
/// exactly one branch survives the bit becomes known; when both survive the
/// procedure stops (no further bit can be soundly implied from interval
/// information alone); when neither survives the requirement is
/// unsatisfiable.
///
/// Bits already known are left untouched (Rule 1).
///
/// # Errors
///
/// Returns [`EmptyRangeError`] when no value of the cube can lie in
/// `[lo, hi]` (detected through interval reasoning).
///
/// # Examples
///
/// The worked example of Fig. 4: `in_b = 4'b1x0x` tightened to `[8, 10]`
/// becomes `4'b100x`.
///
/// ```
/// use wlac_bv::{range::refine_to_range, Bv, Bv3};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cube: Bv3 = "4'b1x0x".parse()?;
/// let tightened = refine_to_range(&cube, &Bv::from_u64(4, 8), &Bv::from_u64(4, 10))?;
/// assert_eq!(tightened.to_string(), "4'b100x");
/// # Ok(())
/// # }
/// ```
///
/// # Panics
///
/// Panics if the widths of `cube`, `lo` and `hi` differ.
pub fn refine_to_range(cube: &Bv3, lo: &Bv, hi: &Bv) -> Result<Bv3, EmptyRangeError> {
    let mut out = cube.clone();
    refine_to_range_in_place(&mut out, lo, hi)?;
    Ok(out)
}

/// In-place form of [`refine_to_range`]: tightens `cube` directly, so hot
/// paths can reuse a scratch cube instead of constructing a new one. On error
/// the cube may hold a partially tightened (but still sound) value.
///
/// # Errors
///
/// Returns [`EmptyRangeError`] when no value of the cube can lie in
/// `[lo, hi]`.
///
/// # Panics
///
/// Panics if the widths of `cube`, `lo` and `hi` differ.
pub fn refine_to_range_in_place(cube: &mut Bv3, lo: &Bv, hi: &Bv) -> Result<(), EmptyRangeError> {
    assert_eq!(cube.width(), lo.width(), "width mismatch");
    assert_eq!(cube.width(), hi.width(), "width mismatch");
    if cube.width() <= WORD_BITS {
        return refine_to_range_u64(cube, lo.words()[0], hi.words()[0]);
    }
    if lo > hi {
        return Err(EmptyRangeError);
    }
    let mut min = cube.min_value();
    let mut max = cube.max_value();
    // Overall feasibility check first.
    if !(min <= *hi && *lo <= max) {
        return Err(EmptyRangeError);
    }
    // From here on `[min, max]` always overlaps `[lo, hi]`, so the zero
    // branch of an `x` bit only has to keep `lo <= max` and the one branch
    // only `min <= hi`.
    for i in (0..cube.word_count()).rev() {
        let (known, value) = cube.word(i);
        let mask = if i + 1 == cube.word_count() {
            last_word_mask(cube.width())
        } else {
            u64::MAX
        };
        let (mut new_known, mut new_value) = (known, value);
        let mut xs = !known & mask;
        let mut outcome = None;
        while xs != 0 {
            let bit = 1u64 << (WORD_BITS - 1 - xs.leading_zeros() as usize);
            xs ^= bit;
            max.words_mut()[i] ^= bit;
            let zero_ok = *lo <= max;
            max.words_mut()[i] ^= bit;
            min.words_mut()[i] ^= bit;
            let one_ok = min <= *hi;
            min.words_mut()[i] ^= bit;
            new_known |= bit;
            match (zero_ok, one_ok) {
                (true, true) => {
                    // Rule 2: stop at the first ambiguous bit.
                    new_known ^= bit;
                    outcome = Some(Ok(()));
                    break;
                }
                (true, false) => max.words_mut()[i] ^= bit,
                (false, true) => {
                    new_value |= bit;
                    min.words_mut()[i] ^= bit;
                }
                (false, false) => {
                    // Leave the bit at 1, as the bit-by-bit procedure does.
                    new_value |= bit;
                    outcome = Some(Err(EmptyRangeError));
                    break;
                }
            }
        }
        cube.set_word(i, new_known, new_value);
        if let Some(outcome) = outcome {
            return outcome;
        }
    }
    Ok(())
}

/// [`refine_to_range_in_place`] for cubes of at most 64 bits, with the
/// interval `[lo, hi]` given as plain integers: the comparator implication's
/// single-word path.
///
/// # Errors
///
/// Returns [`EmptyRangeError`] when no value of the cube can lie in
/// `[lo, hi]`.
///
/// # Panics
///
/// Panics if the cube is wider than 64 bits.
pub fn refine_to_range_u64(cube: &mut Bv3, lo: u64, hi: u64) -> Result<(), EmptyRangeError> {
    assert!(
        cube.width() <= WORD_BITS,
        "refine_to_range_u64 needs a single-word cube"
    );
    if lo > hi {
        return Err(EmptyRangeError);
    }
    let (mut known, mut value) = cube.word(0);
    let mut xs = !known & last_word_mask(cube.width());
    let (mut min, mut max) = (value, value | xs);
    if min > hi || lo > max {
        return Err(EmptyRangeError);
    }
    let mut result = Ok(());
    while xs != 0 {
        let bit = 1u64 << (WORD_BITS - 1 - xs.leading_zeros() as usize);
        xs ^= bit;
        match (lo <= (max ^ bit), (min | bit) <= hi) {
            (true, true) => break,
            (true, false) => {
                known |= bit;
                max ^= bit;
            }
            (false, true) => {
                known |= bit;
                value |= bit;
                min |= bit;
            }
            (false, false) => {
                known |= bit;
                value |= bit;
                result = Err(EmptyRangeError);
                break;
            }
        }
    }
    cube.set_word(0, known, value);
    result
}

/// Saturating decrement: `v - 1`, or zero if `v` is zero.
pub fn saturating_dec(v: &Bv) -> Bv {
    if v.is_zero() {
        v.clone()
    } else {
        v.sub(&Bv::from_u64(v.width(), 1))
    }
}

/// Saturating increment: `v + 1`, or all-ones if `v` is already all-ones.
pub fn saturating_inc(v: &Bv) -> Bv {
    if *v == Bv::ones(v.width()) {
        v.clone()
    } else {
        v.add(&Bv::from_u64(v.width(), 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tv;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    fn bv(w: usize, v: u64) -> Bv {
        Bv::from_u64(w, v)
    }

    #[test]
    fn fig4_in_a_side() {
        // in_a = 4'bx01x tightened to [9, 11] becomes 4'b101x (MSB implied 1).
        let refined = refine_to_range(&cube("4'bx01x"), &bv(4, 9), &bv(4, 11)).unwrap();
        assert_eq!(refined.to_string(), "4'b101x");
    }

    #[test]
    fn fig4_in_b_side() {
        // in_b = 4'b1x0x tightened to [8, 10] becomes 4'b100x.
        let refined = refine_to_range(&cube("4'b1x0x"), &bv(4, 8), &bv(4, 10)).unwrap();
        assert_eq!(refined.to_string(), "4'b100x");
    }

    #[test]
    fn ambiguous_bit_stops_implication() {
        // [8, 13] keeps both sub-ranges of the second-highest bit when the
        // target range covers them both, so nothing can be implied.
        let refined = refine_to_range(&cube("4'b1x0x"), &bv(4, 8), &bv(4, 13)).unwrap();
        assert_eq!(refined.to_string(), "4'b1x0x");
    }

    #[test]
    fn least_significant_bit_not_implied_from_overlapping_ranges() {
        // Target [8, 12]: bit 0 splits into overlapping ranges so it must
        // stay x even though 13 is excluded.
        let refined = refine_to_range(&cube("4'b1x0x"), &bv(4, 8), &bv(4, 12)).unwrap();
        assert_eq!(refined.to_string(), "4'b1x0x");
    }

    #[test]
    fn empty_range_is_conflict() {
        assert_eq!(
            refine_to_range(&cube("4'b11xx"), &bv(4, 0), &bv(4, 3)),
            Err(EmptyRangeError)
        );
        // lo > hi is immediately empty.
        assert_eq!(
            refine_to_range(&cube("4'bxxxx"), &bv(4, 5), &bv(4, 2)),
            Err(EmptyRangeError)
        );
    }

    #[test]
    fn fully_known_cube_inside_range_is_unchanged() {
        let c = cube("4'b0110");
        assert_eq!(refine_to_range(&c, &bv(4, 0), &bv(4, 15)).unwrap(), c);
        assert_eq!(
            refine_to_range(&c, &bv(4, 7), &bv(4, 15)),
            Err(EmptyRangeError)
        );
    }

    #[test]
    fn range_of_extremes() {
        let (lo, hi) = range_of(&cube("4'bxxxx"));
        assert_eq!(lo.to_u64(), Some(0));
        assert_eq!(hi.to_u64(), Some(15));
        let (lo, hi) = range_of(&cube("4'b0101"));
        assert_eq!(lo, hi);
    }

    #[test]
    fn saturating_helpers() {
        assert_eq!(saturating_dec(&bv(4, 0)).to_u64(), Some(0));
        assert_eq!(saturating_dec(&bv(4, 7)).to_u64(), Some(6));
        assert_eq!(saturating_inc(&bv(4, 15)).to_u64(), Some(15));
        assert_eq!(saturating_inc(&bv(4, 7)).to_u64(), Some(8));
    }

    #[test]
    fn refinement_never_loses_known_bits() {
        let c = cube("6'b1x0x1x");
        let refined = refine_to_range(&c, &bv(6, 0), &bv(6, 63)).unwrap();
        assert!(c.covers(&refined));
    }

    #[test]
    fn wide_cube_refinement() {
        let mut c = Bv3::all_x(100);
        c.set_bit(99, Tv::X);
        let lo = Bv::zero(100);
        let hi = Bv::ones(100).shr(1); // MSB must be zero
        let refined = refine_to_range(&c, &lo, &hi).unwrap();
        assert_eq!(refined.bit(99), Tv::Zero);
    }
}
