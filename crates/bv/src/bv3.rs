//! Three-valued bit-vector cubes.

use crate::bv::split_literal;
use crate::error::ParseBvError;
use crate::small::INLINE_WORDS;
use crate::{words_for, Bv, Tv, WORD_BITS};
use std::fmt;
use std::str::FromStr;

/// A three-valued bit-vector *cube*.
///
/// Every bit is either known-`0`, known-`1` or unknown (`x`). A `Bv3` denotes
/// the set of all concrete [`Bv`] values that agree with its known bits —
/// exactly the representation the paper uses for multiple-bit bus values
/// during word-level implication.
///
/// Internally two planes of `u64` words are kept: `known` (bit is not `x`)
/// and `value` (bit value, only meaningful where `known` is set), with the
/// invariant `value & !known == 0`. Both planes are stored inline for widths
/// up to 128 bits, so constructing or cloning narrow cubes never touches the
/// heap — the property the word-level implication hot path depends on — and
/// word 0 of a cube of 64 bits or fewer is a plain field read.
///
/// # Examples
///
/// ```
/// use wlac_bv::{Bv, Bv3, Tv};
///
/// # fn main() -> Result<(), wlac_bv::ParseBvError> {
/// let cube: Bv3 = "4'b10xx".parse()?;
/// assert_eq!(cube.bit(3), Tv::One);
/// assert_eq!(cube.bit(0), Tv::X);
/// assert_eq!(cube.min_value(), Bv::from_u64(4, 0b1000));
/// assert_eq!(cube.max_value(), Bv::from_u64(4, 0b1011));
/// assert!(cube.matches(&Bv::from_u64(4, 0b1001)));
/// assert!(!cube.matches(&Bv::from_u64(4, 0b0001)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bv3 {
    width: usize,
    /// Known plane of a cube of up to 128 bits; words past the width are 0.
    known: [u64; INLINE_WORDS],
    /// Value plane of a cube of up to 128 bits; words past the width are 0.
    value: [u64; INLINE_WORDS],
    /// Both planes of a wider cube, known words then value words (the
    /// inline planes then stay 0).
    wide: Option<Box<[u64]>>,
}

impl Bv3 {
    /// Creates a cube of the given width with every bit unknown.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn all_x(width: usize) -> Self {
        assert!(width > 0, "bit-vector width must be positive");
        let n = words_for(width);
        Bv3 {
            width,
            known: [0; INLINE_WORDS],
            value: [0; INLINE_WORDS],
            wide: (n > INLINE_WORDS).then(|| vec![0; 2 * n].into_boxed_slice()),
        }
    }

    /// Creates a fully-known cube from a concrete value.
    pub fn from_bv(value: &Bv) -> Self {
        let mut out = Bv3::all_x(value.width());
        for (i, word) in value.words().iter().enumerate() {
            out.set_word(i, u64::MAX, *word);
        }
        out
    }

    /// Creates a fully-known cube of the given width from a `u64`.
    pub fn from_u64(width: usize, value: u64) -> Self {
        Bv3::from_bv(&Bv::from_u64(width, value))
    }

    /// Creates a single-bit cube from a [`Tv`].
    pub fn from_tv(t: Tv) -> Self {
        let mut out = Bv3::all_x(1);
        out.known[0] = u64::from(t != Tv::X);
        out.value[0] = u64::from(t == Tv::One);
        out
    }

    /// The known plane, one word per 64 bits.
    fn known_plane(&self) -> &[u64] {
        match &self.wide {
            None => &self.known[..words_for(self.width)],
            Some(planes) => &planes[..planes.len() / 2],
        }
    }

    /// The value plane, one word per 64 bits.
    fn value_plane(&self) -> &[u64] {
        match &self.wide {
            None => &self.value[..words_for(self.width)],
            Some(planes) => &planes[planes.len() / 2..],
        }
    }

    /// The width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Value of bit `i` (`i == 0` is the least significant bit).
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn bit(&self, i: usize) -> Tv {
        assert!(i < self.width, "bit index {i} out of range");
        let (known, value) = self.word(i / WORD_BITS);
        let b = i % WORD_BITS;
        if (known >> b) & 1 == 0 {
            Tv::X
        } else if (value >> b) & 1 == 1 {
            Tv::One
        } else {
            Tv::Zero
        }
    }

    /// Sets bit `i` to the given three-valued value.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set_bit(&mut self, i: usize, t: Tv) {
        assert!(i < self.width, "bit index {i} out of range");
        let w = i / WORD_BITS;
        let mask = 1u64 << (i % WORD_BITS);
        let (known, value) = self.word(w);
        match t {
            Tv::X => self.set_word(w, known & !mask, value),
            Tv::Zero => self.set_word(w, known | mask, value & !mask),
            Tv::One => self.set_word(w, known | mask, value | mask),
        }
    }

    /// Returns a copy with bit `i` set to `t`.
    pub fn with_bit(&self, i: usize, t: Tv) -> Self {
        let mut out = self.clone();
        out.set_bit(i, t);
        out
    }

    /// Iterator over bits from least significant to most significant.
    pub fn iter(&self) -> impl Iterator<Item = Tv> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }

    /// `true` when every bit is known.
    pub fn is_fully_known(&self) -> bool {
        self.count_x() == 0
    }

    /// `true` when every bit is unknown.
    pub fn is_all_x(&self) -> bool {
        self.known_plane().iter().all(|w| *w == 0)
    }

    /// Number of unknown bits.
    pub fn count_x(&self) -> usize {
        self.width - self.count_known()
    }

    /// Number of known bits.
    pub fn count_known(&self) -> usize {
        self.known_plane()
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum()
    }

    /// Converts to a concrete value if fully known.
    pub fn to_bv(&self) -> Option<Bv> {
        if self.is_fully_known() {
            Some(Bv::from_words(self.width, self.value_plane()))
        } else {
            None
        }
    }

    /// Converts a single-bit cube to a [`Tv`].
    ///
    /// # Panics
    ///
    /// Panics if the width is not 1.
    pub fn to_tv(&self) -> Tv {
        assert_eq!(self.width, 1, "to_tv requires a single-bit cube");
        self.bit(0)
    }

    /// Smallest concrete value in the cube (all `x` bits set to 0).
    pub fn min_value(&self) -> Bv {
        Bv::from_words(self.width, self.value_plane())
    }

    /// Largest concrete value in the cube (all `x` bits set to 1).
    pub fn max_value(&self) -> Bv {
        let mut out = Bv::zero(self.width);
        for (dst, (v, k)) in out
            .words_mut()
            .iter_mut()
            .zip(self.value_plane().iter().zip(self.known_plane()))
        {
            *dst = v | !k;
        }
        out.normalize();
        out
    }

    /// `true` if the concrete value `v` is a member of the cube.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn matches(&self, v: &Bv) -> bool {
        assert_eq!(self.width, v.width(), "width mismatch");
        self.known_plane()
            .iter()
            .zip(self.value_plane())
            .zip(v.words())
            .all(|((k, val), w)| w & k == *val)
    }

    /// `true` if every concrete value of `other` is also in `self`
    /// (i.e. `self`'s known bits are a subset of `other`'s and agree).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn covers(&self, other: &Bv3) -> bool {
        assert_eq!(self.width, other.width, "width mismatch");
        (0..self.word_count()).all(|i| {
            let ((k, v), (ok, ov)) = (self.word(i), other.word(i));
            // every bit known in self must be known in other with same value
            k & !ok == 0 && (v ^ ov) & k == 0
        })
    }

    /// Cube intersection: the set of values in both cubes.
    ///
    /// Returns `None` when the cubes are disjoint (conflicting known bits).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn intersect(&self, other: &Bv3) -> Option<Bv3> {
        let mut out = self.clone();
        out.intersect_assign(other).then_some(out)
    }

    /// Cube union (smallest cube containing both): a bit stays known only if
    /// it is known with the same value in both operands.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn union(&self, other: &Bv3) -> Bv3 {
        let mut out = self.clone();
        out.union_assign(other);
        out
    }

    /// Merges new information into `self`.
    ///
    /// This is the core operation of word-level implication: the result has
    /// the union of the known bits. Returns `Ok(true)` if any bit became
    /// newly known, `Ok(false)` if nothing changed, and `Err(Conflict)` if a
    /// known bit disagrees.
    pub fn refine(&mut self, other: &Bv3) -> Result<bool, CubeConflict> {
        self.refine_recording(other, |_, _, _| {})
    }

    /// Like [`Bv3::refine`], but reports each changed word through
    /// `on_change(word_index, previous_known, previous_value)` *before*
    /// overwriting it — the building block of a delta undo trail that stores
    /// only the words a refinement actually touched instead of a full copy of
    /// the previous cube.
    ///
    /// Runs in two passes so that on a conflict `self` is left unchanged and
    /// nothing is reported. Cubes of 64 bits or fewer take a single-word path
    /// with no loop at all.
    pub fn refine_recording(
        &mut self,
        other: &Bv3,
        mut on_change: impl FnMut(usize, u64, u64),
    ) -> Result<bool, CubeConflict> {
        assert_eq!(self.width, other.width, "width mismatch");
        if self.width <= WORD_BITS {
            let (known, value) = (self.known[0], self.value[0]);
            let (other_known, other_value) = (other.known[0], other.value[0]);
            if (value ^ other_value) & known & other_known != 0 {
                return Err(CubeConflict);
            }
            let new_known = known | other_known;
            if new_known == known {
                return Ok(false);
            }
            on_change(0, known, value);
            self.known[0] = new_known;
            self.value[0] = (value | other_value) & new_known;
            return Ok(true);
        }
        if !self.intersects(other) {
            return Err(CubeConflict);
        }
        let mut changed = false;
        for i in 0..self.word_count() {
            let ((known, value), (other_known, other_value)) = (self.word(i), other.word(i));
            let new_known = known | other_known;
            if new_known == known {
                continue;
            }
            on_change(i, known, value);
            self.set_word(i, new_known, value | other_value);
            changed = true;
        }
        Ok(changed)
    }

    /// Number of `u64` words per plane.
    pub fn word_count(&self) -> usize {
        words_for(self.width)
    }

    /// Word `i` of both planes as `(known, value)`: bit `b` of the pair
    /// describes bit `64 * i + b` of the cube. Bits past the width read as
    /// unknown. The plane-level view the word-parallel implication rules
    /// compute on.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn word(&self, i: usize) -> (u64, u64) {
        debug_assert!(i < self.word_count(), "word index {i} out of range");
        match &self.wide {
            None => (self.known[i], self.value[i]),
            Some(planes) => (planes[i], planes[planes.len() / 2 + i]),
        }
    }

    /// Overwrites word `i` of both planes, e.g. to restore a word reported
    /// by [`Bv3::refine_recording`] or to store a word computed by mask
    /// arithmetic. The invariants are re-imposed: value bits outside
    /// `known` and known bits past the width are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set_word(&mut self, i: usize, known: u64, value: u64) {
        let known = known & self.word_mask(i);
        match &mut self.wide {
            None => {
                self.known[i] = known;
                self.value[i] = value & known;
            }
            Some(planes) => {
                let n = planes.len() / 2;
                planes[i] = known;
                planes[n + i] = value & known;
            }
        }
    }

    /// Replaces every word pair with `f(known, value, other_known,
    /// other_value) -> (known, value)`, value masked by known. `f` must map
    /// bits unknown in both cubes to unknown: inline cubes run it over both
    /// inline words, the unused ones included, without per-word masking.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[inline]
    fn combine(&mut self, other: &Bv3, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) {
        assert_eq!(self.width, other.width, "width mismatch");
        if self.wide.is_none() {
            for i in 0..INLINE_WORDS {
                let (k, v) = f(self.known[i], self.value[i], other.known[i], other.value[i]);
                self.known[i] = k;
                self.value[i] = v & k;
            }
        } else {
            for i in 0..self.word_count() {
                let ((k, v), (ok, ov)) = (self.word(i), other.word(i));
                let (k, v) = f(k, v, ok, ov);
                self.set_word(i, k, v);
            }
        }
    }

    /// Mask of the valid bits of word `i`.
    #[inline]
    fn word_mask(&self, i: usize) -> u64 {
        let base = i * WORD_BITS;
        assert!(base < self.width, "word index {i} out of range");
        match self.width - base {
            bits if bits >= WORD_BITS => u64::MAX,
            bits => (1u64 << bits) - 1,
        }
    }

    /// `true` when both planes are stored inline (width ≤ 128 bits).
    pub fn is_inline(&self) -> bool {
        self.wide.is_none()
    }

    /// In-place cube union: keeps a bit known only when both operands agree
    /// on it. The in-place form of [`Bv3::union`] for scratch buffers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn union_assign(&mut self, other: &Bv3) {
        self.combine(other, |k, v, ok, ov| (k & ok & !(v ^ ov), v));
    }

    /// In-place cube intersection (meet): merges `other`'s known bits into
    /// `self`. Returns `false` (leaving `self` unchanged) when the cubes are
    /// disjoint. The in-place form of [`Bv3::intersect`] for scratch
    /// buffers.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn intersect_assign(&mut self, other: &Bv3) -> bool {
        if !self.intersects(other) {
            return false;
        }
        self.combine(other, |k, v, ok, ov| (k | ok, v | ov));
        true
    }

    /// `true` when the cubes share at least one concrete value, i.e. no bit
    /// is known in both with different values. The allocation-free test
    /// behind [`Bv3::intersect`]`.is_some()`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn intersects(&self, other: &Bv3) -> bool {
        assert_eq!(self.width, other.width, "width mismatch");
        if self.wide.is_none() {
            let clash =
                |i: usize| (self.value[i] ^ other.value[i]) & self.known[i] & other.known[i];
            return clash(0) | clash(1) == 0;
        }
        (0..self.word_count()).all(|i| {
            let ((k, v), (ok, ov)) = (self.word(i), other.word(i));
            (v ^ ov) & k & ok == 0
        })
    }

    /// Bitwise three-valued AND.
    pub fn and3(&self, other: &Bv3) -> Bv3 {
        let mut out = self.clone();
        out.and3_assign(other);
        out
    }

    /// In-place [`Bv3::and3`]: a bit is known-1 when both are 1 and known-0
    /// when either is 0.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn and3_assign(&mut self, other: &Bv3) {
        self.combine(other, |k, v, ok, ov| {
            ((v & ov) | (k & !v) | (ok & !ov), v & ov)
        });
    }

    /// Bitwise three-valued OR.
    pub fn or3(&self, other: &Bv3) -> Bv3 {
        let mut out = self.clone();
        out.or3_assign(other);
        out
    }

    /// In-place [`Bv3::or3`]: a bit is known-1 when either is 1 and known-0
    /// when both are 0.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn or3_assign(&mut self, other: &Bv3) {
        self.combine(other, |k, v, ok, ov| {
            ((v | ov) | (k & !v & ok & !ov), v | ov)
        });
    }

    /// Bitwise three-valued XOR.
    pub fn xor3(&self, other: &Bv3) -> Bv3 {
        let mut out = self.clone();
        out.xor3_assign(other);
        out
    }

    /// In-place [`Bv3::xor3`]: a bit is known when it is known in both.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn xor3_assign(&mut self, other: &Bv3) {
        self.combine(other, |k, v, ok, ov| (k & ok, v ^ ov));
    }

    /// Bitwise three-valued NOT.
    pub fn not3(&self) -> Bv3 {
        let mut out = self.clone();
        for i in 0..out.word_count() {
            let (k, v) = out.word(i);
            out.set_word(i, k, !v);
        }
        out
    }

    /// Zero-extends or truncates to a new width. New high bits are known-0.
    pub fn resize(&self, width: usize) -> Bv3 {
        let mut out = Bv3::all_x(width);
        let (known, value) = (self.known_plane(), self.value_plane());
        for i in 0..out.word_count() {
            // Bits at or above the source width become known zeros.
            let base = i * WORD_BITS;
            let pad = if base >= self.width {
                u64::MAX
            } else if self.width - base >= WORD_BITS {
                0
            } else {
                !((1u64 << (self.width - base)) - 1)
            };
            let k = known.get(i).copied().unwrap_or(0) | pad;
            out.set_word(i, k, value.get(i).copied().unwrap_or(0));
        }
        out
    }

    /// Extracts the bit range `[lo, lo + width)`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the source width.
    pub fn slice(&self, lo: usize, width: usize) -> Bv3 {
        assert!(lo + width <= self.width, "slice out of range");
        let mut out = Bv3::all_x(width);
        let (known, value) = (self.known_plane(), self.value_plane());
        for i in 0..out.word_count() {
            let from = lo + i * WORD_BITS;
            out.set_word(i, bits_from(known, from), bits_from(value, from));
        }
        out
    }

    /// Concatenates `self` (high part) with `low` (low part).
    pub fn concat(&self, low: &Bv3) -> Bv3 {
        let mut out = Bv3::all_x(self.width + low.width);
        out.overlay(0, low);
        out.overlay(low.width, self);
        out
    }

    /// Writes the known bits of `src` over bits `[lo, lo + src.width())` of
    /// `self`, replacing whatever those bits held; `x` bits of `src` leave
    /// `self` unchanged, and bits past `self`'s width are dropped. The
    /// word-parallel form of setting each known bit of `src` in turn, used
    /// by the slice and shift backward implications.
    pub fn overlay(&mut self, lo: usize, src: &Bv3) {
        let (src_known, src_value) = (src.known_plane(), src.value_plane());
        let first = lo / WORD_BITS;
        let last = ((lo + src.width - 1) / WORD_BITS).min(self.word_count() - 1);
        for i in first..=last {
            let known = bits_shifted_in(src_known, lo, i);
            let value = bits_shifted_in(src_value, lo, i);
            let (k, v) = self.word(i);
            self.set_word(i, k | known, (v & !known) | value);
        }
    }

    /// Number of concrete values represented by the cube, saturating at
    /// `u64::MAX` for cubes with 64 or more unknown bits.
    pub fn cardinality(&self) -> u64 {
        let x = self.count_x();
        if x >= 64 {
            u64::MAX
        } else {
            1u64 << x
        }
    }
}

/// Bits `[lo, lo + 64)` of the little-endian word array `words`, with bits
/// past its end reading as zero.
fn bits_from(words: &[u64], lo: usize) -> u64 {
    let (w, b) = (lo / WORD_BITS, lo % WORD_BITS);
    let low = words.get(w).copied().unwrap_or(0) >> b;
    if b == 0 {
        low
    } else {
        low | words.get(w + 1).copied().unwrap_or(0) << (WORD_BITS - b)
    }
}

/// Word `i` of `words` shifted left by `shift` bits (the words placed at bit
/// offset `shift`).
fn bits_shifted_in(words: &[u64], shift: usize, i: usize) -> u64 {
    let base = i * WORD_BITS;
    if base >= shift {
        bits_from(words, base - shift)
    } else if shift - base < WORD_BITS {
        words[0] << (shift - base)
    } else {
        0
    }
}

/// Conflict produced when merging incompatible cubes with [`Bv3::refine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CubeConflict;

impl fmt::Display for CubeConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conflicting bit-vector cube refinement")
    }
}

impl std::error::Error for CubeConflict {}

impl fmt::Debug for Bv3 {
    /// Shows the width and both planes, one word per 64 bits.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bv3")
            .field("width", &self.width)
            .field("known", &self.known_plane())
            .field("value", &self.value_plane())
            .finish()
    }
}

impl fmt::Display for Bv3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b", self.width)?;
        for i in (0..self.width).rev() {
            write!(f, "{}", self.bit(i))?;
        }
        Ok(())
    }
}

impl From<Bv> for Bv3 {
    fn from(v: Bv) -> Self {
        Bv3::from_bv(&v)
    }
}

impl FromStr for Bv3 {
    type Err = ParseBvError;

    /// Parses Verilog-style literals, allowing `x` digits in binary form:
    /// `4'b10xx`, `8'hff`, `8'd42`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (width, base, digits) = split_literal(s)?;
        if base == 'b' {
            let bits: Vec<char> = digits.chars().filter(|c| *c != '_').collect();
            if bits.is_empty() || bits.len() > width {
                return Err(ParseBvError::new(format!(
                    "binary literal `{s}` does not fit width {width}"
                )));
            }
            let mut out = Bv3::all_x(width);
            // Unspecified high bits default to known zero, as in Verilog.
            for i in bits.len()..width {
                out.set_bit(i, Tv::Zero);
            }
            for (i, c) in bits.iter().rev().enumerate() {
                match c.to_ascii_lowercase() {
                    '0' => out.set_bit(i, Tv::Zero),
                    '1' => out.set_bit(i, Tv::One),
                    'x' => out.set_bit(i, Tv::X),
                    other => {
                        return Err(ParseBvError::new(format!(
                            "unexpected character `{other}` in binary literal `{s}`"
                        )))
                    }
                }
            }
            Ok(out)
        } else {
            let bv: Bv = s.parse()?;
            Ok(Bv3::from_bv(&bv))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["4'b10xx", "4'b0000", "1'b1", "8'bxxxxxxxx", "6'b1x0x01"] {
            assert_eq!(cube(s).to_string(), s);
        }
        // Short literals zero-extend.
        assert_eq!(cube("4'b1x").to_string(), "4'b001x");
        // Hex and decimal literals are fully known.
        assert_eq!(cube("8'hff").to_string(), "8'b11111111");
        assert_eq!(cube("4'd5").to_string(), "4'b0101");
    }

    #[test]
    fn min_max_values() {
        let c = cube("4'bx01x");
        assert_eq!(c.min_value().to_u64(), Some(0b0010));
        assert_eq!(c.max_value().to_u64(), Some(0b1011));
        let d = cube("4'b1x0x");
        assert_eq!(d.min_value().to_u64(), Some(8));
        assert_eq!(d.max_value().to_u64(), Some(13));
    }

    #[test]
    fn matches_and_covers() {
        let c = cube("4'b10xx");
        assert!(c.matches(&Bv::from_u64(4, 0b1000)));
        assert!(c.matches(&Bv::from_u64(4, 0b1011)));
        assert!(!c.matches(&Bv::from_u64(4, 0b1100)));
        assert!(cube("4'bxxxx").covers(&c));
        assert!(c.covers(&cube("4'b1001")));
        assert!(!c.covers(&cube("4'b0001")));
        assert!(!cube("4'b1001").covers(&c));
    }

    #[test]
    fn intersect_union() {
        let a = cube("4'b10xx");
        let b = cube("4'bx0x1");
        assert_eq!(a.intersect(&b).unwrap(), cube("4'b10x1"));
        assert!(a.intersect(&cube("4'b01xx")).is_none());
        assert_eq!(a.union(&cube("4'b1100")), cube("4'b1xxx"));
        assert_eq!(a.union(&a), a);
    }

    #[test]
    fn refine_reports_change_and_conflict() {
        let mut a = cube("4'b10xx");
        assert_eq!(a.refine(&cube("4'bxx1x")), Ok(true));
        assert_eq!(a, cube("4'b101x"));
        assert_eq!(a.refine(&cube("4'b1xxx")), Ok(false));
        assert_eq!(a.refine(&cube("4'b0xxx")), Err(CubeConflict));
    }

    #[test]
    fn bitwise_and_example_from_paper() {
        // Section 3.1: a = 4'b10xx, b updated to 4'b1x1x at a 4-bit AND gate
        // with output 4'bx00x forward implies y = 4'b100x.
        let a = cube("4'b10xx");
        let b = cube("4'b1x1x");
        let forward = a.and3(&b);
        assert_eq!(forward, cube("4'b10xx").and3(&cube("4'b1x1x")));
        assert_eq!(forward.bit(3), Tv::One);
        assert_eq!(forward.bit(2), Tv::Zero);
        assert_eq!(forward.bit(1), Tv::X);
        assert_eq!(forward.bit(0), Tv::X);
    }

    #[test]
    fn bitwise_ops_three_valued() {
        let a = cube("3'b10x");
        let b = cube("3'bx1x");
        assert_eq!(a.and3(&b), cube("3'bx0x"));
        assert_eq!(a.or3(&b), cube("3'b11x"));
        assert_eq!(a.xor3(&b), cube("3'bx1x"));
        assert_eq!(a.not3(), cube("3'b01x"));
    }

    #[test]
    fn resize_slice_concat() {
        let c = cube("4'b1x01");
        assert_eq!(c.resize(6), cube("6'b001x01"));
        assert_eq!(c.resize(2), cube("2'b01"));
        assert_eq!(c.slice(1, 2), cube("2'bx0"));
        assert_eq!(cube("2'b1x").concat(&cube("2'b01")), cube("4'b1x01"));
    }

    #[test]
    fn cardinality() {
        assert_eq!(cube("4'b1010").cardinality(), 1);
        assert_eq!(cube("4'b10xx").cardinality(), 4);
        assert_eq!(Bv3::all_x(80).cardinality(), u64::MAX);
    }

    #[test]
    fn wide_cubes() {
        let mut c = Bv3::all_x(152);
        c.set_bit(151, Tv::One);
        c.set_bit(0, Tv::Zero);
        assert_eq!(c.count_known(), 2);
        assert_eq!(c.count_x(), 150);
        assert!(c.max_value().bit(151));
        assert!(!c.min_value().bit(0));
        let conc = c.intersect(&Bv3::from_bv(&Bv::ones(152)));
        assert!(conc.is_none()); // bit 0 conflicts
    }

    #[test]
    fn to_bv_and_tv() {
        assert_eq!(cube("4'b1010").to_bv(), Some(Bv::from_u64(4, 10)));
        assert_eq!(cube("4'b10x0").to_bv(), None);
        assert_eq!(cube("1'b1").to_tv(), Tv::One);
        assert_eq!(Bv3::from_tv(Tv::X).to_tv(), Tv::X);
    }
}
