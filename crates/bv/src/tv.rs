//! Single three-valued logic bit.

use std::fmt;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A single bit of three-valued logic: `0`, `1` or unknown (`x`).
///
/// `Tv` is the scalar building block of the cube type [`crate::Bv3`]. Logic
/// operators follow the standard Kleene semantics used by 3-valued RTL
/// simulation: an operation produces a known value whenever the known inputs
/// already determine it (e.g. `0 & x == 0`).
///
/// # Examples
///
/// ```
/// use wlac_bv::Tv;
///
/// assert_eq!(Tv::Zero & Tv::X, Tv::Zero);
/// assert_eq!(Tv::One | Tv::X, Tv::One);
/// assert_eq!(Tv::One ^ Tv::X, Tv::X);
/// assert_eq!(!Tv::X, Tv::X);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tv {
    /// Logic zero.
    Zero,
    /// Logic one.
    One,
    /// Unknown / unassigned.
    #[default]
    X,
}

impl Tv {
    /// Returns `true` if the bit has a known (non-`x`) value.
    pub fn is_known(self) -> bool {
        self != Tv::X
    }

    /// Converts a known bit to `bool`, or `None` for `x`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Tv::Zero => Some(false),
            Tv::One => Some(true),
            Tv::X => None,
        }
    }

    /// Builds a known bit from a `bool`.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Tv::One
        } else {
            Tv::Zero
        }
    }

    /// Returns `true` if `other` is compatible with `self`, i.e. every
    /// concrete value represented by `other` is also represented by `self`.
    ///
    /// `x` covers everything; a known value covers only itself.
    pub fn covers(self, other: Tv) -> bool {
        self == Tv::X || self == other
    }

    /// Intersection of the value sets of two bits.
    ///
    /// Returns `None` when the bits are known and different (conflict).
    pub fn intersect(self, other: Tv) -> Option<Tv> {
        match (self, other) {
            (Tv::X, o) => Some(o),
            (s, Tv::X) => Some(s),
            (s, o) if s == o => Some(s),
            _ => None,
        }
    }

    /// Union of the value sets of two bits (cube union): known only when both
    /// agree.
    pub fn union(self, other: Tv) -> Tv {
        if self == other {
            self
        } else {
            Tv::X
        }
    }
}

impl Not for Tv {
    type Output = Tv;
    fn not(self) -> Tv {
        match self {
            Tv::Zero => Tv::One,
            Tv::One => Tv::Zero,
            Tv::X => Tv::X,
        }
    }
}

impl BitAnd for Tv {
    type Output = Tv;
    fn bitand(self, rhs: Tv) -> Tv {
        match (self, rhs) {
            (Tv::Zero, _) | (_, Tv::Zero) => Tv::Zero,
            (Tv::One, Tv::One) => Tv::One,
            _ => Tv::X,
        }
    }
}

impl BitOr for Tv {
    type Output = Tv;
    fn bitor(self, rhs: Tv) -> Tv {
        match (self, rhs) {
            (Tv::One, _) | (_, Tv::One) => Tv::One,
            (Tv::Zero, Tv::Zero) => Tv::Zero,
            _ => Tv::X,
        }
    }
}

impl BitXor for Tv {
    type Output = Tv;
    fn bitxor(self, rhs: Tv) -> Tv {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Tv::from_bool(a ^ b),
            _ => Tv::X,
        }
    }
}

impl fmt::Display for Tv {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tv::Zero => write!(f, "0"),
            Tv::One => write!(f, "1"),
            Tv::X => write!(f, "x"),
        }
    }
}

impl From<bool> for Tv {
    fn from(b: bool) -> Self {
        Tv::from_bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_and_bool_roundtrip() {
        assert!(Tv::Zero.is_known());
        assert!(Tv::One.is_known());
        assert!(!Tv::X.is_known());
        assert_eq!(Tv::from_bool(true), Tv::One);
        assert_eq!(Tv::from_bool(false), Tv::Zero);
        assert_eq!(Tv::One.to_bool(), Some(true));
        assert_eq!(Tv::X.to_bool(), None);
    }

    #[test]
    fn kleene_and() {
        assert_eq!(Tv::Zero & Tv::X, Tv::Zero);
        assert_eq!(Tv::X & Tv::Zero, Tv::Zero);
        assert_eq!(Tv::One & Tv::One, Tv::One);
        assert_eq!(Tv::One & Tv::X, Tv::X);
        assert_eq!(Tv::X & Tv::X, Tv::X);
    }

    #[test]
    fn kleene_or() {
        assert_eq!(Tv::One | Tv::X, Tv::One);
        assert_eq!(Tv::X | Tv::One, Tv::One);
        assert_eq!(Tv::Zero | Tv::Zero, Tv::Zero);
        assert_eq!(Tv::Zero | Tv::X, Tv::X);
    }

    #[test]
    fn kleene_xor_and_not() {
        assert_eq!(Tv::One ^ Tv::Zero, Tv::One);
        assert_eq!(Tv::One ^ Tv::One, Tv::Zero);
        assert_eq!(Tv::One ^ Tv::X, Tv::X);
        assert_eq!(!Tv::Zero, Tv::One);
        assert_eq!(!Tv::X, Tv::X);
    }

    #[test]
    fn covers_and_intersect() {
        assert!(Tv::X.covers(Tv::One));
        assert!(Tv::X.covers(Tv::X));
        assert!(!Tv::One.covers(Tv::X));
        assert!(Tv::One.covers(Tv::One));
        assert_eq!(Tv::X.intersect(Tv::One), Some(Tv::One));
        assert_eq!(Tv::One.intersect(Tv::Zero), None);
        assert_eq!(Tv::Zero.intersect(Tv::Zero), Some(Tv::Zero));
    }

    #[test]
    fn union_loses_disagreement() {
        assert_eq!(Tv::One.union(Tv::One), Tv::One);
        assert_eq!(Tv::One.union(Tv::Zero), Tv::X);
        assert_eq!(Tv::One.union(Tv::X), Tv::X);
    }

    #[test]
    fn display() {
        assert_eq!(Tv::Zero.to_string(), "0");
        assert_eq!(Tv::One.to_string(), "1");
        assert_eq!(Tv::X.to_string(), "x");
    }
}
