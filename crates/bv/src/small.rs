//! Inline small-vector word storage backing [`crate::Bv`].
//!
//! Almost every value is a control net or a narrow bus. Storing the `u64`
//! words in a `Vec` would mean a heap allocation per value; `SmallWords`
//! keeps up to [`INLINE_WORDS`] words inline (covering every net up to 128
//! bits) and spills to a `Vec<u64>` only for the rare wider buses (the
//! industrial designs carry 152-bit buses). [`crate::Bv3`] uses the same
//! inline capacity for its two planes, as fixed arrays.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Number of `u64` words stored inline before spilling to the heap.
pub(crate) const INLINE_WORDS: usize = 2;

/// Word storage: inline for ≤ `INLINE_WORDS` words, heap-spilled beyond.
///
/// Dereferences to `[u64]`, so all word-plane arithmetic is representation
/// agnostic; equality and hashing go through the slice view, making an inline
/// and a (hypothetical) spilled store of the same words indistinguishable.
#[derive(Clone)]
pub(crate) enum SmallWords {
    /// Up to [`INLINE_WORDS`] words stored in the struct itself.
    Inline {
        /// Number of valid words in `words`.
        len: u8,
        /// Inline storage; only `words[..len]` is meaningful.
        words: [u64; INLINE_WORDS],
    },
    /// Heap storage for wide nets (> 128 bits).
    Spilled(Vec<u64>),
}

impl SmallWords {
    /// All-zero storage of `len` words.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len <= INLINE_WORDS {
            SmallWords::Inline {
                len: len as u8,
                words: [0; INLINE_WORDS],
            }
        } else {
            SmallWords::Spilled(vec![0; len])
        }
    }

    /// `true` when the words live inline (no heap allocation).
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self, SmallWords::Inline { .. })
    }
}

impl Deref for SmallWords {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        match self {
            SmallWords::Inline { len, words } => &words[..*len as usize],
            SmallWords::Spilled(v) => v,
        }
    }
}

impl DerefMut for SmallWords {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            SmallWords::Inline { len, words } => &mut words[..*len as usize],
            SmallWords::Spilled(v) => v,
        }
    }
}

impl PartialEq for SmallWords {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for SmallWords {}

impl Hash for SmallWords {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl fmt::Debug for SmallWords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_and_spilled_thresholds() {
        assert!(SmallWords::zeroed(1).is_inline());
        assert!(SmallWords::zeroed(2).is_inline());
        assert!(!SmallWords::zeroed(3).is_inline());
        assert_eq!(SmallWords::zeroed(2).len(), 2);
        assert_eq!(SmallWords::zeroed(5).len(), 5);
    }

    #[test]
    fn equality_and_hash_are_representation_agnostic() {
        use std::collections::hash_map::DefaultHasher;
        let mut a = SmallWords::zeroed(2);
        a[0] = 7;
        let mut b = SmallWords::Spilled(vec![0, 0]);
        b[0] = 7;
        assert_eq!(a, b);
        let hash = |w: &SmallWords| {
            let mut h = DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }
}
