//! A persisted store's design binding, and why an import is rejected.
//!
//! The verdict cache is the service's only memory of a design: nothing an
//! engine learns outlives its race. What is left of the per-design
//! knowledge base is its binding to a design hash, which a snapshot still
//! records; [`VerificationService::restore`](crate::VerificationService::restore)
//! rejects a store bound to another design, and verdicts offered from
//! outside are validated against the design's structure, with
//! [`KnowledgeError`] rather than trusted.

use crate::hash::DesignHash;
use std::error::Error;
use std::fmt;

/// Why a restore was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnowledgeError {
    /// The store is bound to a different design than the target.
    DesignMismatch {
        /// Hash the store claims to describe.
        found: DesignHash,
        /// Hash of the design it was offered to.
        expected: DesignHash,
    },
    /// A restored cached verdict fails structural validation against the
    /// design (a trace naming a non-existent net, a value of the wrong
    /// width, or a non-definitive verdict).
    MalformedVerdict {
        /// Index of the offending record in the restored batch.
        index: usize,
    },
}

impl fmt::Display for KnowledgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnowledgeError::DesignMismatch { found, expected } => write!(
                f,
                "knowledge base is bound to design {found}, not {expected}"
            ),
            KnowledgeError::MalformedVerdict { index } => {
                write!(f, "cached verdict #{index} fails structural validation")
            }
        }
    }
}

impl Error for KnowledgeError {}

/// The design binding of a persisted store: a snapshot names the design its
/// verdicts belong to through it. It holds nothing else. It stays a type of
/// its own only because the benchmark package (`perfbench/`) builds
/// snapshots with it; it goes with the snapshot format change that follows
/// ROADMAP item 3.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    design: DesignHash,
}

impl KnowledgeBase {
    /// The binding to `design`.
    pub fn new(design: DesignHash) -> Self {
        KnowledgeBase { design }
    }

    /// The design this store is bound to.
    pub fn design(&self) -> DesignHash {
        self.design
    }
}
