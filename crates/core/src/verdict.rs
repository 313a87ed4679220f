//! The engine-independent verdict vocabulary.
//!
//! Every engine — the word-level ATPG checker, bit-level SAT BMC, random
//! simulation — reports its conclusion as a [`Verdict`], built where the
//! engine decides, so results can be raced, compared, cached and
//! cross-validated without knowing which engine produced them.

use crate::property::PropertyKind;
use crate::trace::Trace;
use std::time::Duration;

/// The conclusion of one engine about one property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The assertion holds: outright (`proved`) or within `frames`
    /// time-frames of bounded search.
    Holds {
        /// `true` for a full (inductive) proof, `false` for a bounded result.
        proved: bool,
        /// Number of time-frames covered by the result.
        frames: usize,
    },
    /// The assertion fails; a concrete counter-example is attached.
    Violated {
        /// The failing execution (validated by re-simulation).
        trace: Trace,
    },
    /// A witness satisfying the `Eventually` objective was found.
    WitnessFound {
        /// The satisfying execution (validated by re-simulation).
        trace: Trace,
    },
    /// No witness exists within `frames` time-frames.
    WitnessAbsent {
        /// Number of time-frames exhaustively explored.
        frames: usize,
    },
    /// The engine reached no conclusion (limit, cancellation, unsupported
    /// construct, failed trace validation, ...).
    Unknown {
        /// Human-readable reason.
        reason: String,
    },
    /// The job exceeded its wall-clock budget (the portfolio's
    /// `job_budget`) before any engine answered: a structured,
    /// non-definitive outcome that frees the worker instead of occupying it
    /// forever. Like [`Verdict::Unknown`] it is never cached or persisted — a
    /// future run with more budget could still decide the property.
    Timeout {
        /// The budget that was exhausted.
        budget: Duration,
    },
}

impl Verdict {
    /// The verdict a validated trace gives a property of `kind`: a
    /// counter-example for `Always`, a witness for `Eventually`.
    pub fn with_trace(kind: PropertyKind, trace: Trace) -> Verdict {
        match kind {
            PropertyKind::Always => Verdict::Violated { trace },
            PropertyKind::Eventually => Verdict::WitnessFound { trace },
        }
    }

    /// The verdict of a search that exhausted `frames` time-frames without
    /// finding a trace: a bounded hold for `Always`, an absent witness for
    /// `Eventually`.
    pub fn exhausted(kind: PropertyKind, frames: usize) -> Verdict {
        match kind {
            PropertyKind::Always => Verdict::Holds {
                proved: false,
                frames,
            },
            PropertyKind::Eventually => Verdict::WitnessAbsent { frames },
        }
    }

    /// `true` when the verdict settles the property (anything but
    /// [`Verdict::Unknown`] / [`Verdict::Timeout`]). The first definitive
    /// verdict wins a race.
    pub fn is_definitive(&self) -> bool {
        !matches!(self, Verdict::Unknown { .. } | Verdict::Timeout { .. })
    }

    /// `true` for the "assertion passes" outcomes (proved, bounded hold, or
    /// witness exhaustively absent).
    pub fn is_pass(&self) -> bool {
        matches!(self, Verdict::Holds { .. } | Verdict::WitnessAbsent { .. })
    }

    /// The attached concrete execution, when one exists.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            Verdict::Violated { trace } | Verdict::WitnessFound { trace } => Some(trace),
            _ => None,
        }
    }

    /// `true` when two verdicts about the *same* property contradict each
    /// other.
    ///
    /// Bounded semantics are respected: a trace of length `n` only
    /// contradicts a bounded hold that claims to cover at least `n` frames,
    /// and always contradicts a full proof. `Unknown` contradicts nothing.
    pub fn conflicts_with(&self, other: &Verdict) -> bool {
        use Verdict::*;
        match (self, other) {
            (Holds { proved, frames }, Violated { trace })
            | (Violated { trace }, Holds { proved, frames }) => *proved || trace.len() <= *frames,
            (WitnessAbsent { frames }, WitnessFound { trace })
            | (WitnessFound { trace }, WitnessAbsent { frames }) => trace.len() <= *frames,
            _ => false,
        }
    }

    /// The frame depth the verdict vouches for: the covered frames of a
    /// bounded or proved hold and of an absent witness, the trace length of a
    /// trace-backed answer, 0 when the verdict says nothing about depth.
    pub fn bound(&self) -> u64 {
        match self {
            Verdict::Holds { frames, .. } | Verdict::WitnessAbsent { frames } => *frames as u64,
            Verdict::Violated { trace } | Verdict::WitnessFound { trace } => trace.len() as u64,
            Verdict::Unknown { .. } | Verdict::Timeout { .. } => 0,
        }
    }

    /// Informativeness rank: a validated concrete trace beats a full proof
    /// (it can reach beyond the bounded engines' horizon, as a deep
    /// random-simulation hit does), a proof beats a bounded hold, anything
    /// beats `Unknown`. The `portfolio` harness (`crates/bench`) fails a
    /// racing row whose verdict ranks below ATPG alone's.
    pub fn rank(&self) -> u8 {
        match self {
            Verdict::Violated { .. } | Verdict::WitnessFound { .. } => 3,
            Verdict::Holds { proved: true, .. } => 2,
            Verdict::Holds { proved: false, .. } | Verdict::WitnessAbsent { .. } => 1,
            Verdict::Unknown { .. } | Verdict::Timeout { .. } => 0,
        }
    }

    /// The verdict's one name, in reports and on the wire (`proved`,
    /// `holds(bound)`, `violated`, ...).
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Holds { proved: true, .. } => "proved",
            Verdict::Holds { proved: false, .. } => "holds(bound)",
            Verdict::Violated { .. } => "violated",
            Verdict::WitnessFound { .. } => "witness",
            Verdict::WitnessAbsent { .. } => "no witness",
            Verdict::Unknown { .. } => "unknown",
            Verdict::Timeout { .. } => "timeout",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(cycles: usize) -> Trace {
        Trace {
            initial_state: Vec::new(),
            inputs: vec![Vec::new(); cycles],
        }
    }

    #[test]
    fn definitive_and_pass_classification() {
        assert!(Verdict::Holds {
            proved: true,
            frames: 1
        }
        .is_definitive());
        assert!(Verdict::Holds {
            proved: false,
            frames: 4
        }
        .is_pass());
        assert!(Verdict::WitnessAbsent { frames: 4 }.is_pass());
        assert!(!Verdict::Violated { trace: trace(2) }.is_pass());
        let unknown = Verdict::Unknown {
            reason: "cancelled".into(),
        };
        assert!(!unknown.is_definitive());
        assert!(unknown.trace().is_none());
    }

    #[test]
    fn conflicts_respect_bounds() {
        let holds4 = Verdict::Holds {
            proved: false,
            frames: 4,
        };
        let proved = Verdict::Holds {
            proved: true,
            frames: 1,
        };
        let violated3 = Verdict::Violated { trace: trace(3) };
        let violated9 = Verdict::Violated { trace: trace(9) };
        // A 3-cycle counter-example contradicts a 4-frame hold...
        assert!(holds4.conflicts_with(&violated3));
        assert!(violated3.conflicts_with(&holds4));
        // ...but a 9-cycle one lies beyond the bound.
        assert!(!holds4.conflicts_with(&violated9));
        // A proof is contradicted by any counter-example.
        assert!(proved.conflicts_with(&violated9));
        // Unknown contradicts nothing.
        let unknown = Verdict::Unknown {
            reason: "limit".into(),
        };
        assert!(!unknown.conflicts_with(&violated3));
        assert!(!holds4.conflicts_with(&unknown));
    }

    #[test]
    fn timeout_is_structured_but_not_definitive() {
        let timeout = Verdict::Timeout {
            budget: std::time::Duration::from_secs(5),
        };
        assert!(!timeout.is_definitive(), "a timeout must never win a race");
        assert!(!timeout.is_pass());
        assert!(timeout.trace().is_none());
        assert_eq!(timeout.label(), "timeout");
        // A timeout contradicts nothing, in either direction.
        let violated = Verdict::Violated { trace: trace(3) };
        assert!(!timeout.conflicts_with(&violated));
        assert!(!violated.conflicts_with(&timeout));
    }

    #[test]
    fn kind_keyed_constructors_and_bound() {
        let violated = Verdict::with_trace(PropertyKind::Always, trace(3));
        assert_eq!(violated, Verdict::Violated { trace: trace(3) });
        assert_eq!(
            Verdict::with_trace(PropertyKind::Eventually, trace(2)).label(),
            "witness"
        );
        let holds = Verdict::exhausted(PropertyKind::Always, 6);
        assert_eq!(holds.label(), "holds(bound)");
        let absent = Verdict::exhausted(PropertyKind::Eventually, 6);
        assert_eq!(absent, Verdict::WitnessAbsent { frames: 6 });
        assert_eq!((violated.bound(), holds.bound(), absent.bound()), (3, 6, 6));
        let unknown = Verdict::Unknown {
            reason: "limit".into(),
        };
        assert_eq!(unknown.bound(), 0);
    }

    #[test]
    fn witness_conflicts() {
        let absent4 = Verdict::WitnessAbsent { frames: 4 };
        let found2 = Verdict::WitnessFound { trace: trace(2) };
        let found8 = Verdict::WitnessFound { trace: trace(8) };
        assert!(absent4.conflicts_with(&found2));
        assert!(!absent4.conflicts_with(&found8));
        assert_eq!(found2.label(), "witness");
        assert_eq!(absent4.label(), "no witness");
    }
}
