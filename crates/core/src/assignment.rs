//! Word-level value assignment with a backtrackable delta trail.
//!
//! Unlike bit-level ATPG, a word-level signal can be implied several times
//! (each time refining more bits), so backtracking cannot simply reset nets
//! to `x` — it must restore the *previous partially-implied value*
//! (Section 3.1 of the paper). The [`Assignment`] keeps an undo trail for
//! exactly this purpose; instead of a full copy of the previous cube, each
//! trail entry records only one plane *word* a refinement overwrote (the
//! delta), so refining one bit of a wide bus costs a single 24-byte entry
//! and no heap allocation.

use wlac_bv::Bv3;
use wlac_netlist::{NetId, Netlist};

/// Conflict raised when a refinement contradicts the current assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conflict {
    /// The net on which the contradiction was detected.
    pub net: NetId,
}

/// One overwritten plane word: enough to restore a net's previous value when
/// popped in reverse order.
#[derive(Debug, Clone, Copy)]
struct TrailEntry {
    net: NetId,
    word: u32,
    known: u64,
    value: u64,
}

/// The current three-valued value of every net plus a word-delta undo trail.
#[derive(Debug, Clone)]
pub struct Assignment {
    values: Vec<Bv3>,
    trail: Vec<TrailEntry>,
    peak_trail: usize,
    /// Nets whose value changed (by refinement *or* backtracking) since the
    /// last [`Assignment::drain_dirty`]; may contain duplicates. Only filled
    /// when dirty tracking is enabled — the list backs the incremental
    /// unjustified-gate worklist, and untracked users (simulation replay,
    /// standalone implication) should not pay for it.
    dirty: Vec<NetId>,
    track_dirty: bool,
}

impl Assignment {
    /// Creates an all-unknown assignment for the given netlist.
    pub fn new(netlist: &Netlist) -> Self {
        Assignment {
            values: netlist
                .nets()
                .map(|n| Bv3::all_x(netlist.net_width(n)))
                .collect(),
            trail: Vec::new(),
            peak_trail: 0,
            dirty: Vec::new(),
            track_dirty: false,
        }
    }

    /// Starts recording every net-value change (refinements and backtrack
    /// restores) for [`Assignment::drain_dirty`]. The recording vector is
    /// reused across drains, so steady-state tracking allocates nothing once
    /// it has reached its peak.
    pub fn enable_dirty_tracking(&mut self) {
        self.track_dirty = true;
    }

    /// `true` when change tracking is on.
    pub fn dirty_tracking(&self) -> bool {
        self.track_dirty
    }

    /// Drains the nets changed since the last drain (with possible
    /// duplicates). Empty — and meaningless — while tracking is disabled.
    pub fn drain_dirty(&mut self) -> std::vec::Drain<'_, NetId> {
        self.dirty.drain(..)
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> &Bv3 {
        &self.values[net.index()]
    }

    /// Refines the value of `net` with `new`, recording the overwritten plane
    /// words on the trail. Returns `Ok(true)` when at least one bit became
    /// newly known.
    ///
    /// # Errors
    ///
    /// Returns [`Conflict`] when a known bit of `new` contradicts the current
    /// value; the assignment is left unchanged in that case.
    pub fn refine(&mut self, net: NetId, new: &Bv3) -> Result<bool, Conflict> {
        let trail = &mut self.trail;
        match self.values[net.index()].refine_recording(new, |word, known, value| {
            trail.push(TrailEntry {
                net,
                word: word as u32,
                known,
                value,
            });
        }) {
            Ok(changed) => {
                self.peak_trail = self.peak_trail.max(self.trail.len());
                if changed && self.track_dirty {
                    self.dirty.push(net);
                }
                Ok(changed)
            }
            Err(_) => Err(Conflict { net }),
        }
    }

    /// Makes the current values the ground state: the trail is emptied, so
    /// no later [`Assignment::backtrack_to`] restores anything older.
    pub fn clear_trail(&mut self) {
        self.trail.clear();
    }

    /// Current length of the trail; use with [`Assignment::backtrack_to`].
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores every net to its value at the time `mark` was taken.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is larger than the current trail.
    pub fn backtrack_to(&mut self, mark: usize) {
        assert!(mark <= self.trail.len(), "mark beyond trail");
        while self.trail.len() > mark {
            let entry = self.trail.pop().expect("non-empty trail");
            self.values[entry.net.index()].set_word(entry.word as usize, entry.known, entry.value);
            if self.track_dirty {
                self.dirty.push(entry.net);
            }
        }
    }

    /// Total number of known bits across all nets.
    #[allow(dead_code)] // exercised by tests and useful for diagnostics
    pub fn known_bits(&self) -> usize {
        self.values.iter().map(|v| v.count_known()).sum()
    }

    /// Largest trail length observed so far (used for memory reporting).
    #[allow(dead_code)] // exercised by tests and useful for diagnostics
    pub fn peak_trail(&self) -> usize {
        self.peak_trail
    }

    /// Approximate number of bytes held by the assignment and its trail at
    /// its peak, used to reproduce the paper's memory column.
    pub fn peak_memory_bytes(&self) -> usize {
        let cube_bytes = |c: &Bv3| 2 * c.width().div_ceil(64).max(2) * 8 + 16;
        let values: usize = self.values.iter().map(cube_bytes).sum();
        values + self.peak_trail * std::mem::size_of::<TrailEntry>()
    }

    /// Number of nets tracked.
    #[allow(dead_code)] // exercised by tests and useful for diagnostics
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no nets are tracked.
    #[allow(dead_code)] // exercised by tests and useful for diagnostics
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_bv::Tv;
    use wlac_netlist::Netlist;

    fn cube(s: &str) -> Bv3 {
        s.parse().unwrap()
    }

    fn simple() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        (nl, a, b)
    }

    #[test]
    fn refine_and_backtrack_restores_partial_values() {
        let (nl, a, _) = simple();
        let mut asg = Assignment::new(&nl);
        asg.refine(a, &cube("4'b1xxx")).unwrap();
        let mark = asg.mark();
        asg.refine(a, &cube("4'bx0x1")).unwrap();
        assert_eq!(asg.value(a), &cube("4'b10x1"));
        asg.backtrack_to(mark);
        // Backtracking restores the *partially implied* value, not all-x.
        assert_eq!(asg.value(a), &cube("4'b1xxx"));
    }

    #[test]
    fn conflict_leaves_assignment_unchanged() {
        let (nl, a, _) = simple();
        let mut asg = Assignment::new(&nl);
        asg.refine(a, &cube("4'b10xx")).unwrap();
        let err = asg.refine(a, &cube("4'b01xx")).unwrap_err();
        assert_eq!(err.net, a);
        assert_eq!(asg.value(a), &cube("4'b10xx"));
    }

    #[test]
    fn no_change_is_reported() {
        let (nl, a, _) = simple();
        let mut asg = Assignment::new(&nl);
        assert!(asg.refine(a, &cube("4'b1xxx")).unwrap());
        assert!(!asg.refine(a, &cube("4'b1xxx")).unwrap());
        assert!(!asg.refine(a, &Bv3::all_x(4)).unwrap());
        assert_eq!(asg.mark(), 1);
    }

    #[test]
    fn known_bits_and_memory_accounting() {
        let (nl, a, b) = simple();
        let mut asg = Assignment::new(&nl);
        assert_eq!(asg.known_bits(), 0);
        asg.refine(a, &cube("4'b1010")).unwrap();
        asg.refine(b, &cube("4'bxx11")).unwrap();
        assert_eq!(asg.known_bits(), 6);
        assert!(asg.peak_memory_bytes() > 0);
        assert_eq!(asg.peak_trail(), 2);
        assert_eq!(asg.len(), nl.net_count());
        assert!(!asg.is_empty());
    }

    #[test]
    fn interleaved_multi_refinement_backtracking() {
        // Regression test for the delta trail: two nets are each refined
        // several times (including refinements touching several words of a
        // wide bus) with their refinements interleaved, then restored level
        // by level. Every mark must restore the exact partially-implied
        // values of both nets, not just the latest one.
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let w = nl.input("w", 130); // three words: exercises multi-word deltas
        let mut asg = Assignment::new(&nl);

        let m0 = asg.mark();
        asg.refine(a, &cube("4'b1xxx")).unwrap();
        let mut w_lo = Bv3::all_x(130);
        w_lo.set_bit(0, Tv::One);
        asg.refine(w, &w_lo).unwrap();

        let m1 = asg.mark();
        let mut w_mid_hi = Bv3::all_x(130);
        w_mid_hi.set_bit(64, Tv::Zero); // second word
        w_mid_hi.set_bit(129, Tv::One); // third word — same refinement
        asg.refine(w, &w_mid_hi).unwrap();
        asg.refine(a, &cube("4'bxx0x")).unwrap();

        let m2 = asg.mark();
        asg.refine(a, &cube("4'bxxx1")).unwrap();
        let mut w_more = Bv3::all_x(130);
        w_more.set_bit(1, Tv::Zero); // first word again, at a deeper level
        asg.refine(w, &w_more).unwrap();

        assert_eq!(asg.value(a), &cube("4'b1x01"));
        assert_eq!(asg.value(w).bit(0), Tv::One);
        assert_eq!(asg.value(w).bit(1), Tv::Zero);
        assert_eq!(asg.value(w).bit(64), Tv::Zero);
        assert_eq!(asg.value(w).bit(129), Tv::One);

        asg.backtrack_to(m2);
        assert_eq!(asg.value(a), &cube("4'b1x0x"));
        assert_eq!(asg.value(w).bit(0), Tv::One);
        assert_eq!(asg.value(w).bit(1), Tv::X);
        assert_eq!(asg.value(w).bit(64), Tv::Zero);
        assert_eq!(asg.value(w).bit(129), Tv::One);

        asg.backtrack_to(m1);
        assert_eq!(asg.value(a), &cube("4'b1xxx"));
        assert_eq!(asg.value(w).bit(0), Tv::One);
        assert_eq!(asg.value(w).bit(64), Tv::X);
        assert_eq!(asg.value(w).bit(129), Tv::X);

        asg.backtrack_to(m0);
        assert_eq!(asg.value(a), &Bv3::all_x(4));
        assert!(asg.value(w).is_all_x());
    }

    #[test]
    fn nested_backtracking() {
        let (nl, a, b) = simple();
        let mut asg = Assignment::new(&nl);
        let m0 = asg.mark();
        asg.refine(a, &cube("4'b1xxx")).unwrap();
        let m1 = asg.mark();
        asg.refine(b, &cube("4'b0000")).unwrap();
        asg.refine(a, &cube("4'b11xx")).unwrap();
        asg.backtrack_to(m1);
        assert_eq!(asg.value(a), &cube("4'b1xxx"));
        assert_eq!(asg.value(b), &Bv3::all_x(4));
        asg.backtrack_to(m0);
        assert_eq!(asg.value(a), &Bv3::all_x(4));
    }
}
