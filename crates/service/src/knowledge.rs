//! The per-design cross-property knowledge base.
//!
//! One [`KnowledgeBase`] accumulates everything every engine learns about one
//! design, across all properties and batches of a session:
//!
//! * a [`ClauseBank`] of design-valid, frame-relative CDCL clauses lifted out
//!   of SAT BMC runs (deduplicated, depth-minimised, capacity-capped),
//! * the [`EngineHistory`] feeding the scheduling predictor.
//!
//! It holds nothing of the ATPG search: every ATPG run is
//! [`wlac_atpg::AssertionChecker::check`], whose ESTG lives for one check.
//!
//! Every knowledge base is **bound to a design hash**. Imports are validated
//! against both the hash and the netlist structure; anything malformed — a
//! clause naming a non-existent net, a bit beyond a net's width, a frame
//! beyond its recorded depth, or a store claiming to describe a different
//! design — is rejected with [`KnowledgeError`] rather than trusted.

use crate::hash::DesignHash;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use wlac_baselines::{FrameClause, FrameLit};
use wlac_netlist::Netlist;
use wlac_portfolio::{EngineHistory, Harvest};

/// Why a knowledge import was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnowledgeError {
    /// The store is bound to a different design than the target.
    DesignMismatch {
        /// Hash the store claims to describe.
        found: DesignHash,
        /// Hash of the design it was offered to.
        expected: DesignHash,
    },
    /// A frame clause fails structural validation against the design.
    MalformedClause {
        /// Index of the offending clause in the imported store.
        index: usize,
    },
    /// An imported cached verdict fails structural validation against the
    /// design (a trace naming a non-existent net, a value of the wrong
    /// width, or a non-definitive verdict).
    MalformedVerdict {
        /// Index of the offending record in the imported batch.
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
            KnowledgeError::MalformedClause { index } => {
                write!(f, "frame clause #{index} fails structural validation")
            }
            KnowledgeError::MalformedVerdict { index } => {
                write!(f, "cached verdict #{index} fails structural validation")
            }
        }
    }
}

impl Error for KnowledgeError {}

/// Deduplicating, subsuming, capacity-capped store of design-valid frame
/// clauses.
///
/// Clauses are canonicalised (literals sorted) before lookup; a duplicate
/// keeps the **smaller** learn depth only when it was genuinely learned at
/// that depth (smaller depth ⇒ valid at more shifts, and the recorded depth
/// is part of the clause's validity claim, so it is never invented).
///
/// On insert the bank also runs subsumption both ways: a new clause whose
/// literal set is a superset of a banked clause (at a depth no smaller than
/// the banked one, so the banked clause replays at every shift the new one
/// would) adds no pruning power and is rejected; conversely a new clause
/// drops every banked clause it subsumes, so each banked clause is a
/// maximal-pruning representative.
#[derive(Debug, Clone)]
pub struct ClauseBank {
    clauses: HashMap<Box<[FrameLit]>, u32>,
    cap: usize,
    subsumed: u64,
}

/// `true` when every literal of `sub` occurs in `sup` (both sorted,
/// duplicate-free). The clause `sub` then implies the clause `sup`.
fn lits_subsume(sub: &[FrameLit], sup: &[FrameLit]) -> bool {
    if sub.len() > sup.len() {
        return false;
    }
    let mut it = sup.iter();
    'outer: for lit in sub {
        for candidate in it.by_ref() {
            if candidate == lit {
                continue 'outer;
            }
            if candidate > lit {
                return false;
            }
        }
        return false;
    }
    true
}

impl ClauseBank {
    /// Creates an empty bank holding at most `cap` clauses.
    pub fn new(cap: usize) -> Self {
        ClauseBank {
            clauses: HashMap::new(),
            cap,
            subsumed: 0,
        }
    }

    /// Banked clauses dropped so far because a newly inserted clause
    /// subsumed them.
    pub fn subsumed_drops(&self) -> u64 {
        self.subsumed
    }

    /// Number of banked clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when the bank is empty.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Inserts one clause; returns `true` when it was new (or improved an
    /// existing clause's depth). Full banks reject new entries — pruning
    /// power saturates long before the cap, and a bounded bank keeps
    /// warm-start injection cost predictable.
    ///
    /// The bank is dumb storage: structural validation against the design is
    /// the owner's job ([`KnowledgeBase::absorb`] validates before banking,
    /// [`KnowledgeBase::import`] rejects a store containing anything
    /// malformed).
    pub fn insert(&mut self, clause: &FrameClause) -> bool {
        let mut lits: Vec<FrameLit> = clause.lits.clone();
        lits.sort_by_key(|l| (l.frame, l.net, l.bit, l.negated));
        lits.dedup();
        let key: Box<[FrameLit]> = lits.into_boxed_slice();
        let improved = match self.clauses.get_mut(&key) {
            Some(depth) if clause.depth < *depth => {
                *depth = clause.depth;
                true
            }
            Some(_) => return false,
            None => {
                // A banked clause that subsumes the new one (subset of its
                // literals, replayable at least as widely) makes it
                // redundant.
                if self
                    .clauses
                    .iter()
                    .any(|(banked, depth)| *depth <= clause.depth && lits_subsume(banked, &key))
                {
                    return false;
                }
                false
            }
        };
        // Drop every banked clause the new (or newly deepened) one subsumes
        // — each is weaker (superset of literals) and no more replayable.
        let before = self.clauses.len();
        self.clauses.retain(|banked, depth| {
            **banked == *key || !(clause.depth <= *depth && lits_subsume(&key, banked))
        });
        self.subsumed += (before - self.clauses.len()) as u64;
        if improved {
            return true;
        }
        if self.clauses.len() < self.cap {
            self.clauses.insert(key, clause.depth);
            true
        } else {
            false
        }
    }

    /// Materialises the bank as replayable seed clauses.
    pub fn to_seeds(&self) -> Vec<FrameClause> {
        let mut seeds: Vec<FrameClause> = self
            .clauses
            .iter()
            .map(|(lits, depth)| FrameClause {
                depth: *depth,
                lits: lits.to_vec(),
            })
            .collect();
        // Deterministic injection order regardless of hash-map iteration.
        seeds.sort_by(|a, b| (a.depth, &a.lits).cmp(&(b.depth, &b.lits)));
        seeds
    }
}

/// Aggregate effectiveness counters of one knowledge base.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KnowledgeStats {
    /// Clauses offered by harvests (before deduplication).
    pub clauses_offered: u64,
    /// Clauses actually banked (new or depth-improved).
    pub clauses_banked: u64,
    /// Harvest clauses dropped by structural validation (should be zero for
    /// honest engines; counted rather than trusted).
    pub clauses_rejected: u64,
    /// Races absorbed into this base.
    pub races_absorbed: u64,
}

/// The per-design learning store. See the module docs.
#[derive(Debug, Clone)]
pub struct KnowledgeBase {
    design: DesignHash,
    /// Design-valid frame-relative CDCL clauses for BMC warm starts.
    pub clauses: ClauseBank,
    /// Engine win/loss history for the scheduling predictor.
    pub history: EngineHistory,
    /// Effectiveness counters.
    pub stats: KnowledgeStats,
}

/// Default clause-bank capacity per design.
pub const DEFAULT_CLAUSE_CAP: usize = 1024;

impl KnowledgeBase {
    /// Creates an empty knowledge base bound to `design`.
    pub fn new(design: DesignHash) -> Self {
        KnowledgeBase {
            design,
            clauses: ClauseBank::new(DEFAULT_CLAUSE_CAP),
            history: EngineHistory::new(),
            stats: KnowledgeStats::default(),
        }
    }

    /// The design this base is bound to.
    pub fn design(&self) -> DesignHash {
        self.design
    }

    /// Absorbs one race's harvest, the delta the race learned over its warm
    /// start, by merging it, as [`KnowledgeBase::import`] and a journal
    /// replay do. Harvested clauses are re-validated against the design
    /// structure before banking — an engine bug can at worst drop a clause,
    /// never poison the bank.
    pub fn absorb(&mut self, harvest: &Harvest, netlist: &Netlist) {
        self.stats.races_absorbed += 1;
        for clause in &harvest.clauses {
            self.stats.clauses_offered += 1;
            if !clause.is_well_formed(netlist) {
                self.stats.clauses_rejected += 1;
                continue;
            }
            if self.clauses.insert(clause) {
                self.stats.clauses_banked += 1;
            }
        }
        self.history.record(&harvest.ran, harvest.winner);
    }

    /// Imports a knowledge base (e.g. persisted from an earlier session)
    /// after full validation: the design binding must match and every clause
    /// must be structurally well-formed for `netlist`.
    ///
    /// The clause bank and the engine history cross the trust boundary.
    ///
    /// # Errors
    ///
    /// Returns [`KnowledgeError`] — and leaves `self` untouched — when the
    /// store is bound to a different design or contains a malformed clause.
    pub fn import(
        &mut self,
        other: &KnowledgeBase,
        netlist: &Netlist,
    ) -> Result<(), KnowledgeError> {
        if other.design != self.design {
            return Err(KnowledgeError::DesignMismatch {
                found: other.design,
                expected: self.design,
            });
        }
        let seeds = other.clauses.to_seeds();
        for (index, clause) in seeds.iter().enumerate() {
            if !clause.is_well_formed(netlist) {
                return Err(KnowledgeError::MalformedClause { index });
            }
        }
        for clause in &seeds {
            if self.clauses.insert(clause) {
                self.stats.clauses_banked += 1;
            }
            self.stats.clauses_offered += 1;
        }
        // Engine win/loss history is scheduling pressure only (the predictor
        // always keeps a complete engine), so a persisted history merges —
        // this is what lets a restarted server skip the exploration races.
        self.history.merge(&other.history);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_bv::Bv;
    use wlac_netlist::NetId;

    fn tiny_netlist() -> Netlist {
        let mut nl = Netlist::new("t");
        let a = nl.input("a", 4);
        let b = nl.input("b", 4);
        let s = nl.add(a, b);
        nl.mark_output("s", s);
        nl
    }

    fn lit(frame: u32, net: usize, bit: u32, negated: bool) -> FrameLit {
        FrameLit {
            frame,
            net: NetId::from_index(net),
            bit,
            negated,
        }
    }

    fn clause(depth: u32, lits: Vec<FrameLit>) -> FrameClause {
        FrameClause { depth, lits }
    }

    #[test]
    fn bank_dedups_and_keeps_the_smaller_depth() {
        let mut bank = ClauseBank::new(8);
        let c = clause(3, vec![lit(0, 0, 1, false), lit(1, 1, 0, true)]);
        assert!(bank.insert(&c));
        // Same literals in a different order: a duplicate.
        let shuffled = clause(3, vec![lit(1, 1, 0, true), lit(0, 0, 1, false)]);
        assert!(!bank.insert(&shuffled));
        assert_eq!(bank.len(), 1);
        // Learned again at a smaller depth: the stronger claim wins.
        let earlier = clause(2, vec![lit(0, 0, 1, false), lit(1, 1, 0, true)]);
        assert!(bank.insert(&earlier));
        assert_eq!(bank.to_seeds()[0].depth, 2);
        // A larger depth never weakens the stored claim.
        let later = clause(5, vec![lit(0, 0, 1, false), lit(1, 1, 0, true)]);
        assert!(!bank.insert(&later));
        assert_eq!(bank.to_seeds()[0].depth, 2);
    }

    #[test]
    fn bank_subsumption_drops_weaker_clauses() {
        let mut bank = ClauseBank::new(8);
        // Hand-built pair: the longer clause is banked first, then a shorter
        // clause over a subset of its literals arrives at the same depth.
        let long = clause(2, vec![lit(0, 0, 1, false), lit(1, 1, 0, true)]);
        let short = clause(2, vec![lit(0, 0, 1, false)]);
        assert!(bank.insert(&long));
        assert!(bank.insert(&short));
        // The short clause implies the long one and replays at the same
        // shifts, so only the short one survives.
        assert_eq!(bank.len(), 1);
        assert_eq!(bank.to_seeds(), vec![short.clone()]);
        assert_eq!(bank.subsumed_drops(), 1);

        // Re-offering the long clause is now rejected as redundant.
        assert!(!bank.insert(&long));
        assert_eq!(bank.len(), 1);

        // A superset clause at a *smaller* depth is NOT subsumed: the banked
        // subset cannot be injected into unrollings shallower than its own
        // learn depth, so the wider-replayable clause must be kept.
        let shallow_long = clause(1, vec![lit(0, 0, 1, false), lit(1, 1, 0, true)]);
        assert!(bank.insert(&shallow_long));
        assert_eq!(bank.len(), 2);

        // And a shallow subset sweeps out both: it is stronger than the
        // superset and at least as replayable as everything banked.
        let shallow_short = clause(1, vec![lit(0, 0, 1, false)]);
        assert!(bank.insert(&shallow_short));
        assert_eq!(bank.to_seeds(), vec![shallow_short]);
    }

    #[test]
    fn bank_cap_is_enforced() {
        let mut bank = ClauseBank::new(2);
        for i in 0..5 {
            bank.insert(&clause(1, vec![lit(0, 0, i, false)]));
        }
        assert_eq!(bank.len(), 2);
    }

    #[test]
    fn absorb_rejects_malformed_clauses_quietly() {
        let nl = tiny_netlist();
        let mut kb = KnowledgeBase::new(crate::hash::design_hash(&nl));
        let harvest = Harvest {
            clauses: vec![
                clause(1, vec![lit(0, 0, 1, false)]),  // fine: bit 1 of 4-bit a
                clause(1, vec![lit(0, 99, 0, false)]), // net out of range
                clause(1, vec![lit(0, 0, 9, false)]),  // bit beyond width
                clause(1, vec![lit(5, 0, 0, false)]),  // frame beyond depth
            ],
            winner: None,
            ran: Vec::new(),
        };
        kb.absorb(&harvest, &nl);
        assert_eq!(kb.clauses.len(), 1);
        assert_eq!(kb.stats.clauses_rejected, 3);
        assert_eq!(kb.stats.clauses_banked, 1);
    }

    #[test]
    fn import_rejects_wrong_design_and_poisoned_clauses() {
        let nl = tiny_netlist();
        let hash = crate::hash::design_hash(&nl);
        let mut kb = KnowledgeBase::new(hash);

        // Wrong design binding.
        let mut other_nl = tiny_netlist();
        let extra = other_nl.constant(&Bv::from_u64(4, 7));
        other_nl.mark_output("extra", extra);
        let foreign = KnowledgeBase::new(crate::hash::design_hash(&other_nl));
        assert!(matches!(
            kb.import(&foreign, &nl),
            Err(KnowledgeError::DesignMismatch { .. })
        ));

        // Right binding but a poisoned clause: rejected, nothing imported.
        let mut poisoned = KnowledgeBase::new(hash);
        poisoned
            .clauses
            .insert(&clause(1, vec![lit(0, 99, 0, false)]));
        assert!(matches!(
            kb.import(&poisoned, &nl),
            Err(KnowledgeError::MalformedClause { .. })
        ));
        assert!(kb.clauses.is_empty());

        // A clean store imports.
        let mut clean = KnowledgeBase::new(hash);
        clean.clauses.insert(&clause(1, vec![lit(0, 0, 0, true)]));
        assert!(kb.import(&clean, &nl).is_ok());
        assert_eq!(kb.clauses.len(), 1);
    }
}
