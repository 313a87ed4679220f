//! Reusable ATPG search knowledge.
//!
//! Everything the word-level ATPG engine learns about a *design* — as opposed
//! to one particular property — is bundled in [`SearchKnowledge`] so a
//! long-lived verification session can carry it across property checks:
//!
//! * the [`Estg`] conflict-cube history (which decision assignments keep
//!   participating in illegal abstract transitions) only influences decision
//!   *ordering*, so sharing it across properties is unconditionally sound and
//!   steers later searches away from historically dead branches;
//! * the [`DatapathFacts`] store memoises modular-solver infeasibility proofs
//!   keyed by the full solve input, letting warm-started searches refute
//!   repeated island configurations without re-running the solver.
//!
//! Both stores are keyed by nets of the deterministic frame-major time-frame
//! expansion, so they are only meaningful for checks against a structurally
//! identical netlist — a knowledge base must be bound to a design identity
//! (e.g. a structural hash) by its owner and rejected on mismatch.

use crate::datapath::DatapathFacts;
use crate::estg::Estg;

/// Design-level knowledge accumulated by (and seedable into) the ATPG
/// checker. See the module docs for the soundness contract of each part.
#[derive(Debug, Clone, Default)]
pub struct SearchKnowledge {
    /// Conflict-cube history guiding decision ordering.
    pub estg: Estg,
    /// Memoised modular-solver infeasibility proofs.
    pub datapath_facts: DatapathFacts,
}

impl SearchKnowledge {
    /// Creates an empty knowledge bundle.
    pub fn new() -> Self {
        SearchKnowledge::default()
    }

    /// Merges another bundle (e.g. the knowledge harvested by a finished
    /// check) into this one.
    pub fn merge(&mut self, other: &SearchKnowledge) {
        self.estg.merge(&other.estg);
        self.datapath_facts.merge(&other.datapath_facts);
    }

    /// What this bundle learned over `seed`, the bundle it was cloned from:
    /// the ESTG conflicts counted above the seed's counts, and the datapath
    /// facts the seed lacks. A warm-started check reports this delta, so
    /// every owner merges it with [`SearchKnowledge::merge`] and none
    /// re-adds the seed.
    pub fn learned_since(self, seed: &SearchKnowledge) -> SearchKnowledge {
        SearchKnowledge {
            estg: self.estg.learned_since(&seed.estg),
            datapath_facts: self.datapath_facts.learned_since(&seed.datapath_facts),
        }
    }

    /// Approximate number of bytes held by the bundle.
    pub fn memory_bytes(&self) -> usize {
        self.estg.memory_bytes() + self.datapath_facts.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_netlist::NetId;

    #[test]
    fn merge_accumulates_both_stores() {
        let mut a = SearchKnowledge::new();
        let mut b = SearchKnowledge::new();
        b.estg.record_conflict(NetId::from_index(2), true);
        b.estg.record_conflict(NetId::from_index(2), true);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.estg.conflict_count(NetId::from_index(2), true), 4);
        assert_eq!(a.estg.recorded(), 4);
        assert!(a.datapath_facts.is_empty());
        assert!(a.memory_bytes() > 0);
    }

    #[test]
    fn learned_since_keeps_only_what_grew_over_the_seed() {
        let (seen, fresh) = (NetId::from_index(2), NetId::from_index(5));
        let mut seed = SearchKnowledge::new();
        seed.estg.record_conflicts(seen, true, 3);
        seed.estg.record_conflict(seen, false);
        let mut grown = seed.clone();
        grown.estg.record_conflicts(seen, true, 2);
        grown.estg.record_conflict(fresh, false);
        let learned = grown.learned_since(&seed);
        let mut entries: Vec<_> = learned.estg.entries().collect();
        entries.sort();
        assert_eq!(entries, [((seen, true), 2), ((fresh, false), 1)]);
        assert_eq!(learned.estg.recorded(), 3);
        // Seed plus delta is the grown bundle again.
        seed.merge(&learned);
        assert_eq!(seed.estg.conflict_count(seen, true), 5);
        assert_eq!(seed.estg.recorded(), 7);
        assert!(seed.clone().learned_since(&seed).estg.is_empty());
    }
}
