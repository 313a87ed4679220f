//! Extended state transition graph (ESTG) learning.
//!
//! The paper records abstract state transitions that lead to conflicts or to
//! hard-to-reach states in an extended state transition graph and reuses the
//! information in later ATPG runs to guide the search. This implementation
//! keeps a conflict score per decision assignment (a lightweight abstraction
//! of the same idea): assignments that repeatedly participate in conflicting
//! abstract transitions are tried later and with their historically less
//! conflicting value first. The structure only influences decision *ordering*
//! — it never prunes branches — so completeness of the search is unaffected.

use std::collections::HashMap;
use wlac_netlist::NetId;

/// Conflict-history store used to order decisions.
#[derive(Debug, Clone, Default)]
pub struct Estg {
    conflicts: HashMap<(NetId, bool), u64>,
    recorded: u64,
}

impl Estg {
    /// Creates an empty store.
    pub fn new() -> Self {
        Estg::default()
    }

    /// Records that assigning `value` to `net` participated in a conflicting
    /// (illegal) abstract transition.
    pub fn record_conflict(&mut self, net: NetId, value: bool) {
        *self.conflicts.entry((net, value)).or_insert(0) += 1;
        self.recorded += 1;
    }

    /// Accumulates `count` conflicts against one assignment in one step
    /// (saturating). Used to rebuild a store from its [`Estg::entries`]
    /// serialization; counts only shape decision ordering, so a wrong count
    /// can never make the search unsound.
    pub fn record_conflicts(&mut self, net: NetId, value: bool, count: u64) {
        let entry = self.conflicts.entry((net, value)).or_insert(0);
        *entry = entry.saturating_add(count);
        self.recorded = self.recorded.saturating_add(count);
    }

    /// Number of conflicts recorded against assigning `value` to `net`.
    pub fn conflict_count(&self, net: NetId, value: bool) -> u64 {
        self.conflicts.get(&(net, value)).copied().unwrap_or(0)
    }

    /// Total number of recorded conflicting transitions.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Ordering penalty for a candidate decision: decisions whose historically
    /// conflicting value would be tried first are penalised.
    pub fn penalty(&self, net: NetId, value: bool) -> f64 {
        self.conflict_count(net, value) as f64
    }

    /// Approximate number of bytes held by the store.
    pub fn memory_bytes(&self) -> usize {
        self.conflicts.len() * 32 + 32
    }

    /// Number of distinct `(net, value)` assignments with recorded conflicts.
    pub fn len(&self) -> usize {
        self.conflicts.len()
    }

    /// `true` when no conflicts have been recorded.
    pub fn is_empty(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Iterates over the recorded conflict cubes as `((net, value), count)`.
    pub fn entries(&self) -> impl Iterator<Item = ((NetId, bool), u64)> + '_ {
        self.conflicts.iter().map(|(k, v)| (*k, *v))
    }

    /// Merges another store's conflict history into this one (used by the
    /// cross-property knowledge base to accumulate ATPG conflict cubes across
    /// runs on the same design). The store only ever influences decision
    /// *ordering*, so merging histories from different properties of the same
    /// design is always sound. Counts saturate instead of overflowing — at
    /// that magnitude they are pure ordering pressure anyway.
    pub fn merge(&mut self, other: &Estg) {
        for (key, count) in other.entries() {
            let entry = self.conflicts.entry(key).or_insert(0);
            *entry = entry.saturating_add(count);
        }
        self.recorded = self.recorded.saturating_add(other.recorded);
    }

    /// The conflicts this store holds above `seed`, the store it grew from:
    /// per assignment, the count above the seed's count. Merging the result
    /// back into `seed` gives this store again.
    pub(crate) fn learned_since(self, seed: &Estg) -> Estg {
        let mut learned = Estg::new();
        for ((net, value), count) in self.conflicts {
            let added = count.saturating_sub(seed.conflict_count(net, value));
            if added > 0 {
                learned.record_conflicts(net, value, added);
            }
        }
        learned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_penalises() {
        let mut estg = Estg::new();
        let net = NetId::from_index(3);
        assert_eq!(estg.conflict_count(net, true), 0);
        estg.record_conflict(net, true);
        estg.record_conflict(net, true);
        estg.record_conflict(net, false);
        assert_eq!(estg.conflict_count(net, true), 2);
        assert_eq!(estg.conflict_count(net, false), 1);
        assert_eq!(estg.recorded(), 3);
        assert!(estg.penalty(net, true) > estg.penalty(net, false));
        assert!(estg.memory_bytes() > 0);
    }
}
