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
//!
//! One store lives for one property check: the checker shares it across the
//! searches of its bounds and its induction step, and drops it with the
//! check.

use std::collections::HashMap;
use wlac_netlist::NetId;

/// Conflict-history store used to order decisions.
#[derive(Debug, Clone, Default)]
pub struct Estg {
    conflicts: HashMap<(NetId, bool), u64>,
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
    }

    /// Number of conflicts recorded against assigning `value` to `net`.
    pub fn conflict_count(&self, net: NetId, value: bool) -> u64 {
        self.conflicts.get(&(net, value)).copied().unwrap_or(0)
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
        assert!(estg.penalty(net, true) > estg.penalty(net, false));
        assert!(estg.memory_bytes() > 0);
    }
}
