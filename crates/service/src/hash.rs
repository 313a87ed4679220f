//! Structural identity of designs, properties and configurations.
//!
//! A cached verdict is only valid for a *structurally identical* netlist: it
//! names the design's monitors and trace nets. [`design_hash`] fingerprints
//! exactly the structure the cache depends on — net widths, gate
//! kinds/pins/outputs, primary inputs and outputs — so a store bound to a
//! hash can be safely rejected when presented with any other design. Gate kinds hash as [`GateKind::tag`], the
//! numbering the on-disk formats use too.

use std::fmt;
use wlac_atpg::Property;
use wlac_netlist::{GateKind, NetId, Netlist};
use wlac_portfolio::{PortfolioConfig, RANDOM_SEED};

/// 64-bit FNV-1a, the workspace-standard offline hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub(crate) fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    pub(crate) fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// Structural fingerprint of a design. Two netlists with the same hash are
/// treated as the same design by the registry and share cached verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DesignHash(pub u64);

impl fmt::Display for DesignHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{:016x}", self.0)
    }
}

/// Fingerprint of a property (monitor, temporal kind, environment) *within*
/// a particular design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PropertyHash(pub u64);

impl fmt::Display for PropertyHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{:016x}", self.0)
    }
}

fn hash_gate_kind(h: &mut Fnv, kind: &GateKind) {
    // The kind's stable tag plus every semantic payload bit.
    h.byte(kind.tag());
    match kind {
        GateKind::Const(v) => {
            h.usize(v.width());
            for bit in 0..v.width() {
                h.byte(v.bit(bit) as u8);
            }
        }
        GateKind::Slice { lo } => h.usize(*lo),
        GateKind::Dff { init } => match init {
            None => h.byte(0),
            Some(v) => {
                h.byte(1);
                h.usize(v.width());
                for bit in 0..v.width() {
                    h.byte(v.bit(bit) as u8);
                }
            }
        },
        _ => {}
    }
}

/// Structural hash of a netlist: net widths, gates (kind, pins, output),
/// primary inputs and outputs. Names are deliberately excluded — they do not
/// affect checking semantics.
pub fn design_hash(netlist: &Netlist) -> DesignHash {
    let mut h = Fnv::new();
    h.usize(netlist.net_count());
    for net in netlist.nets() {
        h.usize(netlist.net_width(net));
    }
    h.usize(netlist.gate_count());
    for (_, gate) in netlist.gates() {
        hash_gate_kind(&mut h, &gate.kind);
        h.usize(gate.inputs.len());
        for input in gate.inputs.iter() {
            h.usize(input.index());
        }
        h.usize(gate.output.index());
    }
    h.usize(netlist.inputs().len());
    for input in netlist.inputs() {
        h.usize(input.index());
    }
    h.usize(netlist.outputs().len());
    for (_, net) in netlist.outputs() {
        h.usize(net.index());
    }
    DesignHash(h.finish())
}

/// Hash of the property-specific part of a verification job: the monitor
/// net, the temporal kind and the environment constraints (the design itself
/// is keyed separately by [`design_hash`]).
pub fn property_hash(property: &Property, environment: &[NetId]) -> PropertyHash {
    let mut h = Fnv::new();
    h.byte(match property.kind {
        wlac_atpg::PropertyKind::Always => 0,
        wlac_atpg::PropertyKind::Eventually => 1,
    });
    h.usize(property.monitor.index());
    h.usize(environment.len());
    for env in environment {
        h.usize(env.index());
    }
    PropertyHash(h.finish())
}

/// Fingerprint of the verdict-affecting parts of a portfolio configuration.
/// Two jobs may share a cached verdict only when this matches: the bound,
/// induction, budgets and random-simulation parameters all shape what a
/// verdict can say.
pub fn config_fingerprint(config: &PortfolioConfig) -> u64 {
    let mut h = Fnv::new();
    h.usize(config.checker.max_frames);
    h.byte(config.checker.use_induction as u8);
    h.byte(config.checker.use_arithmetic_solver as u8);
    h.usize(config.checker.backtrack_limit);
    h.usize(config.checker.decision_limit);
    h.u64(config.checker.time_limit.as_millis() as u64);
    h.u64(config.bmc_decision_budget);
    h.usize(config.random_runs);
    h.usize(config.random_cycles);
    h.u64(RANDOM_SEED);
    // The job budget bounds what a race can conclude (like the per-engine
    // time limit above): a verdict earned under one budget must not answer
    // a query made under another.
    h.u64(
        config
            .job_budget
            .map(|b| b.as_millis() as u64)
            .unwrap_or(u64::MAX),
    );
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_bv::Bv;

    fn counter(wrap: u64) -> Netlist {
        let mut nl = Netlist::new("counter");
        let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
        let one = nl.constant(&Bv::from_u64(4, 1));
        let plus = nl.add(q, one);
        let wrap_net = nl.constant(&Bv::from_u64(4, wrap));
        let at_wrap = nl.eq(q, wrap_net);
        let zero = nl.constant(&Bv::zero(4));
        let next = nl.mux(at_wrap, zero, plus);
        nl.connect_dff_data(ff, next);
        nl.mark_output("q", q);
        nl
    }

    /// A netlist with every payload kind (`Const`, `Slice`, `Dff` with and
    /// without an initial value) and payload-free kinds around them.
    fn payload_kinds() -> Netlist {
        let mut nl = Netlist::new("payloads");
        let a = nl.input("a", 8);
        let (q, ff) = nl.dff_deferred(8, Some(Bv::from_u64(8, 0xa5)));
        let free = nl.dff(a, None);
        let five = nl.constant(&Bv::from_u64(8, 5));
        let sum = nl.add(q, five);
        let high = nl.slice(sum, 4, 4);
        let low = nl.slice(free, 0, 4);
        let next = nl.concat(high, low);
        nl.connect_dff_data(ff, next);
        let wide = nl.zext(high, 8);
        let ok = nl.lt(wide, q);
        nl.mark_output("ok", ok);
        nl
    }

    #[test]
    fn design_hash_is_pinned() {
        // Design hashes name snapshot and journal files and key every cache
        // entry: a netlist with all three payload kinds must keep the hash
        // it had when the design hash held its own gate-kind numbering.
        assert_eq!(
            design_hash(&payload_kinds()),
            DesignHash(0x146d_7cf2_edc6_e12f)
        );
    }

    #[test]
    fn identical_structure_hashes_identically() {
        assert_eq!(design_hash(&counter(5)), design_hash(&counter(5)));
        // A different constant is a different design.
        assert_ne!(design_hash(&counter(5)), design_hash(&counter(6)));
    }

    #[test]
    fn names_do_not_affect_the_hash() {
        // Same structure under different design/net names hashes identically.
        let mut a = Netlist::new("first");
        let x = a.input("x", 4);
        let y = a.input("y", 4);
        let sum = a.add(x, y);
        a.mark_output("sum", sum);
        let mut b = Netlist::new("second");
        let p = b.input("p", 4);
        let q = b.input("q", 4);
        let total = b.add(p, q);
        b.mark_output("total", total);
        assert_eq!(design_hash(&a), design_hash(&b));
    }

    #[test]
    fn property_hash_distinguishes_kind_and_monitor() {
        let mut nl = counter(5);
        let q = nl.outputs()[0].1;
        let three = nl.constant(&Bv::from_u64(4, 3));
        let m1 = nl.eq(q, three);
        let m2 = nl.ne(q, three);
        let always = property_hash(&Property::always(&nl, "a", m1), &[]);
        assert_ne!(always, property_hash(&Property::always(&nl, "b", m2), &[]));
        assert_ne!(
            always,
            property_hash(&Property::eventually(&nl, "c", m1), &[])
        );
        assert_ne!(
            always,
            property_hash(&Property::always(&nl, "d", m1), &[m2])
        );
        // The name is a label, not part of the key.
        assert_eq!(always, property_hash(&Property::always(&nl, "e", m1), &[]));
    }

    #[test]
    fn property_hash_is_pinned() {
        // Cache keys live in snapshots and journals: these values were
        // produced when `property_hash` still took a whole `Verification`,
        // and records written then must still resolve.
        let mut nl = counter(5);
        let q = nl.outputs()[0].1;
        let three = nl.constant(&Bv::from_u64(4, 3));
        let m1 = nl.eq(q, three);
        let m2 = nl.ne(q, three);
        assert_eq!(
            property_hash(&Property::always(&nl, "a", m1), &[m2]),
            PropertyHash(0x815f_4c3a_1227_191d)
        );
        assert_eq!(
            property_hash(&Property::eventually(&nl, "b", m2), &[]),
            PropertyHash(0x252e_8656_f2a0_cfa6)
        );
    }

    #[test]
    fn config_fingerprint_is_pinned() {
        // Cache keys live in snapshots and journals: this value was produced
        // while the random-simulation seed was still a configuration field,
        // and records written then must still resolve.
        assert_eq!(
            config_fingerprint(&PortfolioConfig::default()),
            0x8e61_f791_851d_5e0a
        );
    }

    #[test]
    fn config_fingerprint_tracks_the_bound() {
        let a = PortfolioConfig::default();
        let mut b = PortfolioConfig::default();
        b.checker.max_frames += 1;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&b));
        assert_eq!(config_fingerprint(&a), config_fingerprint(&a.clone()));
    }
}
