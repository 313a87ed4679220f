//! `token_ring` — clients sharing a bus through a rotating token.
//!
//! A one-hot token register rotates by one position per cycle; client `i`
//! drives the bus exactly when it holds the token and asserts its request.
//! Each client also carries a small amount of private state (a data register
//! updated while granted), which brings the flip-flop count close to the
//! paper's Table 1 row.
//!
//! Properties:
//! * **p3** — the bus-selecting (grant) signals are one-hot at all times,
//! * **p4** — a client can access the bus after waiting a number of periods
//!   (witness: the last client eventually gets the grant).

use wlac_atpg::property::{monitor, Property, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};

/// Configuration of the token-ring generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenRingConfig {
    /// Number of clients on the ring.
    pub clients: usize,
    /// Width of each client's private data register.
    pub data_width: usize,
}

impl TokenRingConfig {
    /// Configuration approximating the paper's Table 1 row (536 FFs, 518
    /// inputs): 64 clients with 8-bit request/data interfaces.
    pub fn paper() -> Self {
        TokenRingConfig {
            clients: 64,
            data_width: 8,
        }
    }

    /// Reduced configuration for fast unit tests.
    pub fn small() -> Self {
        TokenRingConfig {
            clients: 4,
            data_width: 4,
        }
    }
}

/// The generated token ring.
#[derive(Debug, Clone)]
pub struct TokenRing {
    /// The synthesised design.
    pub netlist: Netlist,
    /// Per-client request inputs.
    pub requests: Vec<NetId>,
    /// Per-client grant (bus-select) outputs.
    pub grants: Vec<NetId>,
    /// Per-client token-register bits.
    pub token_bits: Vec<NetId>,
}

impl TokenRing {
    /// Builds the ring.
    pub fn new(config: TokenRingConfig) -> Self {
        let mut nl = Netlist::new("token_ring");
        nl.set_source_lines(157);
        let n = config.clients.max(2);
        // One-hot token register, initialised with the token at client 0.
        let mut token_bits = Vec::with_capacity(n);
        let mut token_ffs = Vec::with_capacity(n);
        for i in 0..n {
            let init = Bv::from_u64(1, (i == 0) as u64);
            let (q, ff) = nl.dff_deferred(1, Some(init));
            token_bits.push(q);
            token_ffs.push(ff);
            nl.mark_output(format!("token{i}"), q);
        }
        // The token rotates unconditionally: token'[i] = token[i-1].
        for i in 0..n {
            let prev = token_bits[(i + n - 1) % n];
            let next = nl.buf(prev);
            nl.connect_dff_data(token_ffs[i], next);
        }
        let mut requests = Vec::with_capacity(n);
        let mut grants = Vec::with_capacity(n);
        for (i, token_bit) in token_bits.iter().enumerate().take(n) {
            let req = nl.input(format!("req{i}"), 1);
            let data_in = nl.input(format!("data{i}"), config.data_width);
            let grant = nl.and2(*token_bit, req);
            nl.mark_output(format!("grant{i}"), grant);
            // Private data register captured while granted.
            let (q, ff) = nl.dff_deferred(config.data_width, Some(Bv::zero(config.data_width)));
            let next = nl.mux(grant, data_in, q);
            nl.connect_dff_data(ff, next);
            nl.mark_output(format!("latched{i}"), q);
            requests.push(req);
            grants.push(grant);
        }
        TokenRing {
            netlist: nl,
            requests,
            grants,
            token_bits,
        }
    }

    /// p3: the grant signals are always at most one-hot.
    pub fn p3_grants_one_hot(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let ok = monitor::at_most_one_hot(&mut nl, &self.grants);
        let property = Property::always(&nl, "p3", ok);
        Verification::new(nl, property)
    }

    /// p4: the last client eventually receives a grant (after waiting for the
    /// token to travel around the ring).
    pub fn p4_client_eventually_granted(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let last = *self.grants.last().expect("at least one client");
        let one = nl.constant_bit(true);
        let granted = nl.eq(last, one);
        let property = Property::eventually(&nl, "p4", granted);
        Verification::new(nl, property)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::{AssertionChecker, CheckerOptions, Verdict};

    #[test]
    fn statistics_match_paper_shape() {
        let ring = TokenRing::new(TokenRingConfig::paper());
        let stats = ring.netlist.stats();
        assert_eq!(stats.flip_flop_bits, 64 + 64 * 8);
        assert_eq!(stats.inputs, 64 + 64 * 8);
        assert!(stats.gates > 150);
    }

    #[test]
    fn p3_one_hot_grants_hold() {
        let ring = TokenRing::new(TokenRingConfig::small());
        let options = CheckerOptions {
            max_frames: 6,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&ring.p3_grants_one_hot());
        assert!(report.result.is_pass(), "got {:?}", report.result);
    }

    #[test]
    fn p4_last_client_granted_after_full_rotation() {
        let ring = TokenRing::new(TokenRingConfig::small());
        let options = CheckerOptions {
            max_frames: 8,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&ring.p4_client_eventually_granted());
        match report.result {
            Verdict::WitnessFound { trace } => {
                // The token starts at client 0 and needs clients-1 steps to
                // reach the last client.
                assert_eq!(trace.len(), TokenRingConfig::small().clients);
            }
            other => panic!("expected witness, got {other:?}"),
        }
    }
}
