//! `addr_decoder` — a memory address decoder with a small register file.
//!
//! Reproduces the public benchmark of the paper's Table 1 (7 inputs, 64
//! decoded select outputs, 86 flip-flop bits): a 6-bit address is decoded
//! into 64 one-hot select lines; ten 8-bit memory cells latch a data pattern
//! when written; the registered address accounts for the remaining state
//! bits.
//!
//! Properties:
//! * **p1** — a selected memory cell can be written successfully (witness),
//! * **p2** — it is impossible for two address select lines to be active at
//!   the same time (safety).

use wlac_atpg::property::{monitor, Property, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};

/// Configuration of the address decoder generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrDecoderConfig {
    /// Number of address bits (the decoder produces `2^addr_bits` selects).
    pub addr_bits: usize,
    /// Number of registered memory cells (each `cell_width` bits wide).
    pub cells: usize,
    /// Width of each memory cell.
    pub cell_width: usize,
}

impl AddrDecoderConfig {
    /// The configuration approximating the paper's Table 1 row
    /// (64 selects, 86 flip-flop bits, 7 input bits).
    pub fn paper() -> Self {
        AddrDecoderConfig {
            addr_bits: 6,
            cells: 10,
            cell_width: 8,
        }
    }

    /// A reduced configuration for fast unit tests.
    pub fn small() -> Self {
        AddrDecoderConfig {
            addr_bits: 3,
            cells: 2,
            cell_width: 4,
        }
    }
}

/// The generated decoder and the nets needed to phrase its properties.
#[derive(Debug, Clone)]
pub struct AddrDecoder {
    /// The synthesised design.
    pub netlist: Netlist,
    /// Address input.
    pub addr: NetId,
    /// Write-enable input.
    pub write_enable: NetId,
    /// Decoded select lines (one per address).
    pub selects: Vec<NetId>,
    /// Memory cell outputs.
    pub cells: Vec<NetId>,
    configuration: AddrDecoderConfig,
}

impl AddrDecoder {
    /// Builds the decoder.
    pub fn new(config: AddrDecoderConfig) -> Self {
        let mut nl = Netlist::new("addr_decoder");
        nl.set_source_lines(52);
        let addr = nl.input("addr", config.addr_bits);
        let write_enable = nl.input("we", 1);
        let num_selects = 1usize << config.addr_bits;
        let mut selects = Vec::with_capacity(num_selects);
        for i in 0..num_selects {
            let value = nl.constant(&Bv::from_u64(config.addr_bits, i as u64));
            let hit = nl.eq(addr, value);
            selects.push(hit);
            nl.mark_output(format!("sel{i}"), hit);
        }
        // The data written into a cell is derived from the address (the
        // original design writes a data bus; deriving it keeps the Table 1
        // input count at 7 while still exercising the datapath).
        let data = nl.zext(addr, config.cell_width);
        let pattern = nl.not(data);
        let mut cells = Vec::with_capacity(config.cells);
        // Registered address (adds addr_bits state bits as in the original).
        let addr_reg = nl.dff(addr, Some(Bv::zero(config.addr_bits)));
        nl.mark_output("addr_reg", addr_reg);
        for i in 0..config.cells {
            let (q, ff) = nl.dff_deferred(config.cell_width, Some(Bv::zero(config.cell_width)));
            let write_this = nl.and2(write_enable, selects[i % num_selects]);
            let next = nl.mux(write_this, pattern, q);
            nl.connect_dff_data(ff, next);
            cells.push(q);
            nl.mark_output(format!("cell{i}"), q);
        }
        AddrDecoder {
            netlist: nl,
            addr,
            write_enable,
            selects,
            cells,
            configuration: config,
        }
    }

    /// The configuration the decoder was generated with.
    pub fn configuration(&self) -> AddrDecoderConfig {
        self.configuration
    }

    /// p1: the first memory cell can be written with the expected pattern.
    pub fn p1_cell_writable(&self) -> Verification {
        let mut nl = self.netlist.clone();
        // Cell 0 is written with ~zext(addr) when addr == 0 and we == 1, so
        // the expected stored pattern is all-ones.
        let expected = Bv::ones(self.configuration.cell_width);
        let reaches = monitor::reaches_value(&mut nl, self.cells[0], &expected);
        let property = Property::eventually(&nl, "p1", reaches);
        Verification::new(nl, property)
    }

    /// p2: no two select lines are ever active simultaneously.
    pub fn p2_selects_mutually_exclusive(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let ok = monitor::at_most_one_hot(&mut nl, &self.selects);
        let property = Property::always(&nl, "p2", ok);
        Verification::new(nl, property)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::{AssertionChecker, CheckerOptions, Verdict};

    #[test]
    fn statistics_match_paper_shape() {
        let decoder = AddrDecoder::new(AddrDecoderConfig::paper());
        let stats = decoder.netlist.stats();
        assert_eq!(stats.inputs, 7);
        assert_eq!(stats.flip_flop_bits, 86);
        assert!(stats.outputs >= 64);
        assert!(stats.gates > 100);
    }

    #[test]
    fn p2_holds_on_small_configuration() {
        let decoder = AddrDecoder::new(AddrDecoderConfig::small());
        let report =
            AssertionChecker::with_defaults().check(&decoder.p2_selects_mutually_exclusive());
        assert!(report.result.is_pass(), "got {:?}", report.result);
    }

    #[test]
    fn p1_witness_found_on_small_configuration() {
        let decoder = AddrDecoder::new(AddrDecoderConfig::small());
        let options = CheckerOptions {
            max_frames: 4,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&decoder.p1_cell_writable());
        assert!(
            matches!(report.result, Verdict::WitnessFound { .. }),
            "got {:?}",
            report.result
        );
    }
}
