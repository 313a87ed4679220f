//! # WLAC — word-level ATPG + modular arithmetic assertion checking
//!
//! A reproduction of Huang & Cheng, *"Assertion Checking by Combined
//! Word-level ATPG and Modular Arithmetic Constraint-Solving Techniques"*
//! (DAC 2000), as a Rust library.
//!
//! This façade crate re-exports the workspace crates under stable module
//! names:
//!
//! * [`bv`] — three-valued bit-vector cubes and ranges,
//! * [`netlist`] — word-level RTL netlists and time-frame expansion,
//! * [`frontend`] — the Verilog-subset parser/elaborator,
//! * [`modsolve`] — modular (mod 2ⁿ) arithmetic constraint solving,
//! * [`sim`] — concrete simulation,
//! * [`atpg`] — the assertion checker itself (word-level implication,
//!   justification, ESTG, datapath resolution) and the [`atpg::Verdict`]
//!   every engine answers with,
//! * [`circuits`] — the paper's benchmark designs and properties p1–p14,
//! * [`baselines`] — SAT BMC, integral solving and random simulation,
//! * [`portfolio`] — concurrent multi-strategy racing and batch checking
//!   across the ATPG, SAT BMC and random-simulation engines,
//! * [`service`] — persistent verification sessions: a design registry, a
//!   per-design learning store (replayed SAT BMC clauses and the engine
//!   win/loss history; each ATPG check keeps its ESTG to itself) and a
//!   `submit_batch`/`batch_progress`/`results` work-queue front door with a
//!   bounded (LRU) verdict cache,
//! * [`persist`] — versioned, checksummed on-disk snapshots of a design's
//!   knowledge base and verdict cache, written atomically, and the
//!   per-design write-ahead journal they compact,
//! * [`server`] — the TCP front end: line-delimited JSON protocol, a
//!   journal per design with snapshot compaction and restart-warm boot,
//!   plus the `wlac-server` and `wlac-client` binaries.
//!
//! # Quickstart
//!
//! ```
//! use wlac::atpg::{AssertionChecker, Property, Verdict, Verification};
//! use wlac::bv::Bv;
//! use wlac::netlist::Netlist;
//!
//! // A saturating down-counter must never underflow below zero.
//! let mut nl = Netlist::new("down_counter");
//! let (q, ff) = nl.dff_deferred(8, Some(Bv::from_u64(8, 200)));
//! let zero = nl.constant(&Bv::zero(8));
//! let one = nl.constant(&Bv::from_u64(8, 1));
//! let at_zero = nl.eq(q, zero);
//! let minus = nl.sub(q, one);
//! let next = nl.mux(at_zero, zero, minus);
//! nl.connect_dff_data(ff, next);
//! let limit = nl.constant(&Bv::from_u64(8, 201));
//! let ok = nl.lt(q, limit);
//!
//! let property = Property::always(&nl, "no_overflow", ok);
//! let report = AssertionChecker::with_defaults().check(&Verification::new(nl, property));
//! assert!(matches!(report.result, Verdict::Holds { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wlac_atpg as atpg;
pub use wlac_baselines as baselines;
pub use wlac_bv as bv;
pub use wlac_circuits as circuits;
pub use wlac_frontend as frontend;
pub use wlac_modsolve as modsolve;
pub use wlac_netlist as netlist;
pub use wlac_persist as persist;
pub use wlac_portfolio as portfolio;
pub use wlac_server as server;
pub use wlac_service as service;
pub use wlac_sim as sim;
pub use wlac_telemetry as telemetry;
