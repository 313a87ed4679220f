//! # wlac-atpg — word-level ATPG + modular arithmetic assertion checking
//!
//! This crate is the core of WLAC, a reproduction of Huang & Cheng,
//! *"Assertion Checking by Combined Word-level ATPG and Modular Arithmetic
//! Constraint-Solving Techniques"* (DAC 2000).
//!
//! Given an RTL design as a word-level netlist ([`wlac_netlist::Netlist`]),
//! an assertion is compiled to a single-bit monitor ([`Property`], helpers in
//! [`property::monitor`]) and checked by [`AssertionChecker`]:
//!
//! 1. the design is expanded over time-frames,
//! 2. the inverted assertion, the environment constraints and the initial
//!    state become word-level value requirements,
//! 3. word-level implication and a branch-and-bound justification restricted
//!    to control signals solve the Boolean part of the constraints,
//! 4. residual datapath constraints go to the modular arithmetic solver
//!    ([`wlac_modsolve`]); a residue it can neither solve nor refute is
//!    split one datapath bit at a time, most significant bit first,
//! 5. a satisfying assignment is turned into a concrete [`Trace`] and
//!    validated by simulation; exhaustion of the search space proves the
//!    assertion (up to the bound, or outright via 1-step induction).
//!
//! Steps 1, 2 and 5 are the bounded problem every engine shares:
//! [`check_bounds`] is the bound loop, a [`Query`] holds one query's
//! requirements and trace extractor, and [`validated_verdict`] is the trace
//! validator. The checker supplies the search of steps 3 and 4 as its solve
//! step; the SAT BMC baseline supplies bit-blasting and CDCL, so both close
//! the same induction step.
//!
//! The answer is a [`Verdict`], the vocabulary every engine of the workspace
//! reports in (the SAT BMC and random-simulation baselines and the portfolio
//! that races them build the same type).
//!
//! # Examples
//!
//! ```
//! use wlac_atpg::{AssertionChecker, Property, Verdict, Verification};
//! use wlac_bv::Bv;
//! use wlac_netlist::Netlist;
//!
//! // A 4-bit counter that wraps from 9 back to 0; assert it never reaches 12.
//! let mut nl = Netlist::new("dec_counter");
//! let (q, ff) = nl.dff_deferred(4, Some(Bv::zero(4)));
//! let one = nl.constant(&Bv::from_u64(4, 1));
//! let plus = nl.add(q, one);
//! let nine = nl.constant(&Bv::from_u64(4, 9));
//! let wrap = nl.eq(q, nine);
//! let zero = nl.constant(&Bv::zero(4));
//! let next = nl.mux(wrap, zero, plus);
//! nl.connect_dff_data(ff, next);
//! let twelve = nl.constant(&Bv::from_u64(4, 12));
//! let ok = nl.ne(q, twelve);
//!
//! let property = Property::always(&nl, "never_12", ok);
//! let report = AssertionChecker::with_defaults().check(&Verification::new(nl, property));
//! assert!(matches!(report.result, Verdict::Holds { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
mod bounded;
mod checker;
mod config;
mod datapath;
mod estg;
mod implication;
mod justify;
mod knowledge;
mod search;
mod stats;
mod trace;
mod verdict;

pub mod property;

pub use assignment::Conflict;
pub use bounded::{check_bounds, validated_verdict, Query, QueryAnswer};
pub use checker::{AssertionChecker, CheckReport};
pub use config::{CancelToken, CheckerOptions, TraceSink};
pub use datapath::DatapathFacts;
pub use estg::Estg;
pub use implication::{ImplicationEngine, ImplicationStats};
pub use knowledge::SearchKnowledge;
pub use property::{Property, PropertyKind, Verification};
pub use search::{SearchContext, SearchGoal, SearchOutcome};
pub use stats::{CheckStats, PhaseNanos};
pub use trace::Trace;
pub use verdict::Verdict;
pub use wlac_faultinject::{FaultPlan, FaultSite};
