//! # wlac-baselines — comparison baselines for the WLAC checker
//!
//! Self-contained implementations of the techniques the paper positions its
//! word-level ATPG + modular arithmetic approach against:
//!
//! * [`bounded_model_check`] — SAT-based bounded model checking over a
//!   bit-blasted (Tseitin) encoding of the design, in the style of Biere et
//!   al. \[13\], plus the one-step induction step the ATPG checker closes:
//!   both engines run the bound loop of [`wlac_atpg::check_bounds`]. Backed
//!   by the small CDCL solver in [`Cnf`]; every run is cold,
//! * [`IntegralLinearSystem`] — integral (non-modular) linear constraint
//!   solving, which exhibits the "false negative effect" on wrap-around
//!   solutions that the modular solver avoids,
//! * [`random_simulation`] — the random test-bench straw man from the
//!   paper's introduction.
//!
//! The BMC and simulation engines report a [`wlac_atpg::Verdict`], like the
//! ATPG checker, so the reports are directly comparable. These are used by
//! the `wlac-bench` harness to regenerate the paper's qualitative
//! comparisons (memory efficiency, scalability, false-negative avoidance).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitblast;
mod integral;
mod random_sim;
mod sat;

pub use bitblast::{
    bounded_model_check, bounded_model_check_learning, BitBlaster, BmcReport, FrameClause,
    FrameLit, UnsupportedGateError,
};
pub use integral::{IntegralLinearSystem, IntegralOutcome};
pub use random_sim::{random_simulation, random_simulation_cancellable, RandomSimReport};
pub use sat::{Cnf, Lit, SatStats};
