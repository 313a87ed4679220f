//! Warm-start seeds and learning harvests for portfolio runs.
//!
//! A [`WarmStart`] carries what a knowledge base knows about a design into
//! one race: frame-relative CDCL clauses for the SAT BMC engine, and an
//! optional engine-selection override from the scheduling predictor. A
//! [`Harvest`] carries back out only what the race learned on top of that
//! seed: a delta, which every store merges. The ATPG engine takes no seed
//! and harvests nothing: each of its checks owns its ESTG.
//!
//! Seeds are performance hints with a hard soundness contract: they must have
//! been gathered on a **structurally identical** netlist. The owner of the
//! knowledge base enforces that by keying stores on a design hash; the
//! engines additionally skip malformed clauses rather than trust them.

use crate::engines::Engine;
use wlac_baselines::FrameClause;

/// Knowledge seeded into one portfolio run.
#[derive(Debug, Clone, Default)]
pub struct WarmStart {
    /// Design-valid frame-relative clauses replayed into every BMC unrolling.
    pub clauses: Vec<FrameClause>,
    /// Engines to spawn instead of the configured list (predictor output);
    /// `None` keeps the configured portfolio.
    pub engines: Option<Vec<Engine>>,
}

impl WarmStart {
    /// An empty warm start: no seeds, the full configured portfolio. A race
    /// from it is a cold race whose harvest is everything it learned.
    pub fn new() -> Self {
        WarmStart::default()
    }
}

/// Knowledge one engine run, or one whole race, learned over its
/// [`WarmStart`].
#[derive(Debug, Clone, Default)]
pub struct Harvest {
    /// New design-valid clauses lifted out of the BMC engine's CDCL runs.
    pub clauses: Vec<FrameClause>,
    /// The engine that produced the winning verdict, for the scheduling
    /// history. Set by the race, like `ran`.
    pub winner: Option<Engine>,
    /// The engines that actually ran.
    pub ran: Vec<Engine>,
}
