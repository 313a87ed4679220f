//! Names the benchmark package still uses from when races were seeded with
//! SAT-BMC clauses and harvested new ones.
//!
//! Races keep nothing now: every engine runs cold, so a [`WarmStart`] is
//! empty and a [`Harvest`]'s clauses are too. Both types stay, inert, only
//! because the benchmark package (`perfbench/`) calls
//! [`Portfolio::race_warm`](crate::Portfolio::race_warm) and reads the
//! harvest; they go when ROADMAP item 3 un-pins that package.

use crate::engines::Engine;
use wlac_baselines::FrameClause;

/// An empty warm start: nothing seeds a race.
#[derive(Debug, Clone, Default)]
pub struct WarmStart;

impl WarmStart {
    /// The warm start, which is empty.
    pub fn new() -> Self {
        WarmStart
    }
}

/// What [`Portfolio::race_warm`](crate::Portfolio::race_warm) reports
/// beside the race: no clauses, and the race's engines.
#[derive(Debug, Clone, Default)]
pub struct Harvest {
    /// Always empty: no engine exports clauses.
    pub clauses: Vec<FrameClause>,
    /// The engine that produced the winning verdict, as in
    /// [`crate::PortfolioReport::winner`].
    pub winner: Option<Engine>,
    /// The engines that actually ran, in answer order.
    pub ran: Vec<Engine>,
}
