//! Engine-selection predictor: which strategies a race may start for a
//! design, and which of them leads.
//!
//! A racing portfolio is hedged (see [`crate::Portfolio::race`]): the first
//! engine of the list starts alone, and the rest join only if it has not
//! decided within its head start (`HEAD_START`, 5 ms). The predictor's list
//! therefore says two things: its order picks the lead, and its length caps
//! how many engines an escalated race starts. It scores each engine from
//! cheap netlist statistics — gate counts, datapath fraction, sequential
//! depth — and, once a design has racing history, from per-engine win
//! rates.
//! Scheduling is a pure performance decision: any non-empty engine subset
//! containing at least one complete engine yields sound verdicts, so the
//! predictor can never change an answer, only how many threads chase it.
//!
//! The predictor only ever picks from the configured engines
//! ([`crate::PortfolioConfig::engines`]), so a portfolio configured with one
//! engine races that engine alone. With **no history** it returns the
//! configured list in its configured order, whose first engine leads
//! (racing is the exploration that builds the history in the first place).
//! The history records the engines a race actually started, so a race the
//! lead decided alone counts a run for the lead only.

use crate::engines::Engine;
use wlac_netlist::{GateKind, Netlist};

/// Cheap structural features of a design, extracted once per registration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistFeatures {
    /// Non-flip-flop gate count.
    pub gates: usize,
    /// Arithmetic gates (adders, subtractors, multipliers, shifters).
    pub arithmetic_gates: usize,
    /// Fraction of gates that are arithmetic units, comparators or muxes —
    /// the word-level "datapath" share the ATPG engine keeps un-blasted.
    pub datapath_fraction: f64,
    /// Total flip-flop bits (state size).
    pub flip_flop_bits: usize,
    /// Longest combinational path in gate levels, a proxy for how much work
    /// one time-frame costs.
    pub combinational_depth: usize,
    /// Widest net in the design; wide buses make bit-blasting expensive.
    pub max_net_width: usize,
}

impl NetlistFeatures {
    /// Extracts the features of a design (one linear pass plus a topological
    /// sort).
    pub fn of(netlist: &Netlist) -> Self {
        let mut gates = 0usize;
        let mut arithmetic_gates = 0usize;
        let mut datapath_gates = 0usize;
        let mut flip_flop_bits = 0usize;
        for (_, gate) in netlist.gates() {
            if gate.kind.is_flip_flop() {
                flip_flop_bits += netlist.net_width(gate.output);
                continue;
            }
            gates += 1;
            if gate.kind.is_arithmetic() {
                arithmetic_gates += 1;
            }
            if gate.kind.is_arithmetic() || gate.kind.is_comparator() || gate.kind == GateKind::Mux
            {
                datapath_gates += 1;
            }
        }
        let max_net_width = netlist
            .nets()
            .map(|n| netlist.net_width(n))
            .max()
            .unwrap_or(1);
        // Longest combinational path (levels), via the cached topo order.
        let combinational_depth = match netlist.combinational_order() {
            Ok(order) => {
                let mut level = vec![0u32; netlist.net_count()];
                let mut deepest = 0u32;
                for gate_id in order {
                    let gate = netlist.gate(gate_id);
                    let depth = gate
                        .inputs
                        .iter()
                        .map(|n| level[n.index()])
                        .max()
                        .unwrap_or(0)
                        + 1;
                    level[gate.output.index()] = depth;
                    deepest = deepest.max(depth);
                }
                deepest as usize
            }
            Err(_) => 0,
        };
        NetlistFeatures {
            gates,
            arithmetic_gates,
            datapath_fraction: if gates > 0 {
                datapath_gates as f64 / gates as f64
            } else {
                0.0
            },
            flip_flop_bits,
            combinational_depth,
            max_net_width,
        }
    }
}

/// Per-design racing history: how often each engine produced the winning
/// verdict, and how often it ran at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineHistory {
    wins: [u64; 3],
    runs: [u64; 3],
}

impl EngineHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        EngineHistory::default()
    }

    /// Records the outcome of one race: which engines ran, and which (if
    /// any) won it.
    pub fn record(&mut self, ran: &[Engine], winner: Option<Engine>) {
        for engine in ran {
            self.runs[engine.code() as usize] += 1;
        }
        if let Some(winner) = winner {
            self.wins[winner.code() as usize] += 1;
        }
    }

    /// Races recorded so far (with any definitive winner).
    pub fn total_wins(&self) -> u64 {
        self.wins.iter().sum()
    }

    /// The raw `(wins, runs)` counters in [`Engine::ALL`] order, for
    /// serialization (e.g. an on-disk knowledge snapshot).
    pub fn counts(&self) -> ([u64; 3], [u64; 3]) {
        (self.wins, self.runs)
    }

    /// Rebuilds a history from [`EngineHistory::counts`]. Counters are
    /// scheduling pressure only, so a forged history is at worst a slow
    /// first race, never an unsound verdict.
    pub fn from_counts(wins: [u64; 3], runs: [u64; 3]) -> Self {
        EngineHistory { wins, runs }
    }

    /// Accumulates another history into this one (counts saturate). Used
    /// when a persisted history is folded into a live session's.
    pub fn merge(&mut self, other: &EngineHistory) {
        for i in 0..3 {
            self.wins[i] = self.wins[i].saturating_add(other.wins[i]);
            self.runs[i] = self.runs[i].saturating_add(other.runs[i]);
        }
    }

    /// Wins attributed to `engine`.
    pub fn wins(&self, engine: Engine) -> u64 {
        self.wins[engine.code() as usize]
    }

    /// Runs recorded for `engine`.
    pub fn runs(&self, engine: Engine) -> u64 {
        self.runs[engine.code() as usize]
    }
}

/// Minimum decided races before the predictor trusts a design's history;
/// below this it keeps racing everything.
const MIN_HISTORY: u64 = 4;

/// Every `EXPLORE_EVERY`-th decided race runs the full portfolio even with
/// established history. Without this, an engine trimmed once could never
/// run — and therefore never win — again, making any early mis-read of a
/// design permanent; periodic exploration lets the history recover when a
/// design's later properties favour a different engine.
const EXPLORE_EVERY: u64 = 16;

/// Picks the engines to spawn for one job on a design with the given
/// features and (optional) racing history, from the `configured` engines.
/// The result only ever holds configured engines.
///
/// * **No (or thin) history**, and every scheduled exploration race →
///   `configured`, in its order: exploration is what builds the history.
/// * **Established history** → every configured engine with a meaningful
///   win share, ranked by feature-adjusted score, so the top-scored engine
///   leads the hedged race. When a *complete* engine (ATPG or SAT BMC) is
///   configured, at least one is always kept so bounded holds stay
///   provable.
pub fn predict_engines(
    features: &NetlistFeatures,
    history: Option<&EngineHistory>,
    configured: &[Engine],
) -> Vec<Engine> {
    let Some(history) = history.filter(|h| h.total_wins() >= MIN_HISTORY) else {
        return configured.to_vec();
    };
    if history.total_wins() % EXPLORE_EVERY == 0 {
        // Scheduled exploration: give trimmed engines a chance to win back.
        return configured.to_vec();
    }
    let total = history.total_wins() as f64;
    let mut scored: Vec<(f64, Engine)> = configured
        .iter()
        .map(|&engine| {
            let win_share = history.wins(engine) as f64 / total;
            // Feature prior: word-level ATPG thrives on datapath-heavy, wide
            // designs; bit-level SAT on control-dominated narrow ones; random
            // simulation pays off on deep sequential state it can overshoot.
            let prior = match engine {
                Engine::Atpg => {
                    0.10 + 0.25 * features.datapath_fraction
                        + if features.max_net_width >= 16 {
                            0.10
                        } else {
                            0.0
                        }
                }
                Engine::SatBmc => {
                    0.10 + 0.25 * (1.0 - features.datapath_fraction)
                        + if features.max_net_width < 16 {
                            0.10
                        } else {
                            0.0
                        }
                }
                Engine::RandomSim => {
                    if features.flip_flop_bits > 32 || features.combinational_depth > 24 {
                        0.10
                    } else {
                        0.05
                    }
                }
            };
            (win_share + prior, engine)
        })
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0));
    let Some(&(best, _)) = scored.first() else {
        return Vec::new();
    };
    let complete = |engine: &Engine| matches!(engine, Engine::Atpg | Engine::SatBmc);
    let mut chosen: Vec<Engine> = scored
        .iter()
        .filter(|(score, _)| *score >= best * 0.5)
        .map(|(_, engine)| *engine)
        .collect();
    if !chosen.iter().any(complete) {
        // Keep a complete engine, when one is configured, so pass verdicts
        // stay reachable.
        if let Some(&(_, engine)) = scored.iter().find(|(_, engine)| complete(engine)) {
            chosen.push(engine);
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_bv::Bv;

    const ENGINES: [Engine; 3] = Engine::ALL;

    fn datapath_heavy() -> Netlist {
        let mut nl = Netlist::new("dp");
        let a = nl.input("a", 24);
        let b = nl.input("b", 24);
        let c = nl.input("c", 24);
        let s1 = nl.add(a, b);
        let s2 = nl.add(s1, c);
        let limit = nl.constant(&Bv::from_u64(24, 1000));
        let over = nl.gt(s2, limit);
        nl.mark_output("over", over);
        nl
    }

    #[test]
    fn features_capture_datapath_share_and_depth() {
        let nl = datapath_heavy();
        let f = NetlistFeatures::of(&nl);
        assert_eq!(f.arithmetic_gates, 2);
        assert!(f.datapath_fraction > 0.5, "{}", f.datapath_fraction);
        assert_eq!(f.max_net_width, 24);
        assert!(f.combinational_depth >= 3);
        assert_eq!(f.flip_flop_bits, 0);
    }

    #[test]
    fn no_history_races_everything() {
        let f = NetlistFeatures::of(&datapath_heavy());
        assert_eq!(predict_engines(&f, None, &ENGINES), ENGINES.to_vec());
        // Thin history is not trusted either.
        let mut history = EngineHistory::new();
        history.record(&ENGINES, Some(Engine::Atpg));
        assert_eq!(
            predict_engines(&f, Some(&history), &ENGINES),
            ENGINES.to_vec()
        );
    }

    #[test]
    fn dominant_winner_trims_the_portfolio() {
        let f = NetlistFeatures::of(&datapath_heavy());
        let mut history = EngineHistory::new();
        for _ in 0..10 {
            history.record(&ENGINES, Some(Engine::Atpg));
        }
        let chosen = predict_engines(&f, Some(&history), &ENGINES);
        assert!(chosen.contains(&Engine::Atpg));
        assert!(chosen.len() < 3, "dominant ATPG should trim: {chosen:?}");
    }

    #[test]
    fn random_sim_dominance_still_keeps_a_complete_engine() {
        let f = NetlistFeatures::of(&datapath_heavy());
        let mut history = EngineHistory::new();
        for _ in 0..10 {
            history.record(&ENGINES, Some(Engine::RandomSim));
        }
        let chosen = predict_engines(&f, Some(&history), &ENGINES);
        assert!(chosen.contains(&Engine::RandomSim));
        assert!(
            chosen
                .iter()
                .any(|e| matches!(e, Engine::Atpg | Engine::SatBmc)),
            "{chosen:?}"
        );
    }

    #[test]
    fn established_history_picks_only_configured_engines() {
        let f = NetlistFeatures::of(&datapath_heavy());
        let mut history = EngineHistory::new();
        for winner in [Engine::Atpg, Engine::SatBmc, Engine::RandomSim] {
            for _ in 0..3 {
                history.record(&ENGINES, Some(winner));
            }
        }
        assert!(history.total_wins() >= MIN_HISTORY);
        assert_ne!(history.total_wins() % EXPLORE_EVERY, 0);
        for configured in [
            &[][..],
            &[Engine::RandomSim][..],
            &[Engine::Atpg, Engine::RandomSim][..],
        ] {
            let chosen = predict_engines(&f, Some(&history), configured);
            assert!(
                chosen.iter().all(|engine| configured.contains(engine)),
                "{configured:?} -> {chosen:?}"
            );
            assert_eq!(chosen.is_empty(), configured.is_empty(), "{chosen:?}");
        }
        // With a complete engine configured, one is always kept.
        let chosen = predict_engines(&f, Some(&history), &[Engine::Atpg, Engine::RandomSim]);
        assert!(chosen.contains(&Engine::Atpg), "{chosen:?}");
        // Thin history and exploration races keep the configured order.
        let configured = [Engine::RandomSim, Engine::Atpg];
        assert_eq!(predict_engines(&f, None, &configured), configured.to_vec());
    }

    #[test]
    fn periodic_exploration_reraces_the_full_portfolio() {
        let f = NetlistFeatures::of(&datapath_heavy());
        let mut history = EngineHistory::new();
        for _ in 0..EXPLORE_EVERY {
            history.record(&[Engine::Atpg], Some(Engine::Atpg));
        }
        // total_wins is a multiple of EXPLORE_EVERY: everyone races again,
        // so a once-trimmed engine can win its way back into the schedule.
        assert_eq!(
            predict_engines(&f, Some(&history), &ENGINES),
            ENGINES.to_vec()
        );
        history.record(&[Engine::Atpg], Some(Engine::Atpg));
        assert!(predict_engines(&f, Some(&history), &ENGINES).len() < 3);
    }

    #[test]
    fn history_counts_round_trip_and_merge() {
        let mut h = EngineHistory::new();
        h.record(&ENGINES, Some(Engine::SatBmc));
        h.record(&[Engine::Atpg], Some(Engine::Atpg));
        let (wins, runs) = h.counts();
        assert_eq!(EngineHistory::from_counts(wins, runs), h);
        let mut merged = EngineHistory::from_counts(wins, runs);
        merged.merge(&h);
        assert_eq!(merged.wins(Engine::Atpg), 2 * h.wins(Engine::Atpg));
        assert_eq!(
            merged.runs(Engine::RandomSim),
            2 * h.runs(Engine::RandomSim)
        );
        assert_eq!(
            Engine::from_code(Engine::SatBmc.code()),
            Some(Engine::SatBmc)
        );
        assert_eq!(Engine::from_code(9), None);
    }

    #[test]
    fn history_bookkeeping() {
        let mut h = EngineHistory::new();
        h.record(&[Engine::Atpg, Engine::SatBmc], Some(Engine::SatBmc));
        h.record(&[Engine::Atpg], None);
        assert_eq!(h.total_wins(), 1);
        assert_eq!(h.wins(Engine::SatBmc), 1);
        assert_eq!(h.runs(Engine::Atpg), 2);
        assert_eq!(h.runs(Engine::RandomSim), 0);
    }
}
