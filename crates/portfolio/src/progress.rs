//! Live progress of one engine race.
//!
//! A [`RaceProgress`] holds one [`ProgressCell`] per engine. The ATPG
//! engine's core search publishes into its cell continuously (bound
//! advances, periodic effort probes); the SAT and simulation engines have no
//! incremental counters to stream, so the race stores their final
//! statistics into their cells the moment they answer. Observers — the
//! verification service's progress accessors, and through them the server's
//! `progress` and `subscribe` ops — snapshot any cell at any time without
//! locks or allocations and without perturbing the race.

use crate::engines::{Engine, EngineRun, EngineStats};
use std::sync::Arc;
use wlac_telemetry::{ProgressCell, ProgressHandle, ProgressProbe};

/// One progress cell per engine of a single race (see module docs).
#[derive(Debug, Clone, Default)]
pub struct RaceProgress {
    cells: [Arc<ProgressCell>; 3],
}

impl RaceProgress {
    /// Creates empty cells for all engines.
    pub fn new() -> Self {
        RaceProgress::default()
    }

    /// The publication handle for `engine`'s cell.
    pub fn handle(&self, engine: Engine) -> ProgressHandle {
        ProgressHandle::to(self.cells[engine.code() as usize].clone())
    }

    /// A consistent snapshot of `engine`'s cell.
    pub fn engine_probe(&self, engine: Engine) -> ProgressProbe {
        self.cells[engine.code() as usize].snapshot()
    }

    /// The per-job aggregate: counters summed across every engine that has
    /// published, the bound the deepest any engine reached. Zero while no
    /// engine has published yet.
    pub fn aggregate(&self) -> ProgressProbe {
        let mut total = ProgressProbe::default();
        for cell in &self.cells {
            if cell.has_published() {
                total.absorb(&cell.snapshot());
            }
        }
        total
    }

    /// The engine that has pushed the search deepest so far: the published
    /// cell with the highest (bound, decisions). `None` until some engine
    /// publishes.
    pub fn leading_engine(&self) -> Option<Engine> {
        Engine::ALL
            .iter()
            .filter(|e| self.cells[e.code() as usize].has_published())
            .map(|&e| {
                let probe = self.engine_probe(e);
                (e, probe.bound, probe.decisions)
            })
            .max_by_key(|&(_, bound, decisions)| (bound, decisions))
            .map(|(e, _, _)| e)
    }

    /// Stores an engine's final statistics into its cell after it answered.
    ///
    /// For ATPG this overwrites the live stream with the closing counters
    /// (the cumulative `CheckStats`, always >= anything published in
    /// flight). For the engines without live publication it is their only
    /// probe: SAT counters map directly (CDCL backjumps count as
    /// backtracks, propagations as implications); random simulation maps
    /// each run to a restart and each simulated cycle to an implication.
    /// The bound comes from the verdict's frame depth when it has one,
    /// falling back to whatever the live stream last reported.
    pub(crate) fn record_final(&self, run: &EngineRun) {
        let cell = &self.cells[run.engine.code() as usize];
        let bound = if run.verdict.is_definitive() {
            run.verdict.bound()
        } else {
            cell.snapshot().bound
        };
        let probe = match &run.stats {
            EngineStats::Atpg(stats) => ProgressProbe {
                bound,
                decisions: stats.decisions,
                conflicts: stats.conflicts,
                backtracks: stats.backtracks,
                restarts: stats.frames_explored as u64,
                implications: stats.implication.gate_evaluations,
                phase_nanos: stats.phases.total(),
                probes: 0,
            },
            EngineStats::Bmc { sat, .. } => ProgressProbe {
                bound,
                decisions: sat.decisions,
                conflicts: sat.conflicts,
                backtracks: sat.conflicts,
                restarts: sat.restarts,
                implications: sat.propagations,
                phase_nanos: 0,
                probes: 0,
            },
            EngineStats::RandomSim {
                runs,
                cycles_per_run,
            } => ProgressProbe {
                bound,
                decisions: 0,
                conflicts: 0,
                backtracks: 0,
                restarts: *runs as u64,
                implications: (*runs as u64) * (*cycles_per_run as u64),
                phase_nanos: 0,
                probes: 0,
            },
        };
        cell.store(&probe);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wlac_atpg::{CheckStats, Verdict};

    #[test]
    fn empty_race_has_no_leader_and_a_zero_aggregate() {
        let progress = RaceProgress::new();
        assert_eq!(progress.leading_engine(), None);
        assert_eq!(progress.aggregate(), ProgressProbe::default());
    }

    #[test]
    fn live_publication_flows_into_the_aggregate() {
        let progress = RaceProgress::new();
        let atpg = progress.handle(Engine::Atpg);
        atpg.advance_bound(3);
        atpg.publish(40, 2, 5, 900, 0);
        assert_eq!(progress.leading_engine(), Some(Engine::Atpg));
        let total = progress.aggregate();
        assert_eq!(total.bound, 3);
        assert_eq!(total.decisions, 40);
        assert_eq!(
            progress.engine_probe(Engine::SatBmc),
            ProgressProbe::default()
        );
    }

    #[test]
    fn final_stats_of_every_engine_kind_land_in_their_cells() {
        let progress = RaceProgress::new();
        let mut check = CheckStats {
            decisions: 10,
            conflicts: 3,
            backtracks: 4,
            frames_explored: 5,
            ..CheckStats::default()
        };
        check.implication.gate_evaluations = 200;
        progress.record_final(&EngineRun {
            engine: Engine::Atpg,
            verdict: Verdict::Holds {
                proved: false,
                frames: 5,
            },
            elapsed: Duration::from_millis(1),
            cancelled: false,
            stats: EngineStats::Atpg(check),
        });
        progress.record_final(&EngineRun {
            engine: Engine::SatBmc,
            verdict: Verdict::Unknown {
                reason: "cancelled".into(),
            },
            elapsed: Duration::from_millis(1),
            cancelled: true,
            stats: EngineStats::Bmc {
                variables: 100,
                clauses: 300,
                peak_memory_bytes: 1 << 16,
                sat: wlac_baselines::SatStats {
                    decisions: 7,
                    conflicts: 2,
                    propagations: 90,
                    restarts: 1,
                    learned_clauses: 2,
                    deleted_clauses: 0,
                },
            },
        });
        progress.record_final(&EngineRun {
            engine: Engine::RandomSim,
            verdict: Verdict::Unknown {
                reason: "no hit".into(),
            },
            elapsed: Duration::from_millis(1),
            cancelled: false,
            stats: EngineStats::RandomSim {
                runs: 8,
                cycles_per_run: 64,
            },
        });

        let atpg = progress.engine_probe(Engine::Atpg);
        assert_eq!(atpg.bound, 5);
        assert_eq!(atpg.decisions, 10);
        assert_eq!(atpg.restarts, 5);
        let bmc = progress.engine_probe(Engine::SatBmc);
        assert_eq!(bmc.decisions, 7);
        assert_eq!(bmc.implications, 90);
        let random = progress.engine_probe(Engine::RandomSim);
        assert_eq!(random.restarts, 8);
        assert_eq!(random.implications, 512);
        // ATPG leads: deepest bound.
        assert_eq!(progress.leading_engine(), Some(Engine::Atpg));
        let total = progress.aggregate();
        assert_eq!(total.decisions, 17);
        assert_eq!(total.bound, 5);
        assert_eq!(total.probes, 3);
    }

    #[test]
    fn trace_backed_verdict_sets_the_bound_from_the_trace() {
        let progress = RaceProgress::new();
        let trace = wlac_atpg::Trace {
            initial_state: Vec::new(),
            inputs: vec![Vec::new(); 6],
        };
        progress.record_final(&EngineRun {
            engine: Engine::RandomSim,
            verdict: Verdict::Violated { trace },
            elapsed: Duration::from_millis(1),
            cancelled: false,
            stats: EngineStats::RandomSim {
                runs: 1,
                cycles_per_run: 64,
            },
        });
        assert_eq!(progress.engine_probe(Engine::RandomSim).bound, 6);
    }
}
