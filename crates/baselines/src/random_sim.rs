//! Random simulation baseline.
//!
//! The paper's introduction motivates deterministic techniques by the
//! weakness of random test-benches on corner-case bugs. This baseline
//! implements that straw man: drive the design with uniformly random inputs
//! for a number of runs and report whether the monitor was ever violated
//! (for `Always` properties) or satisfied (for `Eventually` witnesses).

use std::time::{Duration, Instant};
use wlac_atpg::{validated_verdict, CancelToken, PropertyKind, Trace, Verdict, Verification};
use wlac_bv::Bv;
use wlac_netlist::NetId;
use wlac_rng::Rng64;
use wlac_sim::Simulator;

/// Result of a random-simulation campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomSimReport {
    /// The hitting input sequence, truncated at the hit cycle, as a
    /// counter-example or witness once [`validated_verdict`] has replayed
    /// it. Without a hit the verdict is `Unknown`: `cancelled`, or a reason
    /// naming the runs and cycles simulated — simulation never proves.
    pub verdict: Verdict,
    /// Number of runs simulated.
    pub runs: usize,
    /// Cycles simulated per run.
    pub cycles_per_run: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

/// Simulates `runs` random input sequences of `cycles` cycles each.
pub fn random_simulation(
    verification: &Verification,
    runs: usize,
    cycles: usize,
    seed: u64,
) -> RandomSimReport {
    random_simulation_cancellable(verification, runs, cycles, seed, &CancelToken::new())
}

/// Like [`random_simulation`], but polls `cancel` every simulated cycle so a
/// portfolio supervisor can stop a losing campaign promptly.
///
/// Each run is stepped cycle by cycle and stops at its first hit or
/// environment violation. A run that stops early still consumes the random
/// words of the cycles it skips, so every run draws the inputs it would have
/// drawn had all runs simulated every cycle, and a seed keeps its verdict and
/// trace.
pub fn random_simulation_cancellable(
    verification: &Verification,
    runs: usize,
    cycles: usize,
    seed: u64,
    cancel: &CancelToken,
) -> RandomSimReport {
    let start = Instant::now();
    let netlist = &verification.netlist;
    let mut rng = Rng64::seed_from_u64(seed);
    let mut trace = None;
    let words_per_cycle: usize = netlist
        .inputs()
        .iter()
        .map(|pi| netlist.net_width(*pi).div_ceil(64))
        .sum();
    if let Ok(mut sim) = Simulator::new(netlist) {
        'runs: for _ in 0..runs {
            sim.reset();
            let mut frames: Vec<Vec<(NetId, Bv)>> = Vec::new();
            for cycle in 0..cycles {
                if cancel.is_cancelled() {
                    break 'runs;
                }
                let inputs: Vec<(NetId, Bv)> = netlist
                    .inputs()
                    .iter()
                    .map(|pi| {
                        let width = netlist.net_width(*pi);
                        let words: Vec<u64> =
                            (0..width.div_ceil(64)).map(|_| rng.next_u64()).collect();
                        (*pi, Bv::from_words(width, &words))
                    })
                    .collect();
                // The cycle's pre-clock (combinational) view, as `simulate`
                // records it.
                if sim.evaluate_combinational(&inputs).is_err() {
                    break 'runs;
                }
                let env_ok = verification
                    .environment
                    .iter()
                    .all(|e| !sim.net_value(*e).is_zero());
                if !env_ok {
                    // The environment must hold in *every* cycle; once
                    // violated, the design state is polluted and any later
                    // hit would yield a trace the checkers rightly reject.
                    // Abandon the run, skipping its remaining draws.
                    for _ in 0..(cycles - cycle - 1) * words_per_cycle {
                        rng.next_u64();
                    }
                    break;
                }
                let monitor = sim.net_value(verification.property.monitor);
                let hit = match verification.property.kind {
                    PropertyKind::Always => monitor.is_zero(),
                    PropertyKind::Eventually => !monitor.is_zero(),
                };
                frames.push(inputs);
                if hit {
                    // The replayed simulation starts from the reset state
                    // this run started from, so an empty initial state
                    // reproduces the run exactly.
                    trace = Some(Trace {
                        initial_state: Vec::new(),
                        inputs: frames,
                    });
                    break 'runs;
                }
                if sim.step(&frames[cycle]).is_err() {
                    break 'runs;
                }
            }
        }
    }
    let verdict = match trace {
        Some(trace) => validated_verdict(verification, trace),
        None => Verdict::Unknown {
            reason: if cancel.is_cancelled() {
                "cancelled".into()
            } else {
                format!("no hit in {runs} runs x {cycles} cycles")
            },
        },
    };
    RandomSimReport {
        verdict,
        runs,
        cycles_per_run: cycles,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlac_atpg::Property;
    use wlac_netlist::Netlist;

    #[test]
    fn random_simulation_finds_an_easy_witness_but_not_a_corner_case() {
        // Easy: some input bit is eventually 1. Corner case: a 16-bit input
        // must equal a specific constant.
        let mut nl = Netlist::new("rand");
        let wide = nl.input("wide", 16);
        let magic = nl.constant(&Bv::from_u64(16, 0xBEEF));
        let corner = nl.eq(wide, magic);
        let easy = nl.reduce_or(wide);
        nl.mark_output("corner", corner);

        let easy_property = Property::eventually(&nl, "easy", easy);
        let easy_verification = Verification::new(nl.clone(), easy_property);
        let report = random_simulation(&easy_verification, 4, 8, 7);
        assert_eq!(report.runs, 4);
        // The recorded trace replays to a real hit.
        let Verdict::WitnessFound { trace } = report.verdict else {
            panic!("expected a witness, got {:?}", report.verdict);
        };
        let replay = trace
            .replay_monitor(
                &easy_verification.netlist,
                easy_verification.property.monitor,
            )
            .expect("replay succeeds");
        assert_eq!(replay.last(), Some(&true));

        let corner_property = Property::eventually(&nl, "corner", corner);
        let report = random_simulation(&Verification::new(nl, corner_property), 4, 8, 7);
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: "no hit in 4 runs x 8 cycles".into()
            },
            "2^-16 chance per cycle should not hit in 32 cycles"
        );
    }

    #[test]
    fn stepping_keeps_the_inputs_every_run_draws() {
        // q' = x under the environment e != 0, and the witness q == 0x5A.
        // Almost every run breaks the environment within a few cycles; with
        // seed 2 the first hit comes in the 44th run, so every abandoned run
        // before it must consume exactly the draws it did when whole runs
        // were simulated up front. Hit cycle and trace were computed with
        // the whole-run simulator.
        let mut nl = Netlist::new("pinned");
        let e = nl.input("e", 4);
        let x = nl.input("x", 8);
        let (q, ff) = nl.dff_deferred(8, Some(Bv::zero(8)));
        nl.connect_dff_data(ff, x);
        let magic = nl.constant(&Bv::from_u64(8, 0x5A));
        let hit = nl.eq(q, magic);
        let env = nl.reduce_or(e);
        nl.mark_output("hit", hit);
        let property = Property::eventually(&nl, "pinned", hit);
        let verification = Verification::new(nl, property).with_environment(env);

        let report = random_simulation(&verification, 400, 64, 2);
        let Verdict::WitnessFound { trace } = report.verdict else {
            panic!("expected a witness, got {:?}", report.verdict);
        };
        // The first hit is at cycle 5: the trace is six cycles long.
        let frames: Vec<(u64, u64)> = trace
            .inputs
            .iter()
            .map(|frame| {
                let value = |net| {
                    frame
                        .iter()
                        .find(|(n, _)| *n == net)
                        .and_then(|(_, v)| v.to_u64())
                        .expect("every input is driven")
                };
                (value(e), value(x))
            })
            .collect();
        assert_eq!(
            frames,
            [(7, 86), (15, 198), (11, 223), (1, 12), (12, 90), (12, 72)]
        );
        assert!(trace.initial_state.is_empty());
    }

    #[test]
    fn cancelled_campaign_stops_without_a_hit() {
        let mut nl = Netlist::new("rand");
        let wide = nl.input("wide", 8);
        let easy = nl.reduce_or(wide);
        nl.mark_output("easy", easy);
        let property = Property::eventually(&nl, "easy", easy);
        let verification = Verification::new(nl, property);
        let cancel = CancelToken::new();
        cancel.cancel();
        let report = random_simulation_cancellable(&verification, 1000, 1000, 3, &cancel);
        assert_eq!(
            report.verdict,
            Verdict::Unknown {
                reason: "cancelled".into()
            },
            "cancelled before the first run"
        );
    }
}
