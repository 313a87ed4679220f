//! `alarm_clock` — a 12-hour alarm clock.
//!
//! The clock keeps minutes (0–59), hours (1–12) and an am/pm flag, plus an
//! alarm time and shadow registers of the previous cycle's display (used to
//! phrase the roll-over property). Time advances on `tick` unless the clock
//! is in setting mode, in which case `inc_hour` / `inc_min` adjust the
//! display directly.
//!
//! Properties (the three of the paper):
//! * **p7** — after the clock passes "11:59" it resets to "12:00",
//! * **p8** — a witness sequence brings the hour display to 2 after power-on,
//! * **p9** — the hour display can never show 13.

use wlac_atpg::property::{monitor, Property, Verification};
use wlac_bv::Bv;
use wlac_netlist::{NetId, Netlist};

/// The generated alarm clock.
#[derive(Debug, Clone)]
pub struct AlarmClock {
    /// The synthesised design.
    pub netlist: Netlist,
    /// Current hour register (4 bits, 1–12).
    pub hour: NetId,
    /// Current minute register (6 bits, 0–59).
    pub minute: NetId,
    /// Previous-cycle hour register.
    pub prev_hour: NetId,
    /// Previous-cycle minute register.
    pub prev_minute: NetId,
    /// Previous-cycle "time advanced" flag.
    pub prev_advance: NetId,
}

impl AlarmClock {
    /// Builds the clock. There is a single configuration; the design matches
    /// the paper's Table 1 row (33 flip-flop bits, 7 inputs).
    pub fn new() -> Self {
        let mut nl = Netlist::new("alarm_clock");
        nl.set_source_lines(719);
        // Inputs (7 bits).
        let tick = nl.input("tick", 1);
        let set_time = nl.input("set_time", 1);
        let set_alarm = nl.input("set_alarm", 1);
        let inc_hour = nl.input("inc_hour", 1);
        let inc_min = nl.input("inc_min", 1);
        let alarm_enable = nl.input("alarm_enable", 1);
        let snooze = nl.input("snooze", 1);

        // State: power-on value is 12:00 am with the alarm cleared.
        let (hour, hour_ff) = nl.dff_deferred(4, Some(Bv::from_u64(4, 12)));
        let (minute, minute_ff) = nl.dff_deferred(6, Some(Bv::zero(6)));
        let (pm, pm_ff) = nl.dff_deferred(1, Some(Bv::zero(1)));
        let (alarm_hour, alarm_hour_ff) = nl.dff_deferred(4, Some(Bv::from_u64(4, 12)));
        let (alarm_min, alarm_min_ff) = nl.dff_deferred(6, Some(Bv::zero(6)));
        let (alarm_on, alarm_on_ff) = nl.dff_deferred(1, Some(Bv::zero(1)));

        // Helper constants.
        let c59 = nl.constant(&Bv::from_u64(6, 59));
        let c12 = nl.constant(&Bv::from_u64(4, 12));
        let c11 = nl.constant(&Bv::from_u64(4, 11));
        let min_zero = nl.constant(&Bv::zero(6));
        let hour_one = nl.constant(&Bv::from_u64(4, 1));
        let min_one = nl.constant(&Bv::from_u64(6, 1));
        let hour_inc_one = nl.constant(&Bv::from_u64(4, 1));

        // Normal time advance.
        let not_setting = nl.not(set_time);
        let advance = nl.and2(tick, not_setting);
        let min_at_59 = nl.eq(minute, c59);
        let min_plus = nl.add(minute, min_one);
        let min_rolled = nl.mux(min_at_59, min_zero, min_plus);
        let hour_at_12 = nl.eq(hour, c12);
        let hour_plus = nl.add(hour, hour_inc_one);
        let hour_rolled = nl.mux(hour_at_12, hour_one, hour_plus);
        let hour_should_roll = nl.and2(advance, min_at_59);
        let hour_at_11 = nl.eq(hour, c11);
        let pm_toggle = nl.and2(hour_should_roll, hour_at_11);
        let not_pm = nl.not(pm);
        let pm_next_normal = nl.mux(pm_toggle, not_pm, pm);

        // Setting mode adjustments.
        let set_hour_now = nl.and2(set_time, inc_hour);
        let set_min_now = nl.and2(set_time, inc_min);
        let hour_set = nl.mux(set_hour_now, hour_rolled, hour);
        let min_set = nl.mux(set_min_now, min_rolled, minute);

        // Next-state selection.
        let min_advanced = nl.mux(advance, min_rolled, min_set);
        let hour_advanced_sel = nl.mux(hour_should_roll, hour_rolled, hour);
        let hour_next = nl.mux(set_time, hour_set, hour_advanced_sel);
        let min_next = nl.mux(set_time, min_set, min_advanced);
        nl.connect_dff_data(hour_ff, hour_next);
        nl.connect_dff_data(minute_ff, min_next);
        nl.connect_dff_data(pm_ff, pm_next_normal);

        // Alarm registers: adjusted in alarm-setting mode, armed by enable.
        let set_alarm_hour = nl.and2(set_alarm, inc_hour);
        let set_alarm_min = nl.and2(set_alarm, inc_min);
        let alarm_hour_at_12 = nl.eq(alarm_hour, c12);
        let alarm_hour_plus = nl.add(alarm_hour, hour_inc_one);
        let alarm_hour_rolled = nl.mux(alarm_hour_at_12, hour_one, alarm_hour_plus);
        let alarm_hour_next = nl.mux(set_alarm_hour, alarm_hour_rolled, alarm_hour);
        let alarm_min_at_59 = nl.eq(alarm_min, c59);
        let alarm_min_plus = nl.add(alarm_min, min_one);
        let alarm_min_rolled = nl.mux(alarm_min_at_59, min_zero, alarm_min_plus);
        let alarm_min_next = nl.mux(set_alarm_min, alarm_min_rolled, alarm_min);
        nl.connect_dff_data(alarm_hour_ff, alarm_hour_next);
        nl.connect_dff_data(alarm_min_ff, alarm_min_next);
        let not_snooze = nl.not(snooze);
        let alarm_on_next = nl.and2(alarm_enable, not_snooze);
        nl.connect_dff_data(alarm_on_ff, alarm_on_next);

        // Shadow registers of the previous cycle's display, used by p7.
        let prev_hour = nl.dff(hour, Some(Bv::from_u64(4, 12)));
        let prev_minute = nl.dff(minute, Some(Bv::zero(6)));
        let prev_advance = nl.dff(advance, Some(Bv::zero(1)));

        // Alarm ring output.
        let hour_match = nl.eq(hour, alarm_hour);
        let min_match = nl.eq(minute, alarm_min);
        let time_match = nl.and2(hour_match, min_match);
        let ringing = nl.and2(alarm_on, time_match);

        nl.mark_output("hour", hour);
        nl.mark_output("minute", minute);
        nl.mark_output("pm", pm);
        nl.mark_output("alarm_hour", alarm_hour);
        nl.mark_output("alarm_minute", alarm_min);
        nl.mark_output("ringing", ringing);
        nl.mark_output("prev_hour", prev_hour);
        nl.mark_output("prev_minute", prev_minute);
        nl.mark_output("prev_advance", prev_advance);
        AlarmClock {
            netlist: nl,
            hour,
            minute,
            prev_hour,
            prev_minute,
            prev_advance,
        }
    }

    /// p7: whenever the previous cycle showed 11:59 and time advanced, the
    /// display now shows 12:00.
    pub fn p7_rollover_to_twelve(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let c11 = nl.constant(&Bv::from_u64(4, 11));
        let c59 = nl.constant(&Bv::from_u64(6, 59));
        let was_11 = nl.eq(self.prev_hour, c11);
        let was_59 = nl.eq(self.prev_minute, c59);
        let was_1159 = nl.and2(was_11, was_59);
        let antecedent = nl.and2(was_1159, self.prev_advance);
        let c12 = nl.constant(&Bv::from_u64(4, 12));
        let c0 = nl.constant(&Bv::zero(6));
        let now_12 = nl.eq(self.hour, c12);
        let now_00 = nl.eq(self.minute, c0);
        let now_1200 = nl.and2(now_12, now_00);
        let ok = monitor::implies(&mut nl, antecedent, now_1200);
        let property = Property::always(&nl, "p7", ok);
        Verification::new(nl, property)
    }

    /// p8: a witness sequence brings the hour display to 2 after power-on.
    pub fn p8_hour_reaches_two(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let reaches = monitor::reaches_value(&mut nl, self.hour, &Bv::from_u64(4, 2));
        let property = Property::eventually(&nl, "p8", reaches);
        Verification::new(nl, property)
    }

    /// p9: the hour display can never show 13.
    pub fn p9_hour_never_thirteen(&self) -> Verification {
        let mut nl = self.netlist.clone();
        let ok = monitor::never_value(&mut nl, self.hour, &Bv::from_u64(4, 13));
        let property = Property::always(&nl, "p9", ok);
        Verification::new(nl, property)
    }
}

impl Default for AlarmClock {
    fn default() -> Self {
        AlarmClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wlac_atpg::{AssertionChecker, CheckerOptions, Verdict};
    use wlac_sim::simulate;

    #[test]
    fn statistics_match_paper_shape() {
        let clock = AlarmClock::new();
        let stats = clock.netlist.stats();
        assert_eq!(stats.inputs, 7);
        assert_eq!(stats.flip_flop_bits, 33);
        assert!(stats.gates > 40);
    }

    #[test]
    fn simulation_rolls_over_after_11_59() {
        let clock = AlarmClock::new();
        let nl = &clock.netlist;
        let tick = nl.find_net("tick").unwrap();
        let set_time = nl.find_net("set_time").unwrap();
        let inc_hour = nl.find_net("inc_hour").unwrap();
        let inc_min = nl.find_net("inc_min").unwrap();
        // Drive the clock to 11:59 through setting mode, then tick once.
        let mut frames: Vec<HashMap<_, _>> = Vec::new();
        // 11 hour increments: 12 -> 1 -> 2 ... -> 11.
        for _ in 0..11 {
            frames.push(
                [
                    (set_time, Bv::from_u64(1, 1)),
                    (inc_hour, Bv::from_u64(1, 1)),
                ]
                .into_iter()
                .collect(),
            );
        }
        // 59 minute increments.
        for _ in 0..59 {
            frames.push(
                [
                    (set_time, Bv::from_u64(1, 1)),
                    (inc_hour, Bv::from_u64(1, 0)),
                    (inc_min, Bv::from_u64(1, 1)),
                ]
                .into_iter()
                .collect(),
            );
        }
        // One tick in normal mode, then one idle frame to observe the result.
        frames.push(
            [
                (set_time, Bv::from_u64(1, 0)),
                (inc_min, Bv::from_u64(1, 0)),
                (tick, Bv::from_u64(1, 1)),
            ]
            .into_iter()
            .collect(),
        );
        frames.push([(tick, Bv::from_u64(1, 0))].into_iter().collect());
        let run = simulate(nl, &[], &frames).unwrap();
        let last = frames.len() - 1;
        assert_eq!(run.value(last - 1, clock.hour).to_u64(), Some(11));
        assert_eq!(run.value(last - 1, clock.minute).to_u64(), Some(59));
        assert_eq!(run.value(last, clock.hour).to_u64(), Some(12));
        assert_eq!(run.value(last, clock.minute).to_u64(), Some(0));
    }

    #[test]
    fn p9_hour_never_thirteen_is_proved() {
        let clock = AlarmClock::new();
        let report = AssertionChecker::with_defaults().check(&clock.p9_hour_never_thirteen());
        assert!(report.result.is_pass(), "got {:?}", report.result);
    }

    #[test]
    fn p8_witness_reaches_two() {
        let clock = AlarmClock::new();
        let options = CheckerOptions {
            max_frames: 6,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&clock.p8_hour_reaches_two());
        match report.result {
            Verdict::WitnessFound { trace } => assert!(trace.len() >= 2),
            other => panic!("expected witness, got {other:?}"),
        }
    }

    #[test]
    fn p7_rollover_holds() {
        let clock = AlarmClock::new();
        let options = CheckerOptions {
            max_frames: 4,
            ..CheckerOptions::default()
        };
        let report = AssertionChecker::new(options).check(&clock.p7_rollover_to_twelve());
        assert!(report.result.is_pass(), "got {:?}", report.result);
    }
}
