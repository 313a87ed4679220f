//! Search statistics and memory accounting.

use crate::implication::ImplicationStats;
use std::fmt;
use std::time::Duration;

/// Phase-attributed wall-clock breakdown of a check, in nanoseconds.
///
/// Populated only when [`crate::CheckerOptions::trace`] is set: the phase
/// clock costs two monotonic-clock reads per attribution point, which the
/// zero-overhead default path must not pay. When populated, the fields
/// partition [`CheckStats::elapsed`]: everything the search loop does lands
/// in a named phase and the checker charges the remainder (unrolling,
/// requirement seeding, trace extraction and validation) to `other`, so
/// `total()` tracks `elapsed` to within clock-read slack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Word-level implication: initial propagation plus the fixed-point run
    /// after every decision and backtrack re-assignment.
    pub implication: u64,
    /// Unjustified-gate maintenance and decision-cut computation.
    pub justification: u64,
    /// Decision-point selection (bias ordering, ESTG penalties).
    pub decision: u64,
    /// Modular arithmetic datapath resolution that ended in infeasibility or
    /// an inconclusive verdict (island solving, fact lookups).
    pub datapath: u64,
    /// The satisfiable leaf: the final datapath resolution that concretized a
    /// model, including solution sampling and full-circuit validation.
    pub sat_leaf: u64,
    /// Chronological backtracking (trail restores, alternative re-assignment
    /// up to the implication hand-off).
    pub backtrack: u64,
    /// Everything outside the search loop: time-frame expansion, requirement
    /// seeding, trace extraction/replay and induction bookkeeping.
    pub other: u64,
}

impl PhaseNanos {
    /// Sum of all phases.
    pub fn total(&self) -> u64 {
        let PhaseNanos {
            implication,
            justification,
            decision,
            datapath,
            sat_leaf,
            backtrack,
            other,
        } = self;
        implication + justification + decision + datapath + sat_leaf + backtrack + other
    }

    /// Merges another breakdown into this one. Exhaustive destructuring: a
    /// new phase cannot be added without being merged here.
    pub fn absorb(&mut self, other: &PhaseNanos) {
        let PhaseNanos {
            implication,
            justification,
            decision,
            datapath,
            sat_leaf,
            backtrack,
            other: other_nanos,
        } = other;
        self.implication += implication;
        self.justification += justification;
        self.decision += decision;
        self.datapath += datapath;
        self.sat_leaf += sat_leaf;
        self.backtrack += backtrack;
        self.other += other_nanos;
    }
}

/// Effort and resource statistics for one property check, mirroring the
/// columns of the paper's Table 2 (CPU time, memory) plus search counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckStats {
    /// Number of branch-and-bound decisions.
    pub decisions: u64,
    /// The subset of [`Self::decisions`] that were datapath bit decisions:
    /// one bit of a word decided at a leaf the datapath solver could not
    /// settle.
    pub datapath_splits: u64,
    /// Number of conflicts: decision assignments refuted by implication plus
    /// datapath resolutions proved infeasible. Every conflict triggers
    /// backtracking, but one backtrack run can unwind several levels, so the
    /// two counters differ.
    pub conflicts: u64,
    /// Number of backtracks.
    pub backtracks: u64,
    /// Implication effort counters.
    pub implication: ImplicationStats,
    /// Number of modular arithmetic solver invocations.
    pub arithmetic_calls: u64,
    /// Wall-clock nanoseconds spent resolving residual datapath constraints
    /// (island solving plus concretization), the denominator-side of the
    /// `ns_per_arith_call` performance metric.
    pub datapath_nanos: u64,
    /// Datapath resolutions served by an already-built island cache.
    pub island_cache_hits: u64,
    /// Datapath resolutions that had to build the island topology first.
    pub island_cache_misses: u64,
    /// Gates re-examined by unjustified-gate maintenance. With the dirty
    /// worklist this is proportional to the changed region per decision;
    /// a full rescan per decision would put it near `decisions × gates`.
    pub justify_gates_rechecked: u64,
    /// Number of time-frames of the deepest unrolling explored.
    pub frames_explored: usize,
    /// Phase-attributed wall-clock breakdown (all zero unless the check ran
    /// with [`crate::CheckerOptions::trace`] enabled).
    pub phases: PhaseNanos,
    /// Wall-clock time spent on the check.
    pub elapsed: Duration,
    /// Peak estimated live memory of the solver data structures, in bytes.
    pub peak_memory_bytes: usize,
}

impl CheckStats {
    /// Peak memory in megabytes (the unit of the paper's Table 2).
    pub fn peak_memory_mb(&self) -> f64 {
        self.peak_memory_bytes as f64 / (1024.0 * 1024.0)
    }

    /// CPU time in seconds (the unit of the paper's Table 2).
    pub fn cpu_seconds(&self) -> f64 {
        self.elapsed.as_secs_f64()
    }

    /// Average wall-clock nanoseconds per modular arithmetic solver call
    /// (`None` when the datapath solver never ran).
    pub fn ns_per_arith_call(&self) -> Option<f64> {
        (self.arithmetic_calls > 0)
            .then(|| self.datapath_nanos as f64 / self.arithmetic_calls as f64)
    }

    /// Fraction of datapath resolutions that reused a cached island topology
    /// (`None` when the datapath solver never ran).
    pub fn island_cache_hit_rate(&self) -> Option<f64> {
        let total = self.island_cache_hits + self.island_cache_misses;
        (total > 0).then(|| self.island_cache_hits as f64 / total as f64)
    }

    /// Merges the counters of a sub-check (e.g. one bound of the bounded
    /// search) into an aggregate.
    pub fn absorb(&mut self, other: &CheckStats) {
        self.decisions += other.decisions;
        self.datapath_splits += other.datapath_splits;
        self.conflicts += other.conflicts;
        self.backtracks += other.backtracks;
        self.implication.absorb(&other.implication);
        self.arithmetic_calls += other.arithmetic_calls;
        self.datapath_nanos += other.datapath_nanos;
        self.island_cache_hits += other.island_cache_hits;
        self.island_cache_misses += other.island_cache_misses;
        self.justify_gates_rechecked += other.justify_gates_rechecked;
        self.frames_explored = self.frames_explored.max(other.frames_explored);
        self.phases.absorb(&other.phases);
        self.elapsed += other.elapsed;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
    }
}

impl fmt::Display for CheckStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cpu {:.2}s, mem {:.2}MB, {} decisions ({} datapath splits), {} conflicts, {} backtracks, {} implications, {} arith calls, {} justify rechecks, {} frames",
            self.cpu_seconds(),
            self.peak_memory_mb(),
            self.decisions,
            self.datapath_splits,
            self.conflicts,
            self.backtracks,
            self.implication.gate_evaluations,
            self.arithmetic_calls,
            self.justify_gates_rechecked,
            self.frames_explored
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_and_absorb() {
        let mut a = CheckStats {
            decisions: 10,
            datapath_splits: 4,
            backtracks: 2,
            peak_memory_bytes: 2 * 1024 * 1024,
            elapsed: Duration::from_millis(500),
            frames_explored: 3,
            ..CheckStats::default()
        };
        let b = CheckStats {
            decisions: 5,
            datapath_splits: 1,
            backtracks: 1,
            peak_memory_bytes: 1024 * 1024,
            elapsed: Duration::from_millis(250),
            frames_explored: 7,
            ..CheckStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.decisions, 15);
        assert_eq!(a.datapath_splits, 5);
        assert_eq!(a.backtracks, 3);
        assert_eq!(a.frames_explored, 7);
        assert_eq!(a.ns_per_arith_call(), None);
        assert_eq!(a.island_cache_hit_rate(), None);
        assert!((a.peak_memory_mb() - 2.0).abs() < 1e-9);
        assert!((a.cpu_seconds() - 0.75).abs() < 1e-9);
        let text = a.to_string();
        assert!(text.contains("15 decisions (5 datapath splits)"), "{text}");
        assert!(text.contains("MB"));
    }

    #[test]
    fn display_includes_fact_hits_and_justify_rechecks() {
        let stats = CheckStats {
            justify_gates_rechecked: 22,
            ..CheckStats::default()
        };
        let text = stats.to_string();
        assert!(text.contains("22 justify rechecks"), "{text}");
    }

    #[test]
    fn implication_absorb_flows_through_check_stats() {
        let mut a = CheckStats::default();
        a.implication.gate_evaluations = 5;
        a.implication.refinements = 2;
        let mut b = CheckStats::default();
        b.implication.gate_evaluations = 7;
        b.implication.refinements = 3;
        a.absorb(&b);
        assert_eq!(a.implication.gate_evaluations, 12);
        assert_eq!(a.implication.refinements, 5);
    }

    #[test]
    fn phase_nanos_total_and_absorb() {
        let mut a = PhaseNanos {
            implication: 10,
            justification: 20,
            decision: 5,
            datapath: 30,
            sat_leaf: 15,
            backtrack: 8,
            other: 2,
        };
        assert_eq!(a.total(), 90);
        a.absorb(&a.clone());
        assert_eq!(a.total(), 180);
        assert_eq!(a.implication, 20);
        // Phases ride along in CheckStats::absorb.
        let mut outer = CheckStats::default();
        let inner = CheckStats {
            phases: a,
            ..CheckStats::default()
        };
        outer.absorb(&inner);
        assert_eq!(outer.phases.total(), 180);
    }

    #[test]
    fn datapath_metrics() {
        let mut a = CheckStats {
            arithmetic_calls: 4,
            datapath_nanos: 1000,
            island_cache_hits: 3,
            island_cache_misses: 1,
            ..CheckStats::default()
        };
        assert_eq!(a.ns_per_arith_call(), Some(250.0));
        assert_eq!(a.island_cache_hit_rate(), Some(0.75));
        let b = CheckStats {
            arithmetic_calls: 4,
            datapath_nanos: 600,
            island_cache_hits: 4,
            island_cache_misses: 0,
            ..CheckStats::default()
        };
        a.absorb(&b);
        assert_eq!(a.arithmetic_calls, 8);
        assert_eq!(a.datapath_nanos, 1600);
        assert_eq!(a.ns_per_arith_call(), Some(200.0));
        assert_eq!(a.island_cache_hit_rate(), Some(0.875));
    }
}
