//! A small CDCL SAT solver (two-watched-literal propagation, first-UIP
//! clause learning, non-chronological backjumping, binary-heap VSIDS
//! decision activities, phase saving, Luby restarts and learned-clause
//! database reduction with LBD/activity-based garbage collection), used by
//! the bit-level bounded model checking baseline.

use wlac_atpg::CancelToken;

/// A literal: variable index with polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lit {
    code: u32,
}

impl Lit {
    /// Positive literal of variable `var`.
    pub fn positive(var: usize) -> Self {
        Lit {
            code: (var as u32) << 1,
        }
    }

    /// Negative literal of variable `var`.
    pub fn negative(var: usize) -> Self {
        Lit {
            code: ((var as u32) << 1) | 1,
        }
    }

    /// The underlying variable.
    pub fn var(self) -> usize {
        (self.code >> 1) as usize
    }

    /// `true` for a negated literal.
    pub fn is_negative(self) -> bool {
        self.code & 1 == 1
    }

    /// The opposite-polarity literal.
    pub fn negated(self) -> Lit {
        Lit {
            code: self.code ^ 1,
        }
    }
}

/// A CNF formula.
#[derive(Debug, Clone, Default)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

impl Cnf {
    /// Creates an empty formula.
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Allocates a fresh variable and returns its index.
    pub fn fresh_var(&mut self) -> usize {
        self.num_vars += 1;
        self.num_vars - 1
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Adds a clause (a disjunction of literals).
    pub fn add_clause(&mut self, clause: Vec<Lit>) {
        self.clauses.push(clause);
    }

    /// Approximate memory held by the formula, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.clauses.iter().map(|c| c.len() * 4 + 25).sum::<usize>() + 48
    }

    /// Solves the formula.
    ///
    /// Returns `Some(model)` (a truth value per variable) when satisfiable,
    /// `None` when unsatisfiable. `budget` bounds the number of decisions,
    /// guarding against pathological inputs; exceeding it returns `None`
    /// conservatively together with `false` in the second tuple slot.
    pub fn solve(&self, budget: u64) -> (Option<Vec<bool>>, bool) {
        self.solve_cancellable(budget, &CancelToken::new())
    }

    /// Like [`Cnf::solve`], but polls `cancel` inside the search and the
    /// unit-propagation loop; a cancelled run returns `(None, false)` (no
    /// model, incomplete), exactly like budget exhaustion.
    pub fn solve_cancellable(
        &self,
        budget: u64,
        cancel: &CancelToken,
    ) -> (Option<Vec<bool>>, bool) {
        let (model, complete, _) = self.solve_with_stats(budget, cancel);
        (model, complete)
    }

    /// Like [`Cnf::solve_cancellable`], but also returns the solver's effort
    /// counters for attribution in portfolio reports.
    pub fn solve_with_stats(
        &self,
        budget: u64,
        cancel: &CancelToken,
    ) -> (Option<Vec<bool>>, bool, SatStats) {
        let mut solver = Solver::new(self, budget, cancel.clone());
        let outcome = solver.search();
        let model = (outcome == Some(true)).then(|| {
            solver
                .assignment
                .iter()
                .map(|v| v.unwrap_or(false))
                .collect()
        });
        (model, outcome.is_some(), solver.stats)
    }
}

/// Aggregate effort counters for one CDCL run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SatStats {
    /// Branching decisions taken.
    pub decisions: u64,
    /// Conflicts analysed.
    pub conflicts: u64,
    /// Literals propagated by the watched-literal scheme.
    pub propagations: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// Clauses learned from conflicts.
    pub learned_clauses: u64,
    /// Learned clauses deleted by database reduction.
    pub deleted_clauses: u64,
}

impl SatStats {
    /// Accumulates another run's counters (e.g. across BMC unrolling depths).
    pub fn absorb(&mut self, other: &SatStats) {
        self.decisions += other.decisions;
        self.conflicts += other.conflicts;
        self.propagations += other.propagations;
        self.restarts += other.restarts;
        self.learned_clauses += other.learned_clauses;
        self.deleted_clauses += other.deleted_clauses;
    }
}

/// One clause with its learning metadata.
#[derive(Debug, Clone)]
struct Clause {
    /// Watched literals sit in positions 0 and 1.
    lits: Vec<Lit>,
    /// Bump-and-decay activity (learned clauses only).
    activity: f64,
    /// Literal block distance at learn time (0 for problem clauses).
    lbd: u32,
    /// `true` when the clause was learned (eligible for deletion).
    learned: bool,
}

/// Binary max-heap over variables ordered by VSIDS activity, with a position
/// index so membership tests and targeted sift-ups are O(1)/O(log n).
#[derive(Debug)]
struct VarOrder {
    heap: Vec<u32>,
    /// `pos[var]` is the variable's index in `heap`, or `-1` when absent.
    pos: Vec<i32>,
}

impl VarOrder {
    fn new(num_vars: usize) -> Self {
        let heap: Vec<u32> = (0..num_vars as u32).collect();
        let pos: Vec<i32> = (0..num_vars as i32).collect();
        VarOrder { heap, pos }
    }

    fn contains(&self, var: usize) -> bool {
        self.pos[var] >= 0
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if activity[self.heap[i] as usize] <= activity[self.heap[parent] as usize] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len()
                && activity[self.heap[l] as usize] > activity[self.heap[best] as usize]
            {
                best = l;
            }
            if r < self.heap.len()
                && activity[self.heap[r] as usize] > activity[self.heap[best] as usize]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a] as usize] = a as i32;
        self.pos[self.heap[b] as usize] = b as i32;
    }

    /// Inserts `var` (no-op when present).
    fn insert(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            return;
        }
        self.pos[var] = self.heap.len() as i32;
        self.heap.push(var as u32);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Restores heap order after `var`'s activity increased.
    fn bumped(&mut self, var: usize, activity: &[f64]) {
        if self.contains(var) {
            self.sift_up(self.pos[var] as usize, activity);
        }
    }

    /// Removes and returns the highest-activity variable.
    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()? as usize;
        let last = self.heap.pop().expect("non-empty heap");
        self.pos[top] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top)
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 1-based.
fn luby(mut i: u64) -> u64 {
    debug_assert!(i >= 1);
    loop {
        if (i + 1).is_power_of_two() {
            return i.div_ceil(2);
        }
        let k = 63 - (i + 1).leading_zeros() as u64;
        i -= (1u64 << k) - 1;
    }
}

/// Conflicts between restarts = `RESTART_UNIT * luby(restart_number)`.
const RESTART_UNIT: u64 = 64;

/// CDCL solver state.
///
/// Each clause of two or more literals keeps its watches in positions 0 and
/// 1; `watches[l.code]` lists the clauses currently watching literal `l`,
/// visited only when `l` becomes false, so propagation effort is proportional
/// to the watched occurrences of newly falsified literals instead of the
/// whole formula. Conflicts are analysed to the first unique implication
/// point; the learned clause drives a non-chronological backjump. Decision
/// variables are picked from a binary heap ordered by bumped-and-decayed
/// activity (VSIDS) with saved phases; Luby-scheduled restarts and periodic
/// learned-clause database reduction keep the search and the clause store
/// from degrading on large bounded-model-checking formulas.
struct Solver {
    /// Problem clauses and learned clauses, in one arena.
    clauses: Vec<Clause>,
    watches: Vec<Vec<usize>>,
    assignment: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// Clause that implied each variable (`usize::MAX` for decisions and
    /// root-level units).
    reason: Vec<usize>,
    trail: Vec<Lit>,
    /// `trail` length at the start of each decision level.
    trail_lim: Vec<usize>,
    prop_head: usize,
    root_conflict: bool,
    activity: Vec<f64>,
    activity_inc: f64,
    clause_activity_inc: f64,
    order: VarOrder,
    /// Last value assigned to each variable (phase saving).
    phase: Vec<bool>,
    /// Learned-clause count that triggers a database reduction.
    max_learnts: usize,
    learned_count: usize,
    conflicts_since_restart: u64,
    /// Scratch buffer for conflict analysis (`seen` marks).
    seen: Vec<bool>,
    /// Scratch: variables bumped during the current conflict analysis, so
    /// their heap positions can be restored after the clause borrow ends.
    bumped: Vec<u32>,
    /// Scratch for LBD computation: `lbd_seen[level] == lbd_stamp` marks a
    /// decision level as counted for the current clause (stamping avoids
    /// clearing — and allocating — a buffer per learned clause).
    lbd_seen: Vec<u64>,
    lbd_stamp: u64,
    stats: SatStats,
    budget: u64,
    cancel: CancelToken,
}

const NO_REASON: usize = usize::MAX;

impl Solver {
    fn new(cnf: &Cnf, budget: u64, cancel: CancelToken) -> Self {
        let mut this = Solver {
            clauses: Vec::with_capacity(cnf.clauses.len()),
            watches: vec![Vec::new(); cnf.num_vars * 2],
            assignment: vec![None; cnf.num_vars],
            level: vec![0; cnf.num_vars],
            reason: vec![NO_REASON; cnf.num_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            prop_head: 0,
            root_conflict: false,
            activity: vec![0.0; cnf.num_vars],
            activity_inc: 1.0,
            clause_activity_inc: 1.0,
            order: VarOrder::new(cnf.num_vars),
            phase: vec![true; cnf.num_vars],
            max_learnts: (cnf.clauses.len() / 3).max(100),
            learned_count: 0,
            conflicts_since_restart: 0,
            seen: vec![false; cnf.num_vars],
            bumped: Vec::new(),
            lbd_seen: vec![0; cnf.num_vars + 1],
            lbd_stamp: 0,
            stats: SatStats::default(),
            budget,
            cancel,
        };
        for clause in &cnf.clauses {
            match clause.as_slice() {
                [] => this.root_conflict = true,
                [unit] => {
                    if !this.enqueue(*unit, NO_REASON) {
                        this.root_conflict = true;
                    }
                }
                [a, b, ..] => {
                    let index = this.clauses.len();
                    this.watches[a.code as usize].push(index);
                    this.watches[b.code as usize].push(index);
                    this.clauses.push(Clause {
                        lits: clause.clone(),
                        activity: 0.0,
                        lbd: 0,
                        learned: false,
                    });
                }
            }
        }
        this
    }

    fn value(&self, lit: Lit) -> Option<bool> {
        self.assignment[lit.var()].map(|v| v ^ lit.is_negative())
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Assigns `lit` true and queues it for propagation; `false` when the
    /// opposite value already holds.
    fn enqueue(&mut self, lit: Lit, reason: usize) -> bool {
        match self.value(lit) {
            Some(value) => value,
            None => {
                let var = lit.var();
                self.assignment[var] = Some(!lit.is_negative());
                self.phase[var] = !lit.is_negative();
                self.level[var] = self.decision_level();
                self.reason[var] = reason;
                self.trail.push(lit);
                true
            }
        }
    }

    /// Undoes every assignment above `target_level`, returning the freed
    /// variables to the decision heap.
    fn backjump(&mut self, target_level: u32) {
        while self.decision_level() > target_level {
            let mark = self.trail_lim.pop().expect("level mark");
            while self.trail.len() > mark {
                let lit = self.trail.pop().expect("non-empty trail");
                self.assignment[lit.var()] = None;
                self.order.insert(lit.var(), &self.activity);
            }
        }
        // Everything still on the trail was propagated before the conflict.
        self.prop_head = self.trail.len();
    }

    /// Unit propagation from the current queue head; returns the index of a
    /// conflicting clause, or `None` when a fixpoint is reached.
    fn propagate(&mut self) -> Option<usize> {
        while self.prop_head < self.trail.len() {
            if self.cancel.is_cancelled() {
                // `search` notices the cancellation and aborts incomplete.
                return None;
            }
            let falsified = self.trail[self.prop_head].negated();
            self.prop_head += 1;
            self.stats.propagations += 1;
            // The watch list is rebuilt as clauses move their watch away.
            let watching = std::mem::take(&mut self.watches[falsified.code as usize]);
            let mut kept = Vec::with_capacity(watching.len());
            let mut conflict = None;
            for ci in watching {
                if conflict.is_some() {
                    kept.push(ci);
                    continue;
                }
                let clause = &mut self.clauses[ci].lits;
                // Normalise so position 1 holds the falsified watch.
                if clause[0] == falsified {
                    clause.swap(0, 1);
                }
                let other = clause[0];
                if self.assignment[other.var()].map(|v| v ^ other.is_negative()) == Some(true) {
                    kept.push(ci);
                    continue;
                }
                // Look for a non-false literal to watch instead.
                let mut moved = false;
                for k in 2..clause.len() {
                    let candidate = clause[k];
                    let candidate_false = self.assignment[candidate.var()]
                        .map(|v| v ^ candidate.is_negative())
                        == Some(false);
                    if !candidate_false {
                        clause.swap(1, k);
                        self.watches[candidate.code as usize].push(ci);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                kept.push(ci);
                // No replacement: the clause is unit (or conflicting) on
                // `other`.
                if !self.enqueue(other, ci) {
                    conflict = Some(ci);
                }
            }
            self.watches[falsified.code as usize] = kept;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// Bumps a learned clause's activity (with rescaling).
    fn bump_clause(&mut self, ci: usize) {
        let clause = &mut self.clauses[ci];
        if !clause.learned {
            return;
        }
        clause.activity += self.clause_activity_inc;
        if clause.activity > 1e20 {
            for c in self.clauses.iter_mut().filter(|c| c.learned) {
                c.activity *= 1e-20;
            }
            self.clause_activity_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis: returns the learned clause (asserting
    /// literal first) and the level to backjump to.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learned: Vec<Lit> = Vec::new();
        let mut counter = 0usize;
        let mut clause_index = conflict;
        let mut trail_index = self.trail.len();
        let mut resolved_on: Option<Lit> = None;
        let asserting = loop {
            self.bump_clause(clause_index);
            let clause = &self.clauses[clause_index].lits;
            // Skip the asserted literal (position 0) of reason clauses; the
            // initial conflict clause contributes every literal.
            let skip = usize::from(resolved_on.is_some());
            for &lit in &clause[skip..] {
                let var = lit.var();
                // Root-level literals are false for good: they are dropped
                // from the learned clause.
                if self.level[var] > 0 && !self.seen[var] {
                    self.seen[var] = true;
                    // Inlined `bump`: `clause` keeps `self.clauses` borrowed.
                    self.activity[var] += self.activity_inc;
                    self.bumped.push(var as u32);
                    if self.activity[var] > 1e100 {
                        for a in &mut self.activity {
                            *a *= 1e-100;
                        }
                        self.activity_inc *= 1e-100;
                    }
                    if self.level[var] == current {
                        counter += 1;
                    } else {
                        learned.push(lit);
                    }
                }
            }
            // Resolve on the most recent seen trail literal.
            let lit = loop {
                trail_index -= 1;
                let lit = self.trail[trail_index];
                if self.seen[lit.var()] {
                    break lit;
                }
            };
            self.seen[lit.var()] = false;
            counter -= 1;
            if counter == 0 {
                break lit.negated();
            }
            clause_index = self.reason[lit.var()];
            debug_assert_ne!(clause_index, NO_REASON, "only the UIP lacks a reason");
            resolved_on = Some(lit);
        };
        // Rescaled activities never re-sort the heap (uniform scaling keeps
        // the order); bumps do, once per touched variable.
        while let Some(var) = self.bumped.pop() {
            self.order.bumped(var as usize, &self.activity);
        }
        for lit in &learned {
            self.seen[lit.var()] = false;
        }
        // Backjump to the deepest level among the other learned literals.
        let backjump_level = learned
            .iter()
            .map(|lit| self.level[lit.var()])
            .max()
            .unwrap_or(0);
        learned.insert(0, asserting);
        (learned, backjump_level)
    }

    /// Literal block distance: number of distinct decision levels in the
    /// clause — the quality measure driving database reduction (lower is
    /// better; "glue" clauses with LBD ≤ 2 are never deleted).
    fn lbd_of(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_stamp += 1;
        let mut count = 0u32;
        for lit in lits {
            let level = self.level[lit.var()] as usize;
            if self.lbd_seen[level] != self.lbd_stamp {
                self.lbd_seen[level] = self.lbd_stamp;
                count += 1;
            }
        }
        count
    }

    /// Installs a learned clause after the backjump and asserts its first
    /// literal.
    fn learn(&mut self, mut learned: Vec<Lit>) {
        self.stats.learned_clauses += 1;
        if learned.len() == 1 {
            let ok = self.enqueue(learned[0], NO_REASON);
            debug_assert!(ok, "asserting literal is unassigned after backjump");
            return;
        }
        // Watch the asserting literal and a deepest-level other literal, so
        // the watches stay legal across future backjumps.
        let mut deepest = 1;
        for k in 2..learned.len() {
            if self.level[learned[k].var()] > self.level[learned[deepest].var()] {
                deepest = k;
            }
        }
        learned.swap(1, deepest);
        let index = self.clauses.len();
        self.watches[learned[0].code as usize].push(index);
        self.watches[learned[1].code as usize].push(index);
        let asserting = learned[0];
        let lbd = self.lbd_of(&learned);
        self.clauses.push(Clause {
            lits: learned,
            activity: self.clause_activity_inc,
            lbd,
            learned: true,
        });
        self.learned_count += 1;
        let ok = self.enqueue(asserting, index);
        debug_assert!(ok, "asserting literal is unassigned after backjump");
    }

    /// Deletes the worst half of the deletable learned clauses (kept: problem
    /// clauses, reasons of current assignments, and glue clauses with
    /// LBD ≤ 2), then rebuilds the watch lists and remaps reasons.
    fn reduce_db(&mut self) {
        // Rank deletable learned clauses: high LBD first, then low activity.
        let mut locked = vec![false; self.clauses.len()];
        for lit in &self.trail {
            let r = self.reason[lit.var()];
            if r != NO_REASON {
                locked[r] = true;
            }
        }
        let mut deletable: Vec<usize> = (0..self.clauses.len())
            .filter(|&ci| {
                let c = &self.clauses[ci];
                c.learned && c.lbd > 2 && !locked[ci]
            })
            .collect();
        deletable.sort_by(|&a, &b| {
            let (ca, cb) = (&self.clauses[a], &self.clauses[b]);
            cb.lbd
                .cmp(&ca.lbd)
                .then(ca.activity.partial_cmp(&cb.activity).expect("finite"))
        });
        let num_delete = deletable.len() / 2;
        if num_delete == 0 {
            // Nothing deletable: raise the ceiling so progress continues.
            self.max_learnts += self.max_learnts / 2 + 16;
            return;
        }
        let mut remove = vec![false; self.clauses.len()];
        for &ci in deletable.iter().take(num_delete) {
            remove[ci] = true;
        }
        // Compact the arena and remap indices.
        let mut new_index = vec![NO_REASON; self.clauses.len()];
        let mut kept = Vec::with_capacity(self.clauses.len() - num_delete);
        for (ci, clause) in std::mem::take(&mut self.clauses).into_iter().enumerate() {
            if remove[ci] {
                continue;
            }
            new_index[ci] = kept.len();
            kept.push(clause);
        }
        self.clauses = kept;
        // Remap reasons of live assignments; reasons of unassigned variables
        // are stale leftovers from undone levels and must not keep clauses
        // alive (or be remapped — their target may be gone).
        for (var, r) in self.reason.iter_mut().enumerate() {
            if *r == NO_REASON {
                continue;
            }
            if self.assignment[var].is_some() {
                *r = new_index[*r];
                debug_assert_ne!(*r, NO_REASON, "reason clause must be locked");
            } else {
                *r = NO_REASON;
            }
        }
        for list in self.watches.iter_mut() {
            list.clear();
        }
        for (ci, clause) in self.clauses.iter().enumerate() {
            self.watches[clause.lits[0].code as usize].push(ci);
            self.watches[clause.lits[1].code as usize].push(ci);
        }
        self.learned_count -= num_delete;
        self.stats.deleted_clauses += num_delete as u64;
        self.max_learnts += self.max_learnts / 10 + 16;
    }

    /// Picks the unassigned variable with the highest activity from the
    /// decision heap.
    fn pick_branch(&mut self) -> Option<usize> {
        while let Some(var) = self.order.pop(&self.activity) {
            if self.assignment[var].is_none() {
                return Some(var);
            }
        }
        None
    }

    /// Returns `Some(true)` for SAT, `Some(false)` for UNSAT, `None` when the
    /// decision budget is exhausted or the run is cancelled.
    fn search(&mut self) -> Option<bool> {
        if self.root_conflict {
            return Some(false);
        }
        let mut restart_limit = RESTART_UNIT * luby(1);
        loop {
            if self.cancel.is_cancelled() {
                return None;
            }
            if let Some(conflict) = self.propagate() {
                if self.decision_level() == 0 {
                    return Some(false);
                }
                self.stats.conflicts += 1;
                self.conflicts_since_restart += 1;
                let (learned, backjump_level) = self.analyze(conflict);
                self.backjump(backjump_level);
                self.learn(learned);
                self.activity_inc /= 0.95;
                self.clause_activity_inc /= 0.999;
                continue;
            }
            if self.cancel.is_cancelled() {
                return None;
            }
            if self.conflicts_since_restart >= restart_limit {
                // Luby restart: drop to the root level, keep activities,
                // phases and learned clauses; reduce the database when it
                // outgrew its budget.
                self.stats.restarts += 1;
                self.conflicts_since_restart = 0;
                restart_limit = RESTART_UNIT * luby(self.stats.restarts + 1);
                self.backjump(0);
                if self.learned_count > self.max_learnts {
                    self.reduce_db();
                }
                continue;
            }
            let Some(var) = self.pick_branch() else {
                return Some(true);
            };
            if self.stats.decisions >= self.budget {
                return None;
            }
            self.stats.decisions += 1;
            self.trail_lim.push(self.trail.len());
            let lit = if self.phase[var] {
                Lit::positive(var)
            } else {
                Lit::negative(var)
            };
            self.enqueue(lit, NO_REASON);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, positive: bool) -> Lit {
        if positive {
            Lit::positive(v)
        } else {
            Lit::negative(v)
        }
    }

    #[test]
    fn literal_encoding() {
        let l = Lit::positive(5);
        assert_eq!(l.var(), 5);
        assert!(!l.is_negative());
        assert!(l.negated().is_negative());
        assert_eq!(l.negated().negated(), l);
    }

    #[test]
    fn satisfiable_and_unsat_formulas() {
        // (a | b) & (!a | b) & (a | !b) is satisfied by a=b=1.
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause(vec![lit(a, true), lit(b, true)]);
        cnf.add_clause(vec![lit(a, false), lit(b, true)]);
        cnf.add_clause(vec![lit(a, true), lit(b, false)]);
        let (model, complete) = cnf.solve(1_000);
        assert!(complete);
        let model = model.expect("satisfiable");
        assert!(model[a] && model[b]);
        // Adding (!a | !b) makes it unsatisfiable.
        cnf.add_clause(vec![lit(a, false), lit(b, false)]);
        let (model, complete) = cnf.solve(1_000);
        assert!(complete);
        assert!(model.is_none());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_three_into_two_is_unsat() {
        // Variables p[i][j]: pigeon i in hole j.
        let mut cnf = Cnf::new();
        let p: Vec<Vec<usize>> = (0..3)
            .map(|_| (0..2).map(|_| cnf.fresh_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| lit(*v, true)).collect());
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in i1 + 1..3 {
                    cnf.add_clause(vec![lit(p[i1][j], false), lit(p[i2][j], false)]);
                }
            }
        }
        let (model, complete) = cnf.solve(100_000);
        assert!(complete);
        assert!(model.is_none());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn larger_pigeonhole_is_solved_by_learning() {
        // 7 pigeons into 6 holes: hopeless for chronological DPLL within a
        // small budget, quick with clause learning + backjumping.
        let (pigeons, holes) = (7usize, 6usize);
        let mut cnf = Cnf::new();
        let p: Vec<Vec<usize>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.fresh_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| lit(*v, true)).collect());
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in i1 + 1..pigeons {
                    cnf.add_clause(vec![lit(p[i1][j], false), lit(p[i2][j], false)]);
                }
            }
        }
        let (model, complete) = cnf.solve(200_000);
        assert!(complete, "learning should settle PHP(7,6) in budget");
        assert!(model.is_none());
    }

    #[test]
    fn xor_chain_models_are_consistent() {
        // x0 ^ x1 ^ x2 = 1 encoded as 4 clauses; every returned model must
        // satisfy the parity.
        let mut cnf = Cnf::new();
        let x: Vec<usize> = (0..3).map(|_| cnf.fresh_var()).collect();
        for bits in 0..8u32 {
            let parity = bits.count_ones() % 2;
            let clause: Vec<Lit> = (0..3).map(|i| lit(x[i], (bits >> i) & 1 == 0)).collect();
            if parity == 0 {
                // Forbid even-parity assignments.
                cnf.add_clause(clause);
            }
        }
        let (model, complete) = cnf.solve(1_000);
        assert!(complete);
        let model = model.expect("odd parity is achievable");
        let ones = x.iter().filter(|v| model[**v]).count();
        assert_eq!(ones % 2, 1);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..30).map(|_| cnf.fresh_var()).collect();
        // Independent "exactly one of the pair" constraints: each pair needs
        // its own decision, exceeding the one-decision budget.
        for w in vars.chunks(2) {
            cnf.add_clause(vec![lit(w[0], true), lit(w[1], true)]);
            cnf.add_clause(vec![lit(w[0], false), lit(w[1], false)]);
        }
        let (_, complete) = cnf.solve(1);
        assert!(!complete);
        assert!(cnf.memory_bytes() > 0);
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[allow(clippy::needless_range_loop)]
    fn php(pigeons: usize, holes: usize) -> Cnf {
        let mut cnf = Cnf::new();
        let p: Vec<Vec<usize>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.fresh_var()).collect())
            .collect();
        for row in &p {
            cnf.add_clause(row.iter().map(|v| lit(*v, true)).collect());
        }
        for j in 0..holes {
            for i1 in 0..pigeons {
                for i2 in i1 + 1..pigeons {
                    cnf.add_clause(vec![lit(p[i1][j], false), lit(p[i2][j], false)]);
                }
            }
        }
        cnf
    }

    #[test]
    fn stats_report_restarts_learning_and_db_reduction() {
        // PHP(8,7) produces thousands of conflicts: enough to exercise Luby
        // restarts and at least one learned-clause database reduction.
        let cnf = php(8, 7);
        let (model, complete, stats) = cnf.solve_with_stats(2_000_000, &CancelToken::new());
        assert!(complete, "PHP(8,7) must be decided");
        assert!(model.is_none(), "PHP(8,7) is UNSAT");
        assert!(stats.conflicts > 100);
        assert!(stats.learned_clauses > 100);
        assert!(stats.restarts > 0, "Luby restarts must fire");
        assert!(
            stats.deleted_clauses > 0,
            "database reduction must garbage-collect learned clauses"
        );
        assert!(stats.propagations > stats.conflicts);
        assert!(stats.decisions > 0);
        // The search is deterministic, so its counters pin it: a change to
        // decisions, propagation, analysis, restarts or reduction moves them.
        assert_eq!(
            stats,
            SatStats {
                decisions: 6_345,
                conflicts: 4_985,
                propagations: 68_975,
                restarts: 30,
                learned_clauses: 4_985,
                deleted_clauses: 3_650,
            }
        );
    }

    #[test]
    fn db_reduction_preserves_soundness_on_satisfiable_formulas() {
        // A satisfiable formula with structure: a long xor-like chain plus
        // random-ish binary clauses. The solver must still return a model
        // that satisfies every clause after restarts and reductions.
        let mut cnf = Cnf::new();
        let vars: Vec<usize> = (0..60).map(|_| cnf.fresh_var()).collect();
        for w in vars.windows(3) {
            cnf.add_clause(vec![lit(w[0], true), lit(w[1], true), lit(w[2], true)]);
            cnf.add_clause(vec![lit(w[0], false), lit(w[1], false), lit(w[2], false)]);
        }
        let (model, complete, _) = cnf.solve_with_stats(1_000_000, &CancelToken::new());
        assert!(complete);
        let model = model.expect("satisfiable");
        for w in vars.windows(3) {
            let ones = w.iter().filter(|v| model[**v]).count();
            assert!((1..=2).contains(&ones));
        }
    }

    #[test]
    fn cancelled_solve_is_incomplete() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh_var();
        let b = cnf.fresh_var();
        cnf.add_clause(vec![lit(a, true), lit(b, true)]);
        let cancel = CancelToken::new();
        cancel.cancel();
        let (model, complete) = cnf.solve_cancellable(1_000, &cancel);
        assert!(model.is_none());
        assert!(!complete);
    }
}
