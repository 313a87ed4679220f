//! Enforces the hot-path allocation contract:
//!
//! 1. steady-state word-level implication (refine → propagate to fixed point
//!    → backtrack) performs **zero heap allocations** for nets up to 128 bits
//!    wide;
//! 2. steady-state *decision search* — seeding, implication, justification
//!    frontiers, decision cuts, bias ordering, chronological backtracking,
//!    all the way to an exhaustive Unsat — also performs **zero heap
//!    allocations** on a control-only circuit (the PR 3 win: the residual
//!    ~1.2 allocs/gate-eval of per-decision bookkeeping are gone);
//! 3. the satisfiable leaf (datapath concretization + result extraction)
//!    stays allocation-*light*: a small constant per search, not per gate.
//!
//! A counting global allocator wraps the system allocator; after warm-up
//! cycles have grown every reusable buffer, further cycles must not allocate.
//!
//! This file intentionally holds a single `#[test]` (running the phases
//! sequentially) so no concurrent test in the same process can perturb the
//! allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wlac_atpg::{
    CheckStats, CheckerOptions, Estg, ImplicationEngine, SearchContext, SearchGoal, SearchOutcome,
};
use wlac_bv::{Bv, Bv3, Tv};
use wlac_netlist::{NetId, Netlist};
use wlac_telemetry::{ProgressCell, ProgressHandle};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Runs `work` several times and returns the *minimum* allocation delta.
///
/// The counter is process-global, so rare out-of-thread allocations (libtest
/// bookkeeping) can leak into a measurement window. The workloads under test
/// are deterministic: a real regression allocates in **every** attempt and
/// survives the minimum, while one-off harness noise does not.
fn min_alloc_delta(attempts: usize, mut work: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..attempts {
        let before = allocs();
        work();
        best = best.min(allocs() - before);
    }
    best
}

/// The bit of the `spare` seed left open; `d` is implied to be 0 there.
const SPARE_OPEN_BIT: usize = 5;

/// A mixed control/datapath circuit using only ≤128-bit nets: adders,
/// subtractor, mux, comparators, equality and disequality, wide Boolean
/// gates, a 3-input AND, inverter and buffer, slices, concat, zext and
/// reductions — every implication rule the hot loop exercises, with the
/// 32-bit block on the single-word path.
fn build_circuit() -> (Netlist, Vec<(NetId, Bv3)>) {
    let mut nl = Netlist::new("hot_path");
    let a = nl.input("a", 64);
    let b = nl.input("b", 64);
    let sel = nl.input("sel", 1);
    let sum = nl.add(a, b);
    let diff = nl.sub(a, b);
    let m = nl.mux(sel, sum, diff);
    let limit = nl.constant(&Bv::from_u64(64, 1 << 40));
    let below = nl.lt(m, limit);

    let wa = nl.input("wa", 128);
    let wb = nl.input("wb", 128);
    let wand = nl.and2(wa, wb);
    let wor = nl.or2(wa, wb);
    let wx = nl.xor2(wand, wor);
    let low = nl.slice(wx, 0, 64);
    let high = nl.slice(wx, 64, 64);
    let mixed = nl.xor2(low, high);
    let any = nl.reduce_or(mixed);

    // Narrow block: d must equal the zero-extended low half of c, and the
    // inverted, buffered {d[31:16], c[15:0]} must then differ from c.
    let c = nl.input("c", 32);
    let d = nl.input("d", 32);
    let flag = nl.input("flag", 1);
    let c_low = nl.slice(c, 0, 16);
    let ext = nl.zext(c_low, 32);
    let same = nl.eq(ext, d);
    let d_high = nl.slice(d, 16, 16);
    let cat = nl.concat(d_high, c_low);
    let inverted = nl.not(cat);
    let buffered = nl.buf(inverted);
    let differ = nl.ne(buffered, c);
    // `spare` must differ from `d`, and its seed matches the value `d` is
    // implied to take everywhere but one open bit, which the disequality
    // rule then fixes.
    let spare = nl.input("spare", 32);
    let apart = nl.ne(spare, d);
    let guard = nl.and_many(&[differ, flag, any, apart]);
    let ok = nl.and_many(&[below, guard, same]);
    nl.mark_output("ok", ok);

    // Seeds chosen to drive forward and backward implication without ever
    // conflicting: the requirement on `ok`, partial operand knowledge, and a
    // known select.
    let mut wa_seed = Bv3::all_x(128);
    for i in 0..32 {
        wa_seed.set_bit(i, Tv::from_bool(i % 3 == 0));
    }
    wa_seed.set_bit(127, Tv::One);
    let mut a_seed = Bv3::all_x(64);
    for i in 20..36 {
        a_seed.set_bit(i, Tv::from_bool(i % 2 == 0));
    }
    let mut c_seed = Bv3::all_x(32);
    for i in 0..16 {
        c_seed.set_bit(i, Tv::from_bool(i % 3 == 1));
    }
    let mut spare_seed = Bv3::from_u64(32, 0);
    for i in 0..16 {
        spare_seed.set_bit(i, Tv::from_bool(i % 3 == 1));
    }
    spare_seed.set_bit(SPARE_OPEN_BIT, Tv::X);
    let seeds = vec![
        (ok, Bv3::from_tv(Tv::One)),
        (sel, Bv3::from_tv(Tv::One)),
        (a, a_seed),
        (wa, wa_seed),
        (c, c_seed),
        (spare, spare_seed),
    ];
    (nl, seeds)
}

/// A control-only circuit whose requirements are unsatisfiable but force an
/// exhaustive branch-and-bound over the primary inputs: two XOR-parity trees
/// over the same eight inputs, one required odd and one required even.
/// Every branch dies in an implication conflict near the leaves, so one
/// search performs hundreds of decisions and backtracks without ever leaving
/// the control domain.
fn build_parity_circuit() -> (Netlist, Vec<(NetId, Bv3)>) {
    let mut nl = Netlist::new("parity_unsat");
    let inputs: Vec<NetId> = (0..8).map(|i| nl.input(format!("x{i}"), 1)).collect();
    let chain = |nl: &mut Netlist, nets: &[NetId]| {
        let mut acc = nets[0];
        for n in &nets[1..] {
            acc = nl.xor2(acc, *n);
        }
        acc
    };
    let odd = chain(&mut nl, &inputs);
    let even = chain(&mut nl, &inputs);
    nl.mark_output("odd", odd);
    nl.mark_output("even", even);
    let reqs = vec![(odd, Bv3::from_tv(Tv::One)), (even, Bv3::from_tv(Tv::Zero))];
    (nl, reqs)
}

/// A small satisfiable control circuit: (a & b) | c required 1.
fn build_sat_circuit() -> (Netlist, Vec<(NetId, Bv3)>) {
    let mut nl = Netlist::new("sat_leaf");
    let a = nl.input("a", 1);
    let b = nl.input("b", 1);
    let c = nl.input("c", 1);
    let ab = nl.and2(a, b);
    let y = nl.or2(ab, c);
    nl.mark_output("y", y);
    (nl, vec![(y, Bv3::from_tv(Tv::One))])
}

fn cycle(engine: &mut ImplicationEngine, netlist: &Netlist, seeds: &[(NetId, Bv3)]) {
    let mark = engine.mark();
    for (net, cube) in seeds {
        engine
            .assume(netlist, *net, cube)
            .expect("seeds are conflict-free");
    }
    engine.propagate(netlist).expect("propagation succeeds");
    engine.backtrack_to(mark);
}

/// Phase 1: refine → propagate → backtrack cycles allocate nothing.
fn propagation_phase() {
    let (netlist, seeds) = build_circuit();
    let mut engine = ImplicationEngine::new(&netlist);

    // The disequality rule fires: `spare` takes the opposite of `d`'s bit.
    let spare = netlist.find_net("spare").expect("the spare input");
    let mark = engine.mark();
    for (net, cube) in &seeds {
        engine
            .assume(&netlist, *net, cube)
            .expect("seeds are conflict-free");
    }
    engine.propagate(&netlist).expect("propagation succeeds");
    assert_eq!(engine.value(spare).bit(SPARE_OPEN_BIT), Tv::One);
    engine.backtrack_to(mark);

    // Warm-up: grows the trail, the propagator buckets and the proposal
    // scratch to their steady-state capacities.
    cycle(&mut engine, &netlist, &seeds);
    cycle(&mut engine, &netlist, &seeds);

    let evals_before = engine.stats().gate_evaluations;
    let delta = min_alloc_delta(3, || {
        for _ in 0..100 {
            cycle(&mut engine, &netlist, &seeds);
        }
    });
    let evals = (engine.stats().gate_evaluations - evals_before) / 3;
    assert!(
        evals >= 1_000,
        "the workload must exercise the hot loop (got {evals} gate evaluations)"
    );
    assert_eq!(
        delta, 0,
        "steady-state propagation must not allocate (saw {delta} allocations \
         over {evals} gate evaluations)"
    );
}

/// Phase 2: whole searches — decisions, cuts, bias ordering, backtracking,
/// exhaustion — allocate nothing once the context is warm.
fn decision_search_phase() {
    let (netlist, reqs) = build_parity_circuit();
    let mut ctx = SearchContext::new(&netlist);
    let mut estg = Estg::new();
    // ESTG conflict history evolves across searches and reshuffles the
    // decision order; disabling its *ordering influence* makes every search
    // identical so two warm-up runs provably size every buffer. Conflicts
    // are still recorded into the (bounded, warmed) ESTG map.
    let options = CheckerOptions {
        use_estg: false,
        ..CheckerOptions::default()
    };
    let deadline = Instant::now() + Duration::from_secs(120);

    let search = |ctx: &mut SearchContext, estg: &mut Estg, stats: &mut CheckStats| {
        let outcome = ctx.search(
            &netlist,
            &options,
            SearchGoal::Prove,
            &reqs,
            estg,
            deadline,
            stats,
        );
        assert_eq!(outcome, SearchOutcome::Unsat);
    };

    // Warm-up: grows every reusable buffer (trail, stack, frontiers, ESTG).
    for _ in 0..2 {
        search(&mut ctx, &mut estg, &mut CheckStats::default());
    }

    let mut stats = CheckStats::default();
    let delta = min_alloc_delta(3, || {
        for _ in 0..20 {
            search(&mut ctx, &mut estg, &mut stats);
        }
    });
    assert!(
        stats.decisions >= 1_000 && stats.backtracks >= 1_000,
        "the workload must exercise the decision loop (got {} decisions, {} backtracks)",
        stats.decisions,
        stats.backtracks
    );
    assert_eq!(
        delta, 0,
        "steady-state decision search must not allocate (saw {delta} allocations \
         over {} decisions)",
        stats.decisions
    );
}

/// Phase 2b: the same exhaustive searches with a live progress cell
/// attached still allocate nothing — probe publication is a seqlock write
/// into pre-allocated atomics, so live observability never costs the
/// steady-state search path a single allocation.
fn probed_decision_search_phase() {
    let (netlist, reqs) = build_parity_circuit();
    let mut ctx = SearchContext::new(&netlist);
    let mut estg = Estg::new();
    let cell = Arc::new(ProgressCell::new());
    let options = CheckerOptions {
        use_estg: false,
        ..CheckerOptions::default()
    }
    .with_progress(ProgressHandle::to(Arc::clone(&cell)));
    let deadline = Instant::now() + Duration::from_secs(120);

    let search = |ctx: &mut SearchContext, estg: &mut Estg, stats: &mut CheckStats| {
        let outcome = ctx.search(
            &netlist,
            &options,
            SearchGoal::Prove,
            &reqs,
            estg,
            deadline,
            stats,
        );
        assert_eq!(outcome, SearchOutcome::Unsat);
    };

    for _ in 0..2 {
        search(&mut ctx, &mut estg, &mut CheckStats::default());
    }

    let mut stats = CheckStats::default();
    let delta = min_alloc_delta(3, || {
        for _ in 0..20 {
            search(&mut ctx, &mut estg, &mut stats);
        }
    });
    let probe = cell.snapshot();
    assert!(
        probe.probes >= 1 && probe.decisions >= 1_000,
        "the workload must actually publish probes (got {} probes, {} decisions)",
        probe.probes,
        probe.decisions
    );
    assert_eq!(
        delta, 0,
        "probed steady-state decision search must not allocate (saw {delta} \
         allocations over {} decisions, {} probes)",
        stats.decisions, probe.probes
    );
}

/// Phase 3: satisfiable searches allocate only the result payload — a small
/// constant per search, not per decision or per gate.
fn sat_leaf_phase() {
    let (netlist, reqs) = build_sat_circuit();
    let mut ctx = SearchContext::new(&netlist);
    let mut estg = Estg::new();
    let options = CheckerOptions::default();
    let deadline = Instant::now() + Duration::from_secs(120);

    for _ in 0..2 {
        let outcome = ctx.search(
            &netlist,
            &options,
            SearchGoal::Witness,
            &reqs,
            &mut estg,
            deadline,
            &mut CheckStats::default(),
        );
        assert!(matches!(outcome, SearchOutcome::Sat(_)));
    }

    const RUNS: u64 = 100;
    let before = allocs();
    for _ in 0..RUNS {
        let outcome = ctx.search(
            &netlist,
            &options,
            SearchGoal::Witness,
            &reqs,
            &mut estg,
            deadline,
            &mut CheckStats::default(),
        );
        assert!(matches!(outcome, SearchOutcome::Sat(_)));
    }
    let delta = allocs() - before;
    assert!(
        delta <= 4 * RUNS,
        "the satisfiable leaf must stay allocation-light \
         (saw {delta} allocations over {RUNS} searches)"
    );
}

#[test]
fn steady_state_hot_paths_allocate_nothing_for_narrow_nets() {
    propagation_phase();
    decision_search_phase();
    probed_decision_search_phase();
    sat_leaf_phase();
}
