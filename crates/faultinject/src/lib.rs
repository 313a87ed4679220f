//! # wlac-faultinject — deterministic fault injection and fault-tolerance primitives
//!
//! Two halves, both in service of a stack that survives its own failures:
//!
//! * **[`FaultPlan`]** — a deterministic, seed-driven description of *which*
//!   infrastructure faults to inject *where*. Production code carries a plan
//!   the same way it carries a `CancelToken`-style token: the disabled
//!   plan (the default) is a single `Option` check, allocates nothing and
//!   fires nothing, so the hot path pays nothing when chaos testing is off.
//!   An armed plan triggers engine hangs, worker panics, I/O errors and
//!   torn snapshot writes at chosen arrival counts, letting a chaos suite
//!   drive the full server stack through each fault class reproducibly.
//! * **Poison-recovering lock helpers** — [`LockExt::lock_recover`] and the
//!   [`CondvarExt`] waits. A worker that panics mid-job must not wedge every
//!   other thread behind a poisoned mutex: these helpers take the guard out
//!   of the [`std::sync::PoisonError`] and continue. They are the *only*
//!   sanctioned way to acquire shared service/server state (enforced by the
//!   clippy `unwrap_used`/`expect_used` gate in CI).
//!
//! `CancelToken`: see `wlac-atpg`'s configuration module.
//!
//! # Examples
//!
//! ```
//! use wlac_faultinject::{FaultPlan, FaultSite};
//!
//! // Disabled (the production default): nothing fires, nothing allocates.
//! let off = FaultPlan::disabled();
//! assert!(!off.is_armed());
//! assert!(!off.should_fire(FaultSite::WorkerPanic));
//!
//! // Armed: the second job to cross the WorkerPanic site panics.
//! let plan = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 2);
//! assert!(!plan.should_fire(FaultSite::WorkerPanic)); // arrival 1
//! assert!(plan.should_fire(FaultSite::WorkerPanic)); // arrival 2
//! assert!(!plan.should_fire(FaultSite::WorkerPanic)); // arrival 3
//! assert_eq!(plan.fired(FaultSite::WorkerPanic), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A point in the stack where a [`FaultPlan`] can inject a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// The core search loop stops making progress (a pathological property):
    /// [`FaultPlan::hang_until`] blocks until the release predicate — in
    /// practice the job's cancellation/deadline token — fires.
    EngineHang,
    /// A service worker panics inside job processing
    /// ([`FaultPlan::panic_point`]); the job must be quarantined and the
    /// pool must survive. Only jobs a worker dequeues cross it: a cache hit
    /// answered at submission never reaches a worker.
    WorkerPanic,
    /// A service worker panics *outside* the per-job panic fence, killing
    /// the worker thread; the supervisor must respawn it. Like
    /// [`FaultSite::WorkerPanic`], crossed only after a dequeued job.
    WorkerLoss,
    /// A snapshot write fails outright (disk full, unwritable directory):
    /// [`FaultPlan::io_error`] yields the error to return.
    SnapshotWrite,
    /// A snapshot write is torn mid-frame (kill -9 during autosave): the
    /// writer leaves a partial temp file behind and reports failure.
    SnapshotTorn,
    /// A journal append fails outright (disk full, unwritable directory):
    /// [`FaultPlan::io_error`] yields the error to return. Durability
    /// degrades; serving must continue.
    JournalAppend,
    /// A journal append is torn mid-frame (kill -9 between the frame header
    /// and its checksum): the writer leaves a partial record at the tail,
    /// which recovery must quarantine.
    JournalTorn,
    /// A hard process kill ([`FaultPlan::crash_point`] calls
    /// [`std::process::abort`]): the crash-matrix suite arms this in a
    /// subprocess to die at an exact record boundary.
    CrashPoint,
}

impl FaultSite {
    /// Every site, for iteration in reports and tests.
    pub const ALL: [FaultSite; 8] = [
        FaultSite::EngineHang,
        FaultSite::WorkerPanic,
        FaultSite::WorkerLoss,
        FaultSite::SnapshotWrite,
        FaultSite::SnapshotTorn,
        FaultSite::JournalAppend,
        FaultSite::JournalTorn,
        FaultSite::CrashPoint,
    ];

    /// Stable lower-case name (log lines, metric labels).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultSite::EngineHang => "engine_hang",
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::WorkerLoss => "worker_loss",
            FaultSite::SnapshotWrite => "snapshot_write",
            FaultSite::SnapshotTorn => "snapshot_torn",
            FaultSite::JournalAppend => "journal_append",
            FaultSite::JournalTorn => "journal_torn",
            FaultSite::CrashPoint => "crash_point",
        }
    }

    /// Parses a stable lower-case name back into a site (the inverse of
    /// [`FaultSite::as_str`]) — how the server's `--fault SITE:N` flags and
    /// post-mortem smoke scripts name sites.
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|site| site.as_str() == s)
    }

    fn index(self) -> usize {
        match self {
            FaultSite::EngineHang => 0,
            FaultSite::WorkerPanic => 1,
            FaultSite::WorkerLoss => 2,
            FaultSite::SnapshotWrite => 3,
            FaultSite::SnapshotTorn => 4,
            FaultSite::JournalAppend => 5,
            FaultSite::JournalTorn => 6,
            FaultSite::CrashPoint => 7,
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When a rule fires, relative to the per-site arrival counter (the first
/// crossing of a site is arrival 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trigger {
    /// Exactly the `n`-th arrival.
    Nth(u64),
    /// Every arrival from the `n`-th on.
    From(u64),
    /// Pseudo-randomly with probability `per_mille`/1000, derived from the
    /// plan seed and the arrival count — deterministic for a fixed seed.
    Chance { per_mille: u32 },
}

struct PlanInner {
    seed: u64,
    rules: Vec<(FaultSite, Trigger)>,
    arrivals: [AtomicU64; 8],
    fired: [AtomicU64; 8],
}

/// A deterministic fault-injection plan. See the crate docs; the default
/// ([`FaultPlan::disabled`]) is inert and free, clones share the same
/// arrival counters (like a cancellation token, not like configuration).
#[derive(Clone, Default)]
pub struct FaultPlan {
    inner: Option<Arc<PlanInner>>,
}

impl FaultPlan {
    /// The inert plan: never fires, costs one `Option` check per site
    /// crossing. This is the production default.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// An armed (but still empty) plan with the default seed. Add rules with
    /// [`FaultPlan::fire_nth`] / [`FaultPlan::fire_from`] /
    /// [`FaultPlan::fire_chance`].
    pub fn new() -> Self {
        FaultPlan::seeded(0xDAC2000)
    }

    /// An armed plan whose [`FaultPlan::fire_chance`] rules derive from
    /// `seed` — same seed, same faults, run after run.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            inner: Some(Arc::new(PlanInner {
                seed,
                rules: Vec::new(),
                arrivals: Default::default(),
                fired: Default::default(),
            })),
        }
    }

    fn with_rule(self, site: FaultSite, trigger: Trigger) -> Self {
        let inner = self.inner.unwrap_or_else(|| {
            Arc::new(PlanInner {
                seed: 0xDAC2000,
                rules: Vec::new(),
                arrivals: Default::default(),
                fired: Default::default(),
            })
        });
        // Plans are built before they are shared; a builder call after
        // cloning would silently fork the counters, so insist on uniqueness.
        let mut inner = Arc::try_unwrap(inner).unwrap_or_else(|arc| PlanInner {
            seed: arc.seed,
            rules: arc.rules.clone(),
            arrivals: Default::default(),
            fired: Default::default(),
        });
        inner.rules.push((site, trigger));
        FaultPlan {
            inner: Some(Arc::new(inner)),
        }
    }

    /// Fires exactly on the `n`-th crossing of `site` (1-based).
    pub fn fire_nth(self, site: FaultSite, n: u64) -> Self {
        self.with_rule(site, Trigger::Nth(n.max(1)))
    }

    /// Fires on every crossing of `site` from the `n`-th on (1-based).
    pub fn fire_from(self, site: FaultSite, n: u64) -> Self {
        self.with_rule(site, Trigger::From(n.max(1)))
    }

    /// Fires pseudo-randomly on ~`per_mille`/1000 of crossings,
    /// deterministically derived from the plan seed and the arrival count.
    pub fn fire_chance(self, site: FaultSite, per_mille: u32) -> Self {
        self.with_rule(
            site,
            Trigger::Chance {
                per_mille: per_mille.min(1000),
            },
        )
    }

    /// `true` when any rule is loaded — the cheap guard production code may
    /// use to skip fault bookkeeping entirely.
    pub fn is_armed(&self) -> bool {
        self.inner.is_some()
    }

    /// Counts an arrival at `site` and reports whether a rule fires for it.
    /// The disabled plan always answers `false` without counting.
    pub fn should_fire(&self, site: FaultSite) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        let arrival = inner.arrivals[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
        let fire = inner.rules.iter().any(|(s, trigger)| {
            *s == site
                && match *trigger {
                    Trigger::Nth(n) => arrival == n,
                    Trigger::From(n) => arrival >= n,
                    Trigger::Chance { per_mille } => {
                        splitmix64(inner.seed ^ (site.index() as u64) << 32 ^ arrival) % 1000
                            < per_mille as u64
                    }
                }
        });
        if fire {
            inner.fired[site.index()].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// How often `site` has actually fired on this plan (all clones).
    pub fn fired(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.fired[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// How often `site` has been crossed (fired or not) on this plan.
    pub fn arrivals(&self, site: FaultSite) -> u64 {
        self.inner
            .as_ref()
            .map(|inner| inner.arrivals[site.index()].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Injected hang: when a rule fires for `site`, blocks until `released`
    /// answers `true` (callers pass their cancellation/deadline check) and
    /// returns `true`; otherwise returns `false` immediately. The hang polls
    /// cooperatively — exactly like a real engine stuck in a pathological
    /// search loop that still honours its cancel token.
    pub fn hang_until(&self, site: FaultSite, released: impl Fn() -> bool) -> bool {
        if !self.should_fire(site) {
            return false;
        }
        while !released() {
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Injected panic: panics (with a recognisable message) when a rule
    /// fires for `site`.
    ///
    /// # Panics
    ///
    /// That is the point.
    pub fn panic_point(&self, site: FaultSite) {
        if self.should_fire(site) {
            panic!("injected fault: {site}");
        }
    }

    /// Injected I/O failure: the error to return when a rule fires for
    /// `site`, `None` otherwise.
    pub fn io_error(&self, site: FaultSite) -> Option<std::io::Error> {
        self.should_fire(site)
            .then(|| std::io::Error::other(format!("injected fault: {site}")))
    }

    /// Injected hard kill: calls [`std::process::abort`] when a rule fires
    /// for `site` — no unwinding, no destructors, no flushing, exactly like
    /// `kill -9` at that instruction. The crash-matrix suite arms this in a
    /// spawned server process to die at a chosen record boundary.
    pub fn crash_point(&self, site: FaultSite) {
        if self.should_fire(site) {
            std::process::abort();
        }
    }
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("FaultPlan");
        match &self.inner {
            None => s.field("armed", &false).finish(),
            Some(inner) => s
                .field("armed", &true)
                .field("seed", &inner.seed)
                .field("rules", &inner.rules.len())
                .finish(),
        }
    }
}

/// SplitMix64 step — the workspace-standard seeding permutation, reproduced
/// here so the crate stays dependency-free (it sits below `wlac-rng`'s
/// users in the graph).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// --- poison recovery ---------------------------------------------------------

/// Poison-recovering mutex acquisition.
///
/// A panicking worker poisons every mutex it holds; the shared service state
/// (queues, caches, batch tables) must keep serving regardless — the
/// panicked *job* is quarantined, the *data* is still consistent because
/// jobs never panic while mutating it (locks are released around the race).
/// `lock_recover` therefore takes the guard out of the poison error instead
/// of propagating the panic to innocent threads.
pub trait LockExt<T> {
    /// Locks, recovering from poison.
    fn lock_recover(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn lock_recover(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-recovering condition-variable waits, the counterpart of
/// [`LockExt::lock_recover`] for the blocking side.
pub trait CondvarExt {
    /// Waits, recovering from poison.
    fn wait_recover<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>;

    /// Waits with a timeout, recovering from poison; the `bool` is `true`
    /// when the wait timed out.
    fn wait_timeout_recover<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool);

    /// Waits until `deadline`, recovering from poison; the `bool` is `true`
    /// when the deadline passed without a notification.
    fn wait_deadline_recover<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool);
}

impl CondvarExt for Condvar {
    fn wait_recover<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn wait_timeout_recover<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match self.wait_timeout(guard, timeout) {
            Ok((guard, result)) => (guard, result.timed_out()),
            Err(poisoned) => {
                let (guard, result) = poisoned.into_inner();
                (guard, result.timed_out())
            }
        }
    }

    fn wait_deadline_recover<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Instant,
    ) -> (MutexGuard<'a, T>, bool) {
        let now = Instant::now();
        if now >= deadline {
            return (guard, true);
        }
        self.wait_timeout_recover(guard, deadline - now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn disabled_plan_is_inert_and_free() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_armed());
        for site in FaultSite::ALL {
            assert!(!plan.should_fire(site));
            assert_eq!(plan.arrivals(site), 0, "disabled plans must not count");
            assert_eq!(plan.fired(site), 0);
        }
        assert!(plan.io_error(FaultSite::SnapshotWrite).is_none());
        assert!(!plan.hang_until(FaultSite::EngineHang, || false));
        plan.panic_point(FaultSite::WorkerPanic); // must not panic
        assert!(format!("{plan:?}").contains("false"));
    }

    #[test]
    fn nth_fires_exactly_once() {
        let plan = FaultPlan::new().fire_nth(FaultSite::SnapshotWrite, 3);
        let fires: Vec<bool> = (0..6)
            .map(|_| plan.should_fire(FaultSite::SnapshotWrite))
            .collect();
        assert_eq!(fires, [false, false, true, false, false, false]);
        assert_eq!(plan.fired(FaultSite::SnapshotWrite), 1);
        assert_eq!(plan.arrivals(FaultSite::SnapshotWrite), 6);
    }

    #[test]
    fn from_fires_forever_after() {
        let plan = FaultPlan::new().fire_from(FaultSite::SnapshotWrite, 2);
        let fires: Vec<bool> = (0..4)
            .map(|_| plan.should_fire(FaultSite::SnapshotWrite))
            .collect();
        assert_eq!(fires, [false, true, true, true]);
    }

    #[test]
    fn sites_count_independently() {
        let plan = FaultPlan::new()
            .fire_nth(FaultSite::WorkerPanic, 1)
            .fire_nth(FaultSite::SnapshotTorn, 2);
        assert!(plan.should_fire(FaultSite::WorkerPanic));
        assert!(!plan.should_fire(FaultSite::SnapshotTorn));
        assert!(plan.should_fire(FaultSite::SnapshotTorn));
    }

    #[test]
    fn clones_share_counters() {
        let plan = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 2);
        let clone = plan.clone();
        assert!(!clone.should_fire(FaultSite::WorkerPanic));
        assert!(plan.should_fire(FaultSite::WorkerPanic), "arrival 2 fires");
        assert_eq!(clone.fired(FaultSite::WorkerPanic), 1);
    }

    #[test]
    fn chance_is_deterministic_per_seed() {
        let a = FaultPlan::seeded(7).fire_chance(FaultSite::EngineHang, 500);
        let b = FaultPlan::seeded(7).fire_chance(FaultSite::EngineHang, 500);
        let run = |plan: &FaultPlan| -> Vec<bool> {
            (0..64)
                .map(|_| plan.should_fire(FaultSite::EngineHang))
                .collect()
        };
        let fires = run(&a);
        assert_eq!(fires, run(&b), "same seed, same faults");
        let hits = fires.iter().filter(|f| **f).count();
        assert!(hits > 8 && hits < 56, "~50% chance, got {hits}/64");
    }

    #[test]
    fn hang_until_blocks_until_released() {
        let plan = FaultPlan::new().fire_nth(FaultSite::EngineHang, 1);
        let released = AtomicBool::new(false);
        let hung = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                released.store(true, Ordering::Release);
            });
            plan.hang_until(FaultSite::EngineHang, || released.load(Ordering::Acquire))
        });
        assert!(hung);
        assert!(released.load(Ordering::Acquire));
    }

    #[test]
    fn panic_point_panics_with_site_name() {
        let plan = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 1);
        let caught = std::panic::catch_unwind(|| plan.panic_point(FaultSite::WorkerPanic));
        let message = *caught
            .expect_err("must panic")
            .downcast::<String>()
            .expect("string payload");
        assert!(message.contains("worker_panic"), "{message}");
    }

    #[test]
    fn io_error_names_the_site() {
        let plan = FaultPlan::new().fire_nth(FaultSite::SnapshotWrite, 1);
        let error = plan
            .io_error(FaultSite::SnapshotWrite)
            .expect("first arrival fires");
        assert!(error.to_string().contains("snapshot_write"));
        assert!(plan.io_error(FaultSite::SnapshotWrite).is_none());
    }

    #[test]
    fn lock_recover_survives_poison() {
        let mutex = Arc::new(Mutex::new(1u32));
        let clone = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = clone.lock_recover();
            panic!("poison it");
        })
        .join();
        assert!(mutex.lock().is_err(), "mutex is poisoned");
        *mutex.lock_recover() += 1;
        assert_eq!(*mutex.lock_recover(), 2);
    }

    #[test]
    fn condvar_waits_recover_and_report_timeouts() {
        let pair = (Mutex::new(false), Condvar::new());
        let guard = pair.0.lock_recover();
        let (guard, timed_out) = pair.1.wait_timeout_recover(guard, Duration::from_millis(5));
        assert!(timed_out);
        let (guard, timed_out) = pair
            .1
            .wait_deadline_recover(guard, Instant::now() - Duration::from_secs(1));
        assert!(timed_out, "past deadline times out immediately");
        drop(guard);
    }
}
