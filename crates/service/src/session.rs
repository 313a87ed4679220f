//! The long-lived verification session: design registry, work queue, worker
//! pool and verdict cache.
//!
//! A [`VerificationService`] is the front door for batch traffic. Callers
//! [`VerificationService::submit`] jobs that name a registered design by
//! hash (or hand whole netlists to [`VerificationService::submit_batch`]),
//! follow them with [`VerificationService::batch_progress`] and fetch
//! [`VerificationService::results`].
//!
//! `submit` answers from the **verdict cache** every job whose exact
//! (design hash, property hash, config) triple was decided before, under
//! one cache lock and before it returns: no engine spawns, no netlist is
//! touched and no worker is woken, so a hit costs a lookup. Only the misses
//! are queued, and a pool of worker threads drains the queue. A queued job
//! holds no netlist. Per job the worker
//!
//! 1. answers from the cache after all when the job became a hit while it
//!    queued (an identical job raced ahead of it);
//! 2. otherwise copies the registered netlist into the race's
//!    [`Verification`];
//! 3. races the configured engines, hedged as [`Portfolio::race`] describes,
//!    and caches the verdict. The race runs its engines one at a time on
//!    the worker's own thread, so a worker runs at most one engine at a
//!    time and [`ServiceConfig::workers`] bounds the service's engine
//!    threads.
//!
//! Every race may start the same engines, whatever ran on the design
//! before: the engines a verdict can come from do not depend on the
//! properties raced before it.
//!
//! Every engine of the race runs cold: ATPG is
//! [`wlac_atpg::AssertionChecker::check`], the check Table 2 runs, with its
//! own ESTG, and SAT BMC solves every query from scratch. So a property's
//! search does not depend on which properties of its design ran first, and
//! a design keeps only its netlist and its cached verdicts.

use crate::durability::{DurabilityHook, DurabilityRecord};
use crate::faultreport::{FaultReport, FaultReportHook};
use crate::hash::{config_fingerprint, design_hash, property_hash, DesignHash, PropertyHash};
use crate::knowledge::{KnowledgeBase, KnowledgeError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wlac_atpg::{Property, Verification};
use wlac_faultinject::{CondvarExt, FaultPlan, FaultSite, LockExt};
use wlac_netlist::{NetId, Netlist};
use wlac_portfolio::{
    Engine, EngineStats, Portfolio, PortfolioConfig, PortfolioReport, RaceProgress, Verdict,
};
use wlac_telemetry::{
    Counter, MetricsRegistry, ProgressProbe, RecorderHandle, RecorderKind, RecorderLayer,
};

/// One job by reference: a property of a design already registered with the
/// service. Submitting it copies no netlist; a job naming a design that was
/// never registered completes with an `Unknown` verdict.
#[derive(Debug, Clone)]
pub struct Job {
    /// The registered design, as returned by
    /// [`VerificationService::register_design`].
    pub design: DesignHash,
    /// The property; its monitor is a net of the registered netlist.
    pub property: Property,
    /// Environment constraint monitors (single-bit nets of the registered
    /// netlist required to be 1 in every frame).
    pub environment: Vec<NetId>,
}

/// Handle to a submitted batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchId(u64);

impl BatchId {
    /// The raw handle value (stable within one session), e.g. for logging or
    /// an RPC wire format.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a handle from [`BatchId::raw`]. A value that never came from
    /// this session simply resolves to no batch.
    pub fn from_raw(raw: u64) -> Self {
        BatchId(raw)
    }
}

impl std::fmt::Display for BatchId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "batch#{}", self.0)
    }
}

/// A live snapshot of one in-flight job: identity plus the aggregated
/// progress probe of its engine race, read lock-free from the race's
/// [`RaceProgress`] cells.
#[derive(Debug, Clone)]
pub struct JobProgress {
    /// Session-unique job id (the one stamped into flight-recorder events).
    pub job: u64,
    /// Batch the job belongs to.
    pub batch: BatchId,
    /// Position within its batch.
    pub index: usize,
    /// Property name.
    pub property: String,
    /// Design the job runs against.
    pub design: DesignHash,
    /// Wall-clock time since the job was dequeued.
    pub elapsed: Duration,
    /// The engine currently deepest into the search, when any engine has
    /// published.
    pub leading: Option<Engine>,
    /// Aggregated effort counters across the race's engines.
    pub probe: ProgressProbe,
}

/// A point-in-time view of one batch: completion counts plus a live
/// [`JobProgress`] for each of its jobs still racing.
#[derive(Debug, Clone)]
pub struct BatchProgress {
    /// Jobs in the batch.
    pub total: usize,
    /// Jobs finished.
    pub completed: usize,
    /// The batch's in-flight jobs (dequeued, racing, not yet completed).
    pub running: Vec<JobProgress>,
}

impl BatchProgress {
    /// `true` when every job has a result.
    pub fn done(&self) -> bool {
        self.completed == self.total
    }
}

/// The result of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Property name (from the submitted verification).
    pub property: String,
    /// Design the job ran against.
    pub design: DesignHash,
    /// The combined verdict.
    pub verdict: Verdict,
    /// Engine that produced the verdict (`None` for cache hits and undecided
    /// jobs).
    pub winner: Option<Engine>,
    /// `true` when the verdict came straight from the cache.
    pub from_cache: bool,
    /// Engines the race actually started: 0 for cache hits, 1 when the
    /// hedged race's lead decided within its head start, and otherwise the
    /// lead and each engine that took its turn before one decided, at most
    /// the configured engines.
    pub engines_spawned: usize,
    /// Wall-clock time from dequeue to result; for a hit answered at
    /// submission, from its cache lookup to its result.
    pub wall: Duration,
}

/// Default bound of the verdict cache (entries across all designs).
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default number of already-retrieved batches kept for late `results` /
/// `progress` calls.
pub const DEFAULT_RETAINED_BATCHES: usize = 1024;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Portfolio configuration used for every race; each worker races one
    /// job at a time.
    pub portfolio: PortfolioConfig,
    /// Worker threads draining the job queue. A worker runs its race's
    /// engines on its own thread, one at a time, so this also bounds the
    /// engines running at once.
    pub workers: usize,
    /// Has no effect: every race starts the configured engines. Kept only
    /// because the benchmark package (`perfbench/`) still sets it; it goes
    /// when ROADMAP item 3 un-pins that package.
    pub predict: bool,
    /// Verdict-cache bound; the least-recently-used entry is evicted when a
    /// new verdict would exceed it. Zero disables caching entirely.
    pub cache_capacity: usize,
    /// How many already-retrieved batches to keep for late
    /// `results`/`progress` calls before the oldest are evicted. Unretrieved
    /// batches are never evicted.
    pub retained_batches: usize,
    /// Fault-injection plan threaded through workers and engines; a server
    /// crosses its journal and snapshot-write sites on the same plan. The
    /// disabled default is free; chaos tests arm it.
    pub faults: FaultPlan,
    /// Durability hook: every completed raced job is offered to the attached
    /// [`DurabilitySink`](crate::DurabilitySink) *before* its result is
    /// published, so a write-ahead journal sees the record ahead of any
    /// acknowledgement. The disabled default is free.
    pub durability: DurabilityHook,
    /// Flight-recorder handle: workers stamp dequeue/cache-hit/fault/finish
    /// events (and thread a per-job handle through every race) into the
    /// attached ring. The disabled default is free.
    pub recorder: RecorderHandle,
    /// Fault-report hook: every contained fault (quarantine, timeout) is
    /// described to the attached [`FaultSink`](crate::FaultSink) — the
    /// server's post-mortem dump writer. The disabled default is free.
    pub fault_report: FaultReportHook,
}

impl ServiceConfig {
    /// Defaults: the default portfolio, one worker per available CPU and a
    /// [`DEFAULT_CACHE_CAPACITY`]-entry verdict cache.
    pub fn new() -> Self {
        ServiceConfig {
            portfolio: PortfolioConfig::default(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4),
            predict: true,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            retained_batches: DEFAULT_RETAINED_BATCHES,
            faults: FaultPlan::disabled(),
            durability: DurabilityHook::disabled(),
            recorder: RecorderHandle::disabled(),
            fault_report: FaultReportHook::disabled(),
        }
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::new()
    }
}

/// Aggregate service counters. The event counts are read from the
/// service's metrics registry, so they equal the `service_*_total` counters
/// the `metrics` exposition shows; the rest are point-in-time sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Registered designs.
    pub designs: usize,
    /// Jobs answered from the verdict cache.
    pub cache_hits: u64,
    /// Jobs that had to race engines.
    pub cache_misses: u64,
    /// Verdicts evicted from the cache by the LRU bound.
    pub cache_evictions: u64,
    /// Verdicts currently cached (≤ the configured capacity).
    pub cached_verdicts: usize,
    /// Jobs whose processing panicked and were quarantined (completed with
    /// an error verdict; the worker survived).
    pub quarantined_jobs: u64,
    /// Jobs that exceeded their wall-clock budget and completed as
    /// [`Verdict::Timeout`].
    pub timed_out_jobs: u64,
    /// Worker threads the supervisor respawned after a loss.
    pub workers_respawned: u64,
    /// Worker threads currently alive (spawned minus finished). Below the
    /// configured pool size it means a lost worker has not been respawned
    /// yet — the readiness signal the server's health op watches.
    pub workers_alive: usize,
    /// Jobs queued but not yet dequeued by a worker.
    pub queue_depth: usize,
    /// Jobs dequeued and currently racing engines.
    pub running_jobs: usize,
}

impl ServiceStats {
    /// Cache hit rate over all completed jobs (0 when nothing completed).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    design: DesignHash,
    property: PropertyHash,
    config: u64,
}

#[derive(Clone)]
struct CachedVerdict {
    verdict: Verdict,
    winner: Option<Engine>,
}

/// One exported verdict-cache entry: everything needed to re-answer the
/// exact (design, property, config) query in a later session.
#[derive(Debug, Clone)]
pub struct VerdictRecord {
    /// Hash of the property within the design.
    pub property: PropertyHash,
    /// Fingerprint of the verdict-affecting portfolio configuration.
    pub config: u64,
    /// The cached (always definitive) verdict.
    pub verdict: Verdict,
    /// The engine that produced it, when known.
    pub winner: Option<Engine>,
}

/// Structural validation of verdicts offered from outside (a persisted
/// snapshot or journal): any attached trace must name existing nets with
/// values of the exact net width, and only definitive verdicts are
/// cacheable. An `Unknown` must never shadow a future run that could decide
/// the job, and a trace over foreign nets would panic (or silently lie) on
/// replay.
fn check_verdicts(records: &[VerdictRecord], netlist: &Netlist) -> Result<(), KnowledgeError> {
    let well_formed = |verdict: &Verdict| {
        let ok = |pairs: &[(NetId, wlac_bv::Bv)]| {
            pairs.iter().all(|(net, value)| {
                net.index() < netlist.net_count() && value.width() == netlist.net_width(*net)
            })
        };
        verdict.is_definitive()
            && verdict.trace().is_none_or(|trace| {
                ok(&trace.initial_state) && trace.inputs.iter().all(|cycle| ok(cycle))
            })
    };
    match records.iter().position(|r| !well_formed(&r.verdict)) {
        Some(index) => Err(KnowledgeError::MalformedVerdict { index }),
        None => Ok(()),
    }
}

/// Slack of the verdict cache's recency queue over its live entries: the
/// queue is compacted once it holds more than twice the entries plus this.
const RECENCY_SLACK: usize = 64;

/// Bounded verdict cache with exact least-recently-used eviction.
///
/// Lookups and inserts stamp the entry with a logical clock and append
/// `(stamp, key)` to a recency queue, so the queue runs oldest first and
/// each entry's current stamp sits in it exactly once. Eviction pops the
/// queue until it reaches a stamp that is still an entry's current one: the
/// least recently used entry. Stale pairs are skipped there, and the queue
/// is compacted in place once it outgrows twice the entries, so a lookup or
/// an insert costs amortized O(1) under the lock every lookup takes.
struct VerdictCache {
    entries: HashMap<CacheKey, (CachedVerdict, u64)>,
    recency: VecDeque<(u64, CacheKey)>,
    capacity: usize,
    clock: u64,
    /// `service_cache_evictions_total`.
    evictions: Arc<Counter>,
}

impl VerdictCache {
    fn new(capacity: usize, evictions: Arc<Counter>) -> Self {
        VerdictCache {
            entries: HashMap::new(),
            recency: VecDeque::new(),
            capacity,
            clock: 0,
            evictions,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<CachedVerdict> {
        self.clock += 1;
        let clock = self.clock;
        let (cached, stamp) = self.entries.get_mut(key)?;
        *stamp = clock;
        let cached = cached.clone();
        self.touch(clock, *key);
        Some(cached)
    }

    fn insert(&mut self, key: CacheKey, cached: CachedVerdict) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            while let Some((stamp, oldest)) = self.recency.pop_front() {
                if is_current(&self.entries, stamp, &oldest) {
                    self.entries.remove(&oldest);
                    self.evictions.inc();
                    break;
                }
            }
        }
        self.entries.insert(key, (cached, self.clock));
        self.touch(self.clock, key);
    }

    /// Queues `key`'s new stamp, dropping the stale pairs once they
    /// outnumber the entries.
    fn touch(&mut self, stamp: u64, key: CacheKey) {
        self.recency.push_back((stamp, key));
        if self.recency.len() > 2 * self.entries.len() + RECENCY_SLACK {
            let entries = &self.entries;
            self.recency
                .retain(|(stamp, key)| is_current(entries, *stamp, key));
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn export_design(&self, design: DesignHash) -> Vec<VerdictRecord> {
        let mut records: Vec<VerdictRecord> = self
            .entries
            .iter()
            .filter(|(key, _)| key.design == design)
            .map(|(key, (cached, _))| VerdictRecord {
                property: key.property,
                config: key.config,
                verdict: cached.verdict.clone(),
                winner: cached.winner,
            })
            .collect();
        // Deterministic order regardless of hash-map iteration.
        records.sort_by_key(|r| (r.property.0, r.config));
        records
    }
}

/// Whether `stamp` is `key`'s current stamp in the cache, rather than a
/// stale pair of its recency queue.
fn is_current(
    entries: &HashMap<CacheKey, (CachedVerdict, u64)>,
    stamp: u64,
    key: &CacheKey,
) -> bool {
    entries
        .get(key)
        .is_some_and(|(_, current)| *current == stamp)
}

struct QueuedJob {
    /// Session-unique id stamped into every flight-recorder event the job
    /// emits (service, portfolio and core layers alike), so a post-mortem
    /// can pull one job's full event trail out of the shared ring.
    job_id: u64,
    batch: u64,
    index: usize,
    design: DesignHash,
    property: Property,
    environment: Vec<NetId>,
    key: CacheKey,
}

struct BatchState {
    results: Vec<Option<JobResult>>,
    /// The final progress probe of each completed slot, published together
    /// with the result so a subscriber can always emit a closing progress
    /// event before the verdict (cache hits synthesize theirs from the
    /// verdict's frame depth).
    progress: Vec<Option<ProgressProbe>>,
    completed: usize,
    /// Results have been handed out at least once; only retrieved batches
    /// are eligible for retirement.
    retrieved: bool,
    /// Threads currently blocked in [`VerificationService::wait`] on this
    /// batch; retirement never evicts a batch someone is waiting on.
    waiters: usize,
    /// Of those, the [`VerificationService::wait_batch_change`] callers,
    /// which wake on every completion; a completion wakes the others only
    /// when it completes the batch.
    watchers: usize,
}

impl BatchState {
    fn new(jobs: usize) -> Self {
        BatchState {
            results: (0..jobs).map(|_| None).collect(),
            progress: (0..jobs).map(|_| None).collect(),
            completed: 0,
            retrieved: false,
            waiters: 0,
            watchers: 0,
        }
    }

    /// Completes slot `index`; `false` (and nothing changes) when an earlier
    /// attempt already filled it.
    fn fill(&mut self, index: usize, result: JobResult, probe: ProgressProbe) -> bool {
        if self.results[index].is_some() {
            return false;
        }
        self.results[index] = Some(result);
        self.progress[index] = Some(probe);
        self.completed += 1;
        true
    }
}

/// Batch bookkeeping: the live states plus a retirement queue bounding how
/// many already-retrieved batches stay around for late `results`/`progress`
/// calls. Without the bound a long-lived server leaks one `BatchState`
/// (including full counter-example traces) per submission, forever.
struct BatchTable {
    states: HashMap<u64, BatchState>,
    retired: VecDeque<u64>,
}

impl BatchTable {
    fn new() -> Self {
        BatchTable {
            states: HashMap::new(),
            retired: VecDeque::new(),
        }
    }

    /// Marks a batch as retrieved and evicts the oldest retrieved batches
    /// beyond `cap` (skipping any with active waiters).
    fn retire(&mut self, batch: u64, cap: usize) {
        if let Some(state) = self.states.get_mut(&batch) {
            if !state.retrieved {
                state.retrieved = true;
                self.retired.push_back(batch);
            }
        }
        let mut scan = self.retired.len();
        while self.retired.len() > cap && scan > 0 {
            scan -= 1;
            let Some(oldest) = self.retired.pop_front() else {
                break;
            };
            match self.states.get(&oldest) {
                Some(state) if state.waiters > 0 => self.retired.push_back(oldest),
                _ => {
                    self.states.remove(&oldest);
                }
            }
        }
    }
}

/// Bookkeeping for one in-flight (dequeued, racing) job: identity plus the
/// race's live progress cells. Registered before the race spawns, removed on
/// completion; observers snapshot concurrently without touching the race.
struct RunningJob {
    job_id: u64,
    batch: u64,
    index: usize,
    property: String,
    design: DesignHash,
    started: Instant,
    progress: RaceProgress,
}

struct Shared {
    config: ServiceConfig,
    /// The portfolio every race runs, recording into `metrics`.
    portfolio: Portfolio,
    /// Each registered design's canonical netlist, shared with every reader
    /// that looks the design up ([`VerificationService::design`]), so the
    /// registry holds the only copy.
    registry: Mutex<HashMap<DesignHash, Arc<Netlist>>>,
    cache: Mutex<VerdictCache>,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    /// In-flight jobs by job id, for the live-progress surface.
    running: Mutex<HashMap<u64, Arc<RunningJob>>>,
    batches: Mutex<BatchTable>,
    batch_cv: Condvar,
    next_batch: AtomicU64,
    /// Job ids start at 1 so 0 can mean "not job-scoped" in recorder events.
    next_job: AtomicU64,
    shutdown: AtomicBool,
    /// Handles of every worker ever spawned (respawns append). Kept in the
    /// shared state so the respawn sentinel can register replacements; the
    /// service's `Drop` pops and joins them without holding the lock.
    worker_handles: Mutex<Vec<JoinHandle<()>>>,
    /// Where every service count lives; [`VerificationService::stats`]
    /// reads it back.
    metrics: Arc<MetricsRegistry>,
}

/// Re-arms the worker pool when a worker thread dies: constructed on the
/// worker's stack, its `Drop` runs during the unwind of any panic that
/// escapes the per-job fence (the [`FaultSite::WorkerLoss`] class) and spawns
/// a replacement — unless the service is shutting down, in which case dying
/// is the plan.
struct RespawnSentinel {
    shared: Arc<Shared>,
}

impl Drop for RespawnSentinel {
    fn drop(&mut self) {
        if std::thread::panicking() && !self.shared.shutdown.load(Ordering::Acquire) {
            let respawned = self
                .shared
                .metrics
                .counter("service_workers_respawned_total");
            respawned.inc();
            self.shared.config.recorder.record(
                RecorderLayer::Service,
                RecorderKind::Respawn,
                respawned.get(),
                0,
            );
            spawn_worker(&self.shared);
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>) {
    let worker = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        let _sentinel = RespawnSentinel {
            shared: Arc::clone(&worker),
        };
        worker_loop(&worker);
    });
    shared.worker_handles.lock_recover().push(handle);
}

/// A persistent verification session. See the module docs.
///
/// Dropping the service shuts the worker pool down; queued-but-unstarted
/// jobs are abandoned (their batches never complete), so [`wait`] for any
/// batch whose results matter before dropping.
///
/// [`wait`]: VerificationService::wait
pub struct VerificationService {
    shared: Arc<Shared>,
}

impl VerificationService {
    /// Starts a session with the given configuration, counting into a
    /// private metrics registry.
    pub fn new(config: ServiceConfig) -> Self {
        VerificationService::with_metrics(config, Arc::default())
    }

    /// Starts a session that publishes its telemetry — queue depth and
    /// worker-utilisation gauges, cache and job counters, per-job wall-clock
    /// histograms, the raced portfolios' attribution and the aggregated core
    /// search counters — into `registry`. The service keeps no second
    /// copy: [`VerificationService::stats`] reads its counts back from the
    /// registry. Metrics never influence scheduling, caching or verdicts.
    pub fn with_metrics(mut config: ServiceConfig, registry: Arc<MetricsRegistry>) -> Self {
        // Normalise once: the service-level fault plan is threaded into the
        // portfolio configuration every race will see.
        if config.faults.is_armed() && !config.portfolio.checker.faults.is_armed() {
            config.portfolio.checker.faults = config.faults.clone();
        }
        let workers = config.workers.max(1);
        let cache = VerdictCache::new(
            config.cache_capacity,
            registry.counter("service_cache_evictions_total"),
        );
        let portfolio =
            Portfolio::new(config.portfolio.clone()).with_metrics(Arc::clone(&registry));
        let shared = Arc::new(Shared {
            config,
            portfolio,
            registry: Mutex::new(HashMap::new()),
            cache: Mutex::new(cache),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            running: Mutex::new(HashMap::new()),
            batches: Mutex::new(BatchTable::new()),
            batch_cv: Condvar::new(),
            next_batch: AtomicU64::new(0),
            next_job: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
            worker_handles: Mutex::new(Vec::new()),
            metrics: registry,
        });
        for _ in 0..workers {
            spawn_worker(&shared);
        }
        VerificationService { shared }
    }

    /// Starts a session with the default configuration.
    pub fn with_defaults() -> Self {
        VerificationService::new(ServiceConfig::default())
    }

    /// Registers a design and returns its structural hash. Re-registering an
    /// identical structure is a no-op returning the same hash; submitting a
    /// job registers its design automatically.
    pub fn register_design(&self, netlist: &Netlist) -> DesignHash {
        let hash = design_hash(netlist);
        let mut registry = self.shared.registry.lock_recover();
        registry
            .entry(hash)
            .or_insert_with(|| Arc::new(netlist.clone()));
        hash
    }

    /// The canonical netlist of a registered design; `None` for a design
    /// never registered. The netlist is the registry's own, shared, not a
    /// copy.
    pub fn design(&self, design: DesignHash) -> Option<Arc<Netlist>> {
        let registry = self.shared.registry.lock_recover();
        registry.get(&design).cloned()
    }

    /// Every registered design, in hash order.
    pub fn designs(&self) -> Vec<DesignHash> {
        let mut designs: Vec<DesignHash> = self
            .shared
            .registry
            .lock_recover()
            .keys()
            .copied()
            .collect();
        designs.sort_unstable_by_key(|design| design.0);
        designs
    }

    /// Submits a batch of self-contained verification jobs: registers each
    /// netlist, then submits the jobs by reference (see
    /// [`VerificationService::submit`]). Returns immediately.
    pub fn submit_batch(&self, jobs: Vec<Verification>) -> BatchId {
        let jobs = jobs
            .into_iter()
            .map(|verification| Job {
                design: self.register_design(&verification.netlist),
                property: verification.property,
                environment: verification.environment,
            })
            .collect();
        self.submit(jobs)
    }

    /// Submits a batch of jobs against registered designs; returns with a
    /// handle for [`VerificationService::batch_progress`] /
    /// [`VerificationService::results`] / [`VerificationService::wait`].
    ///
    /// Every verdict-cache hit of the batch is answered here, under one
    /// cache lock, before `submit` returns: its slot is complete, it never
    /// queues and no worker sees it. Only the misses are queued, so a batch
    /// of hits is already done when its handle comes back. A hit never
    /// reads the design; a raced job copies its netlist once, on the worker.
    pub fn submit(&self, jobs: Vec<Job>) -> BatchId {
        let shared = &self.shared;
        let batch = shared.next_batch.fetch_add(1, Ordering::Relaxed);
        let config = config_fingerprint(&shared.config.portfolio);
        let total = jobs.len();
        let first_job = shared.next_job.fetch_add(total as u64, Ordering::Relaxed);
        let jobs: Vec<QueuedJob> = jobs
            .into_iter()
            .enumerate()
            .map(|(index, job)| QueuedJob {
                job_id: first_job + index as u64,
                batch,
                index,
                key: CacheKey {
                    design: job.design,
                    property: property_hash(&job.property, &job.environment),
                    config,
                },
                design: job.design,
                property: job.property,
                environment: job.environment,
            })
            .collect();
        let mut hits = Vec::new();
        let mut misses = Vec::new();
        {
            let mut cache = shared.cache.lock_recover();
            for job in jobs {
                let start = Instant::now();
                match cache.get(&job.key) {
                    Some(hit) => {
                        let (result, probe) = hit_result(&job, hit, start);
                        hits.push((job, result, probe));
                    }
                    None => misses.push(job),
                }
            }
        }
        let metrics = &shared.metrics;
        metrics
            .counter("service_jobs_submitted_total")
            .add(total as u64);
        let mut state = BatchState::new(total);
        if !hits.is_empty() {
            metrics
                .counter("service_cache_hits_total")
                .add(hits.len() as u64);
            record_completions(shared, hits.iter().map(|(_, result, _)| result));
            metrics
                .counter("core_progress_probes_total")
                .add(hits.iter().map(|(_, _, probe)| probe.probes).sum());
            for (job, result, probe) in hits {
                shared.config.recorder.with_job(job.job_id).record(
                    RecorderLayer::Service,
                    RecorderKind::CacheHit,
                    batch,
                    0,
                );
                state.fill(job.index, result, probe);
            }
        }
        let done = state.completed == total;
        shared.batches.lock_recover().states.insert(batch, state);
        if done {
            shared.batch_cv.notify_all();
        }
        if !misses.is_empty() {
            metrics
                .gauge("service_queue_depth")
                .add(misses.len() as f64);
            shared.queue.lock_recover().extend(misses);
            shared.queue_cv.notify_all();
        }
        BatchId(batch)
    }

    /// Live snapshots of every in-flight job (dequeued, racing engines, not
    /// yet completed), in job-id order. Snapshotting reads the races' live
    /// progress cells lock-free; it never perturbs the searches.
    pub fn running_jobs(&self) -> Vec<JobProgress> {
        let running: Vec<Arc<RunningJob>> = {
            let map = self.shared.running.lock_recover();
            map.values().cloned().collect()
        };
        let mut jobs: Vec<JobProgress> = running.iter().map(|r| job_progress(r)).collect();
        jobs.sort_by_key(|j| j.job);
        jobs
    }

    /// Live progress of one batch: completion counts plus a [`JobProgress`]
    /// for each of its jobs currently racing. `None` for an unknown (or
    /// retired) handle.
    pub fn batch_progress(&self, batch: BatchId) -> Option<BatchProgress> {
        let (total, completed) = {
            let batches = self.shared.batches.lock_recover();
            let state = batches.states.get(&batch.0)?;
            (state.results.len(), state.completed)
        };
        let mut running: Vec<JobProgress> = {
            let map = self.shared.running.lock_recover();
            map.values()
                .filter(|r| r.batch == batch.0)
                .map(|r| job_progress(r))
                .collect()
        };
        running.sort_by_key(|j| j.index);
        Some(BatchProgress {
            total,
            completed,
            running,
        })
    }

    /// The per-slot completed results of a batch, each paired with its final
    /// progress probe, in job order (`None` slots are still pending). Unlike
    /// [`VerificationService::results`] this never blocks, works on a
    /// partially complete batch, and does *not* retire it — the streaming
    /// (`subscribe`) read path, which must be able to observe a batch
    /// repeatedly as it fills in.
    pub fn batch_slots(&self, batch: BatchId) -> Option<Vec<Option<(JobResult, ProgressProbe)>>> {
        let batches = self.shared.batches.lock_recover();
        let state = batches.states.get(&batch.0)?;
        Some(
            state
                .results
                .iter()
                .zip(&state.progress)
                .map(|(result, probe)| {
                    result
                        .as_ref()
                        .map(|r| (r.clone(), probe.unwrap_or_default()))
                })
                .collect(),
        )
    }

    /// Blocks until the batch's completed-job count differs from `seen` or
    /// `timeout` elapses, and returns the current count either way. `None`
    /// for an unknown (or retired) handle. The streaming wait primitive: a
    /// subscriber sleeps here between its progress ticks and is woken the
    /// moment any job of the batch completes.
    pub fn wait_batch_change(
        &self,
        batch: BatchId,
        seen: usize,
        timeout: Duration,
    ) -> Option<usize> {
        let deadline = Instant::now() + timeout;
        let mut batches = self.shared.batches.lock_recover();
        let state = batches.states.get_mut(&batch.0)?;
        state.waiters += 1;
        state.watchers += 1;
        let result = loop {
            // The state cannot be evicted while `waiters > 0`.
            let Some(state) = batches.states.get(&batch.0) else {
                break None;
            };
            if state.completed != seen {
                break Some(state.completed);
            }
            let (guard, timed_out) = self
                .shared
                .batch_cv
                .wait_deadline_recover(batches, deadline);
            batches = guard;
            if timed_out {
                break batches.states.get(&batch.0).map(|s| s.completed);
            }
        };
        if let Some(state) = batches.states.get_mut(&batch.0) {
            state.waiters -= 1;
            state.watchers -= 1;
        }
        result
    }

    /// The results of a finished batch in job order; `None` while any job is
    /// still pending (or for an unknown handle).
    ///
    /// Retrieving results marks the batch *retrieved*; the service keeps at
    /// most [`ServiceConfig::retained_batches`] retrieved batches around for
    /// late `results`/`progress` calls, evicting the oldest beyond that — a
    /// long-lived server would otherwise leak every batch (traces included)
    /// it ever answered.
    pub fn results(&self, batch: BatchId) -> Option<Vec<JobResult>> {
        let mut batches = self.shared.batches.lock_recover();
        let state = batches.states.get(&batch.0)?;
        if state.completed < state.results.len() {
            return None;
        }
        let results = state.results.iter().filter_map(|r| r.clone()).collect();
        batches.retire(batch.0, self.shared.config.retained_batches);
        Some(results)
    }

    /// Blocks until every job of the batch has a result, then returns them
    /// in job order (retiring the batch like
    /// [`VerificationService::results`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown (or already retired-and-evicted) batch handle.
    pub fn wait(&self, batch: BatchId) -> Vec<JobResult> {
        match self.wait_deadline(batch, None) {
            Some(results) => results,
            None => panic!("wait on unknown batch {batch}"),
        }
    }

    /// Like [`VerificationService::wait`], but gives up after `timeout`.
    /// Returns `None` when the batch is unknown *or* still incomplete at the
    /// deadline — the caller's worker is freed either way, which is the
    /// point: a server thread must never block unboundedly on a batch a hung
    /// engine may never finish.
    pub fn wait_timeout(&self, batch: BatchId, timeout: Duration) -> Option<Vec<JobResult>> {
        self.wait_deadline(batch, Some(Instant::now() + timeout))
    }

    fn wait_deadline(&self, batch: BatchId, deadline: Option<Instant>) -> Option<Vec<JobResult>> {
        let mut batches = self.shared.batches.lock_recover();
        batches.states.get_mut(&batch.0)?.waiters += 1;
        loop {
            {
                // The state cannot be evicted while `waiters > 0`; treat a
                // missing entry as a timed-out wait rather than panicking in
                // a worker that holds the batches lock.
                let state = batches.states.get_mut(&batch.0)?;
                if state.completed == state.results.len() {
                    state.waiters -= 1;
                    let results = state.results.iter().filter_map(|r| r.clone()).collect();
                    batches.retire(batch.0, self.shared.config.retained_batches);
                    return Some(results);
                }
            }
            match deadline {
                None => batches = self.shared.batch_cv.wait_recover(batches),
                Some(deadline) => {
                    let (guard, timed_out) = self
                        .shared
                        .batch_cv
                        .wait_deadline_recover(batches, deadline);
                    batches = guard;
                    if timed_out {
                        // Final re-check: a completion may have raced the
                        // deadline.
                        if let Some(state) = batches.states.get_mut(&batch.0) {
                            if state.completed == state.results.len() {
                                continue;
                            }
                            state.waiters -= 1;
                        }
                        return None;
                    }
                }
            }
        }
    }

    /// A snapshot of the session counters: the event counts from the
    /// metrics registry, the sizes from the live structures.
    pub fn stats(&self) -> ServiceStats {
        let count = |name: &str| self.shared.metrics.counter(name).get();
        let cached_verdicts = self.shared.cache.lock_recover().len();
        let workers_alive = {
            let handles = self.shared.worker_handles.lock_recover();
            handles.iter().filter(|h| !h.is_finished()).count()
        };
        let queue_depth = self.shared.queue.lock_recover().len();
        let running_jobs = self.shared.running.lock_recover().len();
        ServiceStats {
            designs: self.shared.registry.lock_recover().len(),
            cache_hits: count("service_cache_hits_total"),
            cache_misses: count("service_cache_misses_total"),
            cache_evictions: count("service_cache_evictions_total"),
            cached_verdicts,
            quarantined_jobs: count("service_jobs_quarantined_total"),
            timed_out_jobs: count("service_jobs_timed_out_total"),
            workers_respawned: count("service_workers_respawned_total"),
            workers_alive,
            queue_depth,
            running_jobs,
        }
    }

    /// Exports the cached verdicts of one design (deterministic order), e.g.
    /// to persist them with its netlist. `None` for an unregistered design.
    pub fn export_verdicts(&self, design: DesignHash) -> Option<Vec<VerdictRecord>> {
        {
            let registry = self.shared.registry.lock_recover();
            registry.get(&design)?;
        }
        let cache = self.shared.cache.lock_recover();
        Some(cache.export_design(design))
    }

    /// Restores one design's persisted state (a snapshot, or the records
    /// replayed from a journal): registers `netlist`, moving it into the
    /// registry (no copy when the design is new), checks that `knowledge`
    /// is bound to it, then validates `verdicts` (traces must name existing
    /// nets at their exact widths; only definitive verdicts are accepted)
    /// and caches them. Returns the design and the number of verdicts now
    /// cached.
    ///
    /// Restored entries populate the same LRU cache as live verdicts, so the
    /// capacity bound applies to them too.
    ///
    /// # Errors
    ///
    /// [`KnowledgeError::MalformedVerdict`] for the first verdict that fails
    /// validation, else [`KnowledgeError::DesignMismatch`] when `knowledge`
    /// is bound to another design. A rejected store imports nothing (the
    /// design stays registered).
    pub fn restore(
        &self,
        netlist: Netlist,
        knowledge: &KnowledgeBase,
        verdicts: &[VerdictRecord],
    ) -> Result<(DesignHash, usize), KnowledgeError> {
        let design = design_hash(&netlist);
        let checked = check_verdicts(verdicts, &netlist);
        self.shared
            .registry
            .lock_recover()
            .entry(design)
            .or_insert_with(|| Arc::new(netlist));
        checked?;
        if knowledge.design() != design {
            return Err(KnowledgeError::DesignMismatch {
                found: knowledge.design(),
                expected: design,
            });
        }
        let mut cache = self.shared.cache.lock_recover();
        for record in verdicts {
            cache.insert(
                CacheKey {
                    design,
                    property: record.property,
                    config: record.config,
                },
                CachedVerdict {
                    verdict: record.verdict.clone(),
                    winner: record.winner,
                },
            );
        }
        Ok((design, verdicts.len()))
    }

    /// Blocks until the job queue is empty and every dequeued job has
    /// completed, or until `timeout` passes — the graceful-shutdown drain:
    /// no submission is abandoned half-raced, and every verdict has been
    /// cached. New submissions during the drain extend it. Returns
    /// `true` when the service fully drained, `false` when work was still
    /// outstanding at the deadline, so a hung job cannot hold the process
    /// hostage forever.
    pub fn drain_timeout(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut batches = self.shared.batches.lock_recover();
        loop {
            let queued = self.shared.queue.lock_recover().len();
            let pending: usize = batches
                .states
                .values()
                .map(|state| state.results.len() - state.completed)
                .sum();
            if queued == 0 && pending == 0 {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            batches = self
                .shared
                .batch_cv
                .wait_deadline_recover(batches, deadline)
                .0;
        }
    }
}

impl Drop for VerificationService {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.queue_cv.notify_all();
        // Pop-then-join without holding the lock: a panicking worker's
        // respawn sentinel takes the same lock to register its replacement,
        // and any late replacement lands in the vector for a later
        // iteration to pick up.
        loop {
            let handle = self.shared.worker_handles.lock_recover().pop();
            match handle {
                Some(handle) => {
                    let _ = handle.join();
                }
                None => break,
            }
        }
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let (job, depth) = {
            let mut queue = shared.queue.lock_recover();
            loop {
                if let Some(job) = queue.pop_front() {
                    break (job, queue.len());
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.queue_cv.wait_recover(queue);
            }
        };
        shared.metrics.gauge("service_queue_depth").sub(1.0);
        shared.metrics.gauge("service_workers_busy").add(1.0);
        shared.config.recorder.with_job(job.job_id).record(
            RecorderLayer::Service,
            RecorderKind::Dequeue,
            depth as u64,
            job.batch,
        );
        let start = Instant::now();
        // The per-job panic fence: *anything* that unwinds out of job
        // processing — an engine bug, poisoned bookkeeping, an injected
        // `WorkerPanic` — quarantines that one job (completed with an error
        // verdict so its batch still finishes) and leaves the worker alive
        // for the next job.
        let fenced =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| process_job(shared, &job)));
        if let Err(payload) = fenced {
            quarantine_job(shared, &job, start.elapsed(), payload.as_ref());
        }
        shared.metrics.gauge("service_workers_busy").sub(1.0);
        // Injected worker loss: a panic *outside* the fence kills this
        // thread after the job is fully recorded; the respawn sentinel
        // replaces it.
        shared.config.faults.panic_point(FaultSite::WorkerLoss);
    }
}

/// Completes a job whose processing panicked: an error verdict (never
/// cached, never persisted), a counter, a flight-recorder event and a fault
/// report — and nothing else. The batch completes; the pool survives.
fn quarantine_job(shared: &Shared, job: &QueuedJob, wall: Duration, payload: &dyn std::any::Any) {
    shared
        .metrics
        .counter("service_jobs_quarantined_total")
        .inc();
    shared.config.recorder.with_job(job.job_id).record(
        RecorderLayer::Service,
        RecorderKind::Fault,
        job.batch,
        wall.as_nanos() as u64,
    );
    // The fault report runs inside the worker's fault path (see the
    // `faultreport` module docs); describe the panic payload when it is a
    // string, the common case for both real panics and injected ones.
    let detail = if let Some(message) = payload.downcast_ref::<&str>() {
        format!("job panicked: {message}")
    } else if let Some(message) = payload.downcast_ref::<String>() {
        format!("job panicked: {message}")
    } else {
        "job panicked (non-string payload)".to_string()
    };
    shared.config.fault_report.emit(&FaultReport {
        fault: "job_quarantined",
        job: job.job_id,
        batch: job.batch,
        index: job.index,
        design: job.design,
        property: &job.property.name,
        detail,
        wall,
    });
    let result = JobResult {
        property: job.property.name.clone(),
        design: job.design,
        verdict: Verdict::Unknown {
            reason: "job panicked; quarantined".into(),
        },
        winner: None,
        from_cache: false,
        engines_spawned: 0,
        wall,
    };
    record_job_metrics(shared, &result, None);
    complete_job(shared, job, result, ProgressProbe::default());
}

/// Publishes finished jobs into the registry: the completion counter and
/// each job's wall clock.
fn record_completions<'a>(shared: &Shared, results: impl ExactSizeIterator<Item = &'a JobResult>) {
    let metrics = &shared.metrics;
    metrics
        .counter("service_jobs_completed_total")
        .add(results.len() as u64);
    let walls = metrics.histogram("service_job_wall_ns");
    for result in results {
        walls.record(result.wall.as_nanos() as u64);
    }
}

/// Publishes one finished job into the registry: its completion, and — for
/// raced jobs — the core search counters aggregated from every ATPG run of
/// the portfolio.
fn record_job_metrics(shared: &Shared, result: &JobResult, report: Option<&PortfolioReport>) {
    record_completions(shared, std::iter::once(result));
    let metrics = &shared.metrics;
    let Some(report) = report else {
        return;
    };
    for run in &report.runs {
        if let EngineStats::Atpg(stats) = &run.stats {
            metrics.counter("core_decisions_total").add(stats.decisions);
            metrics
                .counter("core_datapath_splits_total")
                .add(stats.datapath_splits);
            metrics
                .counter("core_backtracks_total")
                .add(stats.backtracks);
            metrics
                .counter("core_gate_evaluations_total")
                .add(stats.implication.gate_evaluations);
            metrics
                .counter("core_arithmetic_calls_total")
                .add(stats.arithmetic_calls);
            metrics
                .counter("core_justify_gates_rechecked_total")
                .add(stats.justify_gates_rechecked);
        }
    }
}

/// A verdict-cache hit's result and closing probe, for `submit` and the
/// worker alike: no engine ran, so the probe is synthesized from the cached
/// verdict's frame depth (subscribers still see depth before verdict), and
/// the wall clock runs from `start`, just before the lookup.
fn hit_result(job: &QueuedJob, hit: CachedVerdict, start: Instant) -> (JobResult, ProgressProbe) {
    let result = JobResult {
        property: job.property.name.clone(),
        design: job.design,
        verdict: hit.verdict,
        winner: hit.winner,
        from_cache: true,
        engines_spawned: 0,
        wall: start.elapsed(),
    };
    let probe = ProgressProbe {
        bound: result.verdict.bound(),
        probes: 1,
        ..ProgressProbe::default()
    };
    (result, probe)
}

fn process_job(shared: &Shared, job: &QueuedJob) {
    let start = Instant::now();
    // Injected worker panic: unwinds into the per-job fence before any
    // bookkeeping, exercising the quarantine path.
    shared.config.faults.panic_point(FaultSite::WorkerPanic);

    // 1. Verdict cache: `submit` answered every hit it saw, but a job can
    // become one while it queues (an identical job raced ahead of it).
    let cached = {
        let mut cache = shared.cache.lock_recover();
        cache.get(&job.key)
    };
    if let Some(hit) = cached {
        shared.metrics.counter("service_cache_hits_total").inc();
        shared.config.recorder.with_job(job.job_id).record(
            RecorderLayer::Service,
            RecorderKind::CacheHit,
            job.batch,
            0,
        );
        let (result, probe) = hit_result(job, hit, start);
        record_job_metrics(shared, &result, None);
        complete_job(shared, job, result, probe);
        return;
    }
    shared.metrics.counter("service_cache_misses_total").inc();

    // A job naming a design that was never registered cannot race;
    // complete it with an error verdict rather than panicking the worker.
    let Some(netlist) = ({
        let registry = shared.registry.lock_recover();
        registry.get(&job.design).cloned()
    }) else {
        let result = JobResult {
            property: job.property.name.clone(),
            design: job.design,
            verdict: Verdict::Unknown {
                reason: "design not registered".into(),
            },
            winner: None,
            from_cache: false,
            engines_spawned: 0,
            wall: start.elapsed(),
        };
        record_job_metrics(shared, &result, None);
        complete_job(shared, job, result, ProgressProbe::default());
        return;
    };

    // Register the race's live-progress cells before any engine spawns:
    // from here until completion, `progress` observers see this job as
    // running and can snapshot its probes lock-free.
    let running = Arc::new(RunningJob {
        job_id: job.job_id,
        batch: job.batch,
        index: job.index,
        property: job.property.name.clone(),
        design: job.design,
        started: start,
        progress: RaceProgress::new(),
    });
    shared
        .running
        .lock_recover()
        .insert(job.job_id, Arc::clone(&running));

    // 2. and 3. Copy the design, race, cache. The race is fenced with
    // `catch_unwind`: an engine panic (every engine runs on this thread, so
    // it unwinds here) must complete the
    // job as `Unknown` instead of killing this worker — a dead worker would
    // shrink the pool for the rest of the session and leave the batch
    // incomplete, hanging every `wait` on it. No service lock is held across
    // the race, so unwinding cannot poison shared state.
    let raced = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // The per-job handle stamps this job's id into every portfolio- and
        // core-layer event of the race.
        let recorder = shared.config.recorder.with_job(job.job_id);
        // The race's own copy of the design: the one netlist copy a raced
        // job makes, dropped when the race ends.
        let verification = Verification {
            netlist: Netlist::clone(&netlist),
            property: job.property.clone(),
            environment: job.environment.clone(),
        };
        shared
            .portfolio
            .race_probed(&verification, &recorder, &running.progress)
    }));
    let report = match raced {
        Ok(outcome) => outcome,
        Err(_) => {
            let result = JobResult {
                property: job.property.name.clone(),
                design: job.design,
                verdict: Verdict::Unknown {
                    reason: "engine panicked".into(),
                },
                winner: None,
                from_cache: false,
                // A panicked race leaves no report of what it started.
                engines_spawned: shared.config.portfolio.engines.len(),
                wall: start.elapsed(),
            };
            record_job_metrics(shared, &result, None);
            complete_job(shared, job, result, running.progress.aggregate());
            return;
        }
    };
    if let Verdict::Timeout { budget } = report.verdict {
        shared.metrics.counter("service_jobs_timed_out_total").inc();
        shared.config.recorder.with_job(job.job_id).record(
            RecorderLayer::Service,
            RecorderKind::Fault,
            job.batch,
            start.elapsed().as_nanos() as u64,
        );
        shared.config.fault_report.emit(&FaultReport {
            fault: "job_timeout",
            job: job.job_id,
            batch: job.batch,
            index: job.index,
            design: job.design,
            property: &job.property.name,
            detail: format!("job exceeded its {budget:?} wall-clock budget"),
            wall: start.elapsed(),
        });
    }
    // Write-ahead durability: the journal record is emitted *before* the
    // result is published anywhere — the verdict cache included, since the
    // moment the insert lands a concurrent identical query can be answered
    // (and acknowledged) from it. So anything a client ever saw acknowledged
    // is on disk.
    if shared.config.durability.is_armed() {
        let verdict = report.verdict.is_definitive().then(|| VerdictRecord {
            property: job.key.property,
            config: job.key.config,
            verdict: report.verdict.clone(),
            winner: report.winner,
        });
        shared.config.durability.emit(&DurabilityRecord {
            design: job.design,
            netlist: &netlist,
            verdict,
        });
    }
    // Only definitive verdicts are worth replaying; an `Unknown` (budget,
    // cancellation) must not shadow a future run that could decide the job.
    if report.verdict.is_definitive() {
        shared.cache.lock_recover().insert(
            job.key,
            CachedVerdict {
                verdict: report.verdict.clone(),
                winner: report.winner,
            },
        );
    }
    shared.config.recorder.with_job(job.job_id).record(
        RecorderLayer::Service,
        RecorderKind::End,
        job.batch,
        start.elapsed().as_nanos() as u64,
    );
    let result = JobResult {
        property: report.property.clone(),
        design: job.design,
        verdict: report.verdict.clone(),
        winner: report.winner,
        from_cache: false,
        engines_spawned: report.runs.len(),
        wall: start.elapsed(),
    };
    record_job_metrics(shared, &result, Some(&report));
    complete_job(shared, job, result, running.progress.aggregate());
}

/// Snapshots one in-flight job into the public progress view.
fn job_progress(running: &RunningJob) -> JobProgress {
    JobProgress {
        job: running.job_id,
        batch: BatchId(running.batch),
        index: running.index,
        property: running.property.clone(),
        design: running.design,
        elapsed: running.started.elapsed(),
        leading: running.progress.leading_engine(),
        probe: running.progress.aggregate(),
    }
}

/// Records a job's result and final progress probe, deregisters it from the
/// running set and wakes waiters when their wait can end: on the batch's
/// last completion, or on any completion while someone watches the batch
/// change. Tolerant by design: a batch evicted under fault, or a slot an
/// earlier (panicked-then-quarantined) attempt already filled, is left
/// alone — completion must never panic, because it runs inside *and*
/// outside the per-job fence.
fn complete_job(shared: &Shared, job: &QueuedJob, result: JobResult, mut probe: ProgressProbe) {
    shared.running.lock_recover().remove(&job.job_id);
    // A subscriber's closing progress event should carry the depth the
    // verdict vouches for even when no engine published live (cache hits,
    // instant answers).
    if probe.bound == 0 {
        probe.bound = result.verdict.bound();
    }
    shared
        .metrics
        .counter("core_progress_probes_total")
        .add(probe.probes);
    let mut batches = shared.batches.lock_recover();
    let wake = batches.states.get_mut(&job.batch).is_some_and(|state| {
        state.fill(job.index, result, probe)
            && (state.completed == state.results.len() || state.watchers > 0)
    });
    drop(batches);
    if wake {
        shared.batch_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey {
            design: DesignHash(n),
            property: PropertyHash(n),
            config: 0,
        }
    }

    fn verdict() -> CachedVerdict {
        CachedVerdict {
            verdict: Verdict::Holds {
                proved: true,
                frames: 1,
            },
            winner: None,
        }
    }

    fn cache(capacity: usize) -> (VerdictCache, Arc<Counter>) {
        let evictions = Arc::new(Counter::new());
        (
            VerdictCache::new(capacity, Arc::clone(&evictions)),
            evictions,
        )
    }

    #[test]
    fn a_lookup_refreshes_an_entry() {
        let (mut cache, evictions) = cache(2);
        cache.insert(key(1), verdict());
        cache.insert(key(2), verdict());
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), verdict());
        assert_eq!(evictions.get(), 1);
        assert!(cache.get(&key(2)).is_none(), "the older entry was evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn eviction_is_exact_lru_against_a_reference() {
        const CAPACITY: usize = 64;
        let (mut cache, evictions) = cache(CAPACITY);
        // The reference: keys in recency order, least recent first.
        let mut reference: Vec<u64> = Vec::new();
        let mut reference_evictions = 0;
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10_000 {
            let r = next();
            let n = r % 160;
            let position = reference.iter().position(|k| *k == n);
            if r >> 63 == 0 {
                let hit = cache.get(&key(n)).is_some();
                assert_eq!(hit, position.is_some(), "lookup of {n}");
                if let Some(at) = position {
                    reference.remove(at);
                    reference.push(n);
                }
            } else {
                cache.insert(key(n), verdict());
                match position {
                    Some(at) => {
                        reference.remove(at);
                    }
                    None if reference.len() >= CAPACITY => {
                        reference.remove(0);
                        reference_evictions += 1;
                    }
                    None => {}
                }
                reference.push(n);
            }
            assert!(cache.recency.len() <= 2 * cache.len() + RECENCY_SLACK);
        }
        assert_eq!(evictions.get(), reference_evictions);
        assert!(reference_evictions > 1_000, "{reference_evictions}");
        let mut keys: Vec<u64> = cache.entries.keys().map(|k| k.design.0).collect();
        keys.sort_unstable();
        reference.sort_unstable();
        assert_eq!(keys, reference);
    }
}
