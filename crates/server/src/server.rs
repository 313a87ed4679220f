//! The TCP front end: listener, per-connection handlers, request dispatch,
//! autosave and restart-warm boot.

use crate::json::Json;
use crate::postmortem::{event_to_json, PostmortemWriter, DEFAULT_MAX_BYTES, DEFAULT_MAX_DUMPS};
use crate::proto::{
    design_from_wire, design_to_wire, error_reply, error_reply_with_retry, hex_decode, hex_encode,
    job_progress_to_wire, ok_reply, probe_to_wire, results_reply, stats_to_wire, verdict_frame,
    verdict_to_wire, ErrorCode,
};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wlac_atpg::{
    AssertionChecker, CheckReport, CheckerOptions, Property, PropertyKind, TraceSink, Verification,
};
use wlac_faultinject::{CondvarExt, FaultPlan, LockExt};
use wlac_netlist::{NetId, Netlist};
use wlac_persist::{
    clean_stale_temp_files, decode_snapshot, encode_snapshot, load_snapshot_with_fallback,
    read_journal, save_snapshot_faulted, snapshot_file_name, truncate_to_valid, JournalSink,
    Snapshot,
};
use wlac_service::{
    BatchId, DesignHash, DurabilityHook, FaultReportHook, Job, JobResult, KnowledgeBase,
    ServiceConfig, VerificationService,
};
use wlac_telemetry::{
    FlightRecorder, MetricsRegistry, RecorderHandle, RecorderKind, RecorderLayer, Tracer,
};

/// Every op the dispatcher accepts, plus the two catch-all buckets
/// (`unknown` for an unrecognised `op`, `invalid` for frames with no usable
/// `op` at all) — the enumeration behind the per-op request counters and
/// latency histograms.
const KNOWN_OPS: [&str; 17] = [
    "ping",
    "register_design",
    "submit_batch",
    "results",
    "wait",
    "progress",
    "subscribe",
    "stats",
    "export_knowledge",
    "import_knowledge",
    "metrics",
    "health",
    "events",
    "trace_check",
    "shutdown",
    "unknown",
    "invalid",
];

/// Interns an op string into [`KNOWN_OPS`] (metric names want `'static`).
fn canonical_op(op: &str) -> &'static str {
    KNOWN_OPS
        .iter()
        .find(|known| **known == op)
        .copied()
        .unwrap_or("unknown")
}

/// Requests slower than this get a structured line on stderr (op, wall
/// clock, outcome): the slow-request log.
const SLOW_REQUEST_THRESHOLD: Duration = Duration::from_secs(1);

/// The back-off hint connections shed at the connection cap carry.
const RETRY_AFTER: Duration = Duration::from_millis(200);

/// Service-level objective: `health` reports degraded when the rolling error
/// rate over [`SLO_WINDOW`] exceeds this fraction.
const SLO_ERROR_RATE: f64 = 0.25;

/// Service-level objective: `health` reports degraded when the rolling p99
/// request latency over [`SLO_WINDOW`] exceeds this.
const SLO_P99: Duration = Duration::from_secs(5);

/// The sliding window behind the `health` op's rolling error-rate and
/// p99-latency objectives (and the autosave-failure recency check).
const SLO_WINDOW: Duration = Duration::from_secs(60);

/// How the server comes up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Snapshot and journal directory. With one, every raced result is
    /// appended to its design's write-ahead journal before it is
    /// acknowledged, and snapshots compact the journals. `None` disables
    /// persistence: the server still serves traffic but restarts cold.
    pub data_dir: Option<PathBuf>,
    /// The verification-service configuration behind the front end.
    pub service: ServiceConfig,
    /// Per-connection socket read timeout: a client that goes silent this
    /// long has its connection closed (its submitted work keeps running).
    /// `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout: a client that stops consuming
    /// its replies this long has its connection closed.
    pub write_timeout: Option<Duration>,
    /// Connection cap. Connections beyond it are shed with a structured
    /// `overloaded` reply carrying a `retry_after_ms` hint, instead of
    /// letting unbounded accepts exhaust threads.
    pub max_connections: usize,
    /// Upper bound of a server-side `wait`: a `wait` request blocks at most
    /// this long (clients may ask for less via `timeout_ms`), then gets a
    /// structured `timeout` error while the batch keeps running.
    pub wait_timeout: Duration,
    /// Default tick of a `subscribe` stream's periodic `progress` events
    /// (clients may override per request via `interval_ms`).
    pub subscribe_interval: Duration,
    /// How long shutdown waits for in-flight requests and queued jobs
    /// before abandoning them and saving what finished.
    pub drain_timeout: Duration,
    /// Group-commit batch of the journal: each design's journal is fsynced
    /// after every Nth append *to that design* (the count is per journal
    /// writer). A process kill loses nothing either way; a power loss can
    /// cost up to N−1 acknowledged records per design. 1 makes every
    /// acknowledged result survive a power loss, at one fsync per job.
    pub journal_fsync_batch: u64,
    /// Compaction threshold: once a design's journal grows past this many
    /// bytes, the next completed batch snapshots the design and truncates
    /// the journal back to its header.
    pub journal_compact_bytes: u64,
    /// Where post-mortem bundles go. `None` (the default) puts them under
    /// `<data_dir>/postmortem`; with no data directory either, dumps are
    /// disabled.
    pub postmortem_dir: Option<PathBuf>,
    /// Post-mortem bundle cap: at most this many bundles are kept
    /// (oldest-first eviction). Their total size is capped too, at
    /// [`crate::postmortem::DEFAULT_MAX_BYTES`].
    pub postmortem_max_dumps: usize,
    /// Readiness capacity: `health` reports not-ready while the queue holds
    /// more than this many jobs (submissions are still accepted — this is
    /// the signal a load balancer drains on, not an admission gate).
    pub max_queue_depth: usize,
}

impl ServerConfig {
    /// Defaults: loopback on port 7117, no persistence, default service,
    /// 120 s read / 30 s write socket timeouts, 256 connections, 60 s wait
    /// bound, 30 s shutdown drain.
    pub fn new() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7117".to_string(),
            data_dir: None,
            service: ServiceConfig::default(),
            read_timeout: Some(Duration::from_secs(120)),
            write_timeout: Some(Duration::from_secs(30)),
            max_connections: 256,
            wait_timeout: Duration::from_secs(60),
            subscribe_interval: Duration::from_millis(250),
            drain_timeout: Duration::from_secs(30),
            journal_fsync_batch: 32,
            journal_compact_bytes: 1 << 20,
            postmortem_dir: None,
            postmortem_max_dumps: DEFAULT_MAX_DUMPS,
            max_queue_depth: 1024,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

/// A counted gate: requests enter and exit, shutdown waits (on a condition
/// variable, not a sleep poll) until the count reaches zero or a deadline
/// passes.
struct Gate {
    count: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Self {
        Gate {
            count: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn enter(&self) {
        *self.count.lock_recover() += 1;
    }

    fn exit(&self) {
        let mut count = self.count.lock_recover();
        *count = count.saturating_sub(1);
        if *count == 0 {
            self.cv.notify_all();
        }
    }

    /// Waits until the gate is empty; `false` when the deadline passed with
    /// requests still inside.
    fn wait_idle(&self, deadline: Instant) -> bool {
        let mut count = self.count.lock_recover();
        loop {
            if *count == 0 {
                return true;
            }
            let (guard, timed_out) = self.cv.wait_deadline_recover(count, deadline);
            count = guard;
            if timed_out {
                return *count == 0;
            }
        }
    }
}

/// One finished request in the rolling SLO window.
#[derive(Debug, Clone, Copy)]
struct SloSample {
    at: Instant,
    wall_nanos: u64,
    error: bool,
}

/// The sliding window behind the `health` op's objectives: every finished
/// request pushes a sample, reads prune anything older than the window and
/// fold error rate and p99 latency over what remains. Bounded by pruning on
/// every push, so an idle-then-bursty server never accumulates unboundedly.
#[derive(Default)]
struct SloWindow {
    samples: Mutex<VecDeque<SloSample>>,
}

impl SloWindow {
    fn push(&self, wall_nanos: u64, error: bool) {
        let now = Instant::now();
        let mut samples = self.samples.lock_recover();
        while samples
            .front()
            .is_some_and(|s| now.duration_since(s.at) > SLO_WINDOW)
        {
            samples.pop_front();
        }
        samples.push_back(SloSample {
            at: now,
            wall_nanos,
            error,
        });
    }

    /// (requests, error rate, p99 latency) over the live window.
    fn fold(&self) -> (usize, f64, Duration) {
        let now = Instant::now();
        let samples = self.samples.lock_recover();
        let live: Vec<&SloSample> = samples
            .iter()
            .filter(|s| now.duration_since(s.at) <= SLO_WINDOW)
            .collect();
        if live.is_empty() {
            return (0, 0.0, Duration::ZERO);
        }
        let errors = live.iter().filter(|s| s.error).count();
        let mut walls: Vec<u64> = live.iter().map(|s| s.wall_nanos).collect();
        walls.sort_unstable();
        let rank = ((walls.len() as f64) * 0.99).ceil() as usize;
        let p99 = walls[rank.saturating_sub(1).min(walls.len() - 1)];
        (
            live.len(),
            errors as f64 / live.len() as f64,
            Duration::from_nanos(p99),
        )
    }
}

struct ServerState {
    /// The verification service, whose design registry is also the server's:
    /// a design the service holds is a registered design on the wire.
    service: VerificationService,
    data_dir: Option<PathBuf>,
    shutting_down: AtomicBool,
    /// The write-ahead journal sink, present exactly when a data directory
    /// is configured. The service holds the same sink behind its
    /// [`DurabilityHook`]; the server side drives compaction and shutdown
    /// truncation.
    journal: Option<Arc<JournalSink>>,
    journal_compact_bytes: u64,
    /// The bound address, kept so `shutdown` can wake the blocking accept
    /// loop with a loopback connection.
    addr: SocketAddr,
    /// Live connection count against [`ServerConfig::max_connections`].
    connections: AtomicUsize,
    /// Requests currently being dispatched or having their reply written.
    /// The shutdown path waits for this gate so no client loses an
    /// already-earned reply (or its autosave) to the process exiting.
    active: Gate,
    read_timeout: Option<Duration>,
    write_timeout: Option<Duration>,
    max_connections: usize,
    wait_timeout: Duration,
    subscribe_interval: Duration,
    drain_timeout: Duration,
    /// The service's fault plan, shared with the journal sink; the server
    /// crosses its snapshot-write sites.
    faults: FaultPlan,
    /// The shared metrics registry and the server's only count store: the
    /// service, every portfolio it races and the journal sink write into
    /// it, the server adds per-op and boot counters and latency histograms,
    /// and both the `metrics` and `stats` ops read it.
    metrics: Arc<MetricsRegistry>,
    /// Checker options for on-demand `trace_check` runs (the same options
    /// the service's portfolio gives its ATPG engine).
    checker_options: CheckerOptions,
    /// The always-on flight recorder every layer of the stack writes into;
    /// the `events` op tails it, post-mortem bundles snapshot it.
    recorder: Arc<FlightRecorder>,
    /// The post-mortem dump writer, when a dump directory is configured.
    postmortem: Option<Arc<PostmortemWriter>>,
    /// When the server booted (the `stats`/`health` uptime).
    started: Instant,
    /// Connection ids for the slow-request log and Server-layer recorder
    /// events (ids start at 1; 0 means "no connection").
    next_conn: AtomicU64,
    /// The rolling request window behind the `health` op's objectives.
    slo: SloWindow,
    /// Readiness capacity for the `health` op (see
    /// [`ServerConfig::max_queue_depth`]).
    max_queue_depth: usize,
    /// Worker-pool size the service was configured with, the quorum the
    /// `health` op compares `workers_alive` against.
    configured_workers: usize,
    /// When the most recent autosave failure happened (durability recency
    /// for the `health` op).
    last_autosave_failure: Mutex<Option<Instant>>,
}

/// A running verification server.
///
/// [`Server::bind`] loads any snapshots found in the data directory (a
/// restarted server answers repeat queries warm), then [`Server::run`]
/// accepts connections until a `shutdown` request arrives; the shutdown path
/// drains in-flight jobs and saves every design before returning.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Binds the listener and warm-loads persisted state.
    ///
    /// Snapshot files that fail validation (truncated, corrupt, foreign) are
    /// skipped with a diagnostic on stderr — a bad snapshot costs warmth,
    /// never integrity.
    ///
    /// # Errors
    ///
    /// I/O errors from binding the address or creating the data directory.
    pub fn bind(mut config: ServerConfig) -> std::io::Result<Server> {
        if let Some(dir) = &config.data_dir {
            std::fs::create_dir_all(dir)?;
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let metrics = Arc::new(MetricsRegistry::new());
        // The flight recorder is always on: every layer below (service
        // workers, portfolio races, core search, journal sink) gets a handle
        // before the service boots, so even the boot replay is recorded.
        let recorder = Arc::new(FlightRecorder::new(8192));
        config.service.recorder = RecorderHandle::to(Arc::clone(&recorder));
        let postmortem_dir = config
            .postmortem_dir
            .clone()
            .or_else(|| config.data_dir.as_ref().map(|dir| dir.join("postmortem")));
        let postmortem = postmortem_dir.map(|dir| {
            Arc::new(PostmortemWriter::new(
                dir,
                config.postmortem_max_dumps,
                DEFAULT_MAX_BYTES,
                Arc::clone(&recorder),
                Arc::clone(&metrics),
            ))
        });
        if let Some(writer) = &postmortem {
            config.service.fault_report = FaultReportHook::new(Arc::clone(writer) as _);
        }
        let configured_workers = config.service.workers.max(1);
        let checker_options = config.service.portfolio.checker.clone();
        let faults = config.service.faults.clone();
        // Arm the write-ahead journal before the service exists, so every
        // raced result the service ever completes passes through the sink.
        let journal = config.data_dir.as_ref().map(|dir| {
            let sink = Arc::new(
                JournalSink::new(dir, config.journal_fsync_batch, faults.clone())
                    .with_metrics(Arc::clone(&metrics))
                    .with_recorder(RecorderHandle::to(Arc::clone(&recorder))),
            );
            config.service.durability = DurabilityHook::new(Arc::clone(&sink) as _);
            sink
        });
        let state = Arc::new(ServerState {
            service: VerificationService::with_metrics(config.service, Arc::clone(&metrics)),
            data_dir: config.data_dir,
            shutting_down: AtomicBool::new(false),
            journal,
            journal_compact_bytes: config.journal_compact_bytes,
            addr,
            connections: AtomicUsize::new(0),
            active: Gate::new(),
            read_timeout: config.read_timeout,
            write_timeout: config.write_timeout,
            max_connections: config.max_connections.max(1),
            wait_timeout: config.wait_timeout,
            subscribe_interval: config.subscribe_interval.max(Duration::from_millis(1)),
            drain_timeout: config.drain_timeout,
            faults,
            metrics,
            checker_options,
            recorder,
            postmortem,
            started: Instant::now(),
            next_conn: AtomicU64::new(1),
            slo: SloWindow::default(),
            max_queue_depth: config.max_queue_depth,
            configured_workers,
            last_autosave_failure: Mutex::new(None),
        });
        load_all_snapshots(&state);
        Ok(Server { listener, state })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket's failure to report its address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Number of snapshots successfully loaded at boot
    /// (`server_snapshots_loaded_total`).
    pub fn loaded_snapshots(&self) -> usize {
        self.count("server_snapshots_loaded_total") as usize
    }

    /// Number of snapshot files rejected at boot (corrupt, torn, foreign;
    /// `server_snapshots_rejected_at_boot_total`).
    pub fn snapshots_rejected_at_boot(&self) -> usize {
        self.count("server_snapshots_rejected_at_boot_total") as usize
    }

    /// Number of journal records replayed into service state at boot
    /// (`server_boot_replayed_records_total`).
    pub fn boot_replayed_records(&self) -> u64 {
        self.count("server_boot_replayed_records_total")
    }

    /// Journal bytes quarantined at boot (torn tails, unreadable files;
    /// `server_journal_quarantined_bytes_total`).
    pub fn journal_quarantined_bytes(&self) -> u64 {
        self.count("server_journal_quarantined_bytes_total")
    }

    fn count(&self, name: &str) -> u64 {
        self.state.metrics.counter(name).get()
    }

    /// Serves connections until a `shutdown` request completes. Each
    /// connection gets its own thread; the accept loop blocks (no polling)
    /// and is woken by a loopback connection when `shutdown` flips the flag.
    /// On exit every in-flight job that finished within the drain budget has
    /// been saved.
    pub fn run(self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.state.shutting_down.load(Ordering::Acquire) {
                        // Likely the shutdown wake-up connection; either way
                        // no new connection is served past the flag.
                        drop(stream);
                        break;
                    }
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_connection(&state, stream));
                }
                Err(e) => {
                    if self.state.shutting_down.load(Ordering::Acquire) {
                        break;
                    }
                    eprintln!("wlac-server: accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(100));
                }
            }
        }
        // Connection threads are detached, so wait for every in-flight
        // request (a reply mid-write on another connection, its autosave)
        // to finish before the final sweep; readers idling on their sockets
        // don't count and don't block exit. Bounded so a pathological
        // handler cannot wedge shutdown forever.
        let deadline = Instant::now() + self.state.drain_timeout;
        if !self.state.active.wait_idle(deadline) {
            eprintln!("wlac-server: shutdown with requests still in flight");
        }
        // The shutdown request already drained and saved; a second pass here
        // catches anything submitted on other connections in the window
        // between that drain and the accept loop noticing the flag.
        if !self.state.service.drain_timeout(self.state.drain_timeout) {
            eprintln!("wlac-server: drain timed out; unfinished jobs abandoned");
        }
        save_all_designs(&self.state);
    }
}

fn load_all_snapshots(state: &ServerState) {
    let Some(dir) = &state.data_dir else {
        return;
    };
    // Sweep the temp-file debris of any writer that died mid-save (kill -9
    // during autosave) before scanning; the published snapshots themselves
    // are untouched by a torn write.
    match clean_stale_temp_files(dir) {
        Ok(0) => {}
        Ok(n) => eprintln!("wlac-server: removed {n} stale snapshot temp file(s)"),
        Err(e) => eprintln!(
            "wlac-server: temp-file sweep of {} failed: {e}",
            dir.display()
        ),
    }
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("wlac-server: cannot scan {}: {e}", dir.display());
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("wlacsnap") {
            continue;
        }
        let snapshot = match load_snapshot_with_fallback(&path) {
            Ok((snapshot, from_backup)) => {
                if from_backup {
                    state
                        .metrics
                        .counter("server_snapshot_fallbacks_total")
                        .inc();
                    eprintln!(
                        "wlac-server: {} was unreadable; booted from last-good backup",
                        path.display()
                    );
                }
                snapshot
            }
            Err(e) => {
                eprintln!("wlac-server: skipping snapshot {}: {e}", path.display());
                note_rejected_snapshot(state, &format!("snapshot {}: {e}", path.display()));
                continue;
            }
        };
        match state
            .service
            .restore(&snapshot.netlist, &snapshot.knowledge, &snapshot.verdicts)
        {
            Ok(_) => state.metrics.counter("server_snapshots_loaded_total").inc(),
            Err(e) => {
                eprintln!(
                    "wlac-server: snapshot {} failed validation: {e}",
                    path.display()
                );
                note_rejected_snapshot(
                    state,
                    &format!("snapshot {}: validation: {e}", path.display()),
                );
            }
        }
    }
    replay_journals(state);
}

/// Books one snapshot file that was present at boot but could not be
/// trusted: the server boots cold for that design (a structured warning
/// already went to stderr), the rejection is visible in stats and metrics
/// instead of silent, and a post-mortem bundle captures the boot-time
/// evidence.
fn note_rejected_snapshot(state: &ServerState, detail: &str) {
    state
        .metrics
        .counter("server_snapshots_rejected_at_boot_total")
        .inc();
    dump_postmortem(state, "snapshot_rejected", detail, Vec::new());
}

/// Writes one server-local post-mortem bundle (durability fault paths; the
/// service's own faults dump through its [`FaultReportHook`]).
fn dump_postmortem(state: &ServerState, fault: &str, detail: &str, extra: Vec<(&str, Json)>) {
    if let Some(writer) = &state.postmortem {
        writer.dump(fault, detail, 0, extra);
    }
}

/// Replays every per-design write-ahead journal in the data directory on
/// top of whatever the snapshots restored. A torn tail (or a wholly
/// unreadable file) costs exactly the bytes past the longest valid prefix,
/// never the boot: those bytes are counted as quarantined and everything
/// before them is restored.
fn replay_journals(state: &ServerState) {
    let Some(dir) = &state.data_dir else {
        return;
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return, // already diagnosed by the snapshot scan
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("wlacjournal") {
            continue;
        }
        let replay = match read_journal(&path) {
            Ok(replay) => replay,
            Err(e) => {
                // Header unusable: quarantine the whole file's bytes. The
                // sink will move it aside if this design races again.
                let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                note_quarantined_bytes(state, bytes);
                eprintln!("wlac-server: skipping journal {}: {e}", path.display());
                dump_postmortem(
                    state,
                    "journal_tail_quarantined",
                    &format!("journal {} unreadable: {e}", path.display()),
                    vec![("quarantined_bytes", Json::num(bytes))],
                );
                continue;
            }
        };
        note_quarantined_bytes(state, replay.quarantined_bytes);
        if replay.quarantined_bytes > 0 {
            eprintln!(
                "wlac-server: journal {} had a torn tail; quarantined {} byte(s), \
                 replaying the {} record(s) before it",
                path.display(),
                replay.quarantined_bytes,
                replay.records.len()
            );
            dump_postmortem(
                state,
                "journal_tail_quarantined",
                &format!(
                    "journal {} had a torn tail; replayed {} record(s) before it",
                    path.display(),
                    replay.records.len()
                ),
                vec![
                    ("quarantined_bytes", Json::num(replay.quarantined_bytes)),
                    ("replayed_records", Json::num(replay.records.len() as u64)),
                ],
            );
            // Cut the rejected tail out of the file now (preserved beside
            // it), so size-based views of the journal — the metadata
            // fallback behind the compaction trigger — count only valid
            // records. Failure is harmless: recovery re-quarantines.
            if let Err(e) = truncate_to_valid(&path, &replay) {
                eprintln!(
                    "wlac-server: could not truncate quarantined tail of {}: {e}",
                    path.display()
                );
            }
        }
        // The journal header carries the canonical netlist — and is only
        // accepted when the netlist reproduces the recorded hash — so a
        // design that never reached its first snapshot still comes back
        // warm, under the same identity it was acknowledged as. A record's
        // ESTG delta (journals of earlier servers carry one) is not state
        // any more: ATPG conflict history lives for one check.
        let mut knowledge = KnowledgeBase::new(replay.design);
        let mut verdicts = Vec::with_capacity(replay.records.len());
        for record in &replay.records {
            for clause in &record.clauses {
                knowledge.clauses.insert(clause);
            }
            knowledge.history.record(&record.ran, record.winner);
            if let Some(verdict) = &record.verdict {
                verdicts.push(verdict.clone());
            }
        }
        // The restore path re-validates every clause and verdict exactly as
        // it does for snapshots and merges on top of the restored state;
        // journaled deltas over an already-compacted snapshot are additive,
        // so replaying both never double-counts a verdict or clause.
        if let Err(e) = state
            .service
            .restore(&replay.netlist, &knowledge, &verdicts)
        {
            eprintln!(
                "wlac-server: journal {} failed validation: {e}",
                path.display()
            );
            continue;
        }
        state
            .metrics
            .counter("server_boot_replayed_records_total")
            .add(replay.records.len() as u64);
    }
}

fn note_quarantined_bytes(state: &ServerState, bytes: u64) {
    if bytes == 0 {
        return;
    }
    state
        .metrics
        .counter("server_journal_quarantined_bytes_total")
        .add(bytes);
}

fn assemble_snapshot(state: &ServerState, design: DesignHash) -> Option<Snapshot> {
    let netlist = state.service.design(design)?;
    Some(Snapshot {
        netlist: Netlist::clone(&netlist),
        knowledge: state.service.export_knowledge(design)?,
        verdicts: state.service.export_verdicts(design)?,
    })
}

fn save_design(state: &ServerState, design: DesignHash) -> bool {
    let Some(dir) = &state.data_dir else {
        return false;
    };
    let Some(snapshot) = assemble_snapshot(state, design) else {
        return false;
    };
    let path = dir.join(snapshot_file_name(design));
    // Degraded mode by design: an autosave failure is logged and counted,
    // and the server keeps answering from memory — durability degrades,
    // service does not.
    match save_snapshot_faulted(&path, &snapshot, &state.faults) {
        Ok(()) => {
            state.metrics.counter("server_autosaves_total").inc();
            state.recorder.record(
                RecorderLayer::Persist,
                RecorderKind::Persisted,
                0,
                design.0,
                0,
            );
            true
        }
        Err(e) => {
            state
                .metrics
                .counter("server_autosave_failures_total")
                .inc();
            eprintln!("wlac-server: autosave of {design} failed (still serving from memory): {e}");
            *state.last_autosave_failure.lock_recover() = Some(Instant::now());
            dump_postmortem(
                state,
                "autosave_failure",
                &format!("autosave of {design} failed: {e}"),
                vec![("design", Json::str(design_to_wire(design)))],
            );
            false
        }
    }
}

/// Compacts one design: snapshot it, then truncate its journal back to the
/// header. The truncation happens **only after** the snapshot landed — a
/// crash (or injected fault) anywhere during the save leaves the journal
/// intact — and **only if** no append raced the save: a record landing
/// while the snapshot's state was being exported or written may not be in
/// that snapshot, and truncating would orphan it. The append token is
/// captured before the export inside `save_design`, so any such record
/// makes `reset` refuse; the journal stays (replay over the new snapshot is
/// idempotent) and the next threshold crossing retries.
fn compact_design(state: &ServerState, design: DesignHash) {
    let Some(sink) = &state.journal else {
        return;
    };
    let token = sink.append_token(design);
    if !save_design(state, design) {
        return;
    }
    if sink.reset(design, token) {
        state
            .metrics
            .counter("server_journal_compactions_total")
            .inc();
    } else {
        state
            .metrics
            .counter("server_journal_compactions_deferred_total")
            .inc();
    }
}

/// Runs the journal-compaction check for the designs a fetched batch raced
/// on: a design whose journal has grown past the threshold is compacted.
/// Every raced result is already on disk (the service appended it before
/// publishing), so a batch needs no snapshot of its own; a design whose
/// jobs were all answered from the verdict cache learned nothing and is
/// skipped, which keeps the warm path free of redundant writes.
fn compact_due_designs(state: &ServerState, results: &[JobResult]) {
    let Some(sink) = &state.journal else {
        return;
    };
    let mut raced: Vec<DesignHash> = results
        .iter()
        .filter(|r| !r.from_cache)
        .map(|r| r.design)
        .collect();
    raced.sort_unstable_by_key(|d| d.0);
    raced.dedup();
    for design in raced {
        if sink.journal_bytes(design) >= state.journal_compact_bytes {
            compact_design(state, design);
        }
    }
}

/// The shutdown sweep: a full compaction, so every design ends the session
/// as a snapshot plus an empty journal, then an fsync of whatever records a
/// failed or deferred compaction left in a journal. Returns the number of
/// registered designs.
fn save_all_designs(state: &ServerState) -> usize {
    let designs = state.service.designs();
    for design in &designs {
        compact_design(state, *design);
    }
    if let Some(sink) = &state.journal {
        let synced = sink.flush_all();
        if synced > 0 {
            eprintln!("wlac-server: synced {synced} journal(s) that compaction left behind");
        }
    }
    designs.len()
}

/// Decrements the live-connection count when a connection thread exits, no
/// matter how it exits.
struct ConnGuard<'a>(&'a AtomicUsize);

impl Drop for ConnGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

fn handle_connection(state: &ServerState, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Back-pressure: over the cap, shed with a structured reply carrying a
    // retry hint — the client backs off and reconnects instead of queueing
    // invisibly behind an exhausted thread pool.
    let _guard = ConnGuard(&state.connections);
    if state.connections.fetch_add(1, Ordering::AcqRel) + 1 > state.max_connections {
        state
            .metrics
            .counter("server_connections_rejected_total")
            .inc();
        let reply = error_reply_with_retry(
            ErrorCode::Overloaded,
            format!("connection cap ({}) reached", state.max_connections),
            RETRY_AFTER,
        );
        send_reply(&mut writer, &mut String::new(), &reply).ok();
        return;
    }
    // A silent or stalled peer must not hold a connection thread forever.
    stream.set_read_timeout(state.read_timeout).ok();
    stream.set_write_timeout(state.write_timeout).ok();
    state.metrics.counter("server_connections_total").inc();
    let conn = state.next_conn.fetch_add(1, Ordering::Relaxed);
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    // One buffer serves every line of the connection, and one every reply.
    let mut buf = Vec::new();
    let mut out = String::new();
    loop {
        let line = match read_request_line(&mut reader, &mut buf) {
            Ok(RequestLine::Line) => match std::str::from_utf8(&buf) {
                Ok(line) => line,
                Err(_) => break, // not text: the same as a failed read
            },
            Ok(RequestLine::TooLong) => {
                let reply = error_reply(
                    ErrorCode::BadRequest,
                    format!("request line longer than {MAX_REQUEST_LINE} bytes"),
                );
                record_request(state, conn, "invalid", &reply, Duration::ZERO);
                send_reply(&mut writer, &mut out, &reply).ok();
                break;
            }
            // The client went away or idled past the timeout.
            Ok(RequestLine::Closed) | Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let started = Instant::now();
        let frame = Json::parse(line);
        // `subscribe` escapes the request/reply shape: it pushes a stream of
        // frames until the batch completes or the subscriber is shed, so it
        // is handled here, outside `dispatch`, with the socket in hand. The
        // in-flight gate is deliberately not held across the stream — a
        // subscriber idling on a long batch must not stall shutdown; the
        // stream notices the drain flag and ends instead.
        let subscribe = frame
            .as_ref()
            .ok()
            .filter(|frame| frame.get("op").and_then(Json::as_str) == Some("subscribe"));
        if let Some(frame) = subscribe {
            let request = SubscribeRequest { conn, started };
            match subscribe_connection(state, frame, &stream, &mut out, request) {
                SubscribeOutcome::Reject(reply) => {
                    if send_reply(&mut writer, &mut out, &reply).is_err() {
                        break;
                    }
                }
                SubscribeOutcome::Streamed { close: true } => break,
                SubscribeOutcome::Streamed { close: false } => {}
            }
            continue;
        }
        state.active.enter();
        let (reply, op) = match frame {
            Ok(frame) => dispatch(state, &frame),
            Err(e) => (error_reply(ErrorCode::BadJson, e.to_string()), "invalid"),
        };
        let elapsed = started.elapsed();
        record_request(state, conn, op, &reply, elapsed);
        let sent = send_reply(&mut writer, &mut out, &reply);
        state.active.exit();
        if sent.is_err() {
            break;
        }
    }
}

/// Longest request line a connection reads, newline excluded. The largest
/// legitimate request, a paper-scale `import_knowledge`, is about 400 KB.
pub const MAX_REQUEST_LINE: usize = 16 << 20;

/// What [`read_request_line`] read.
enum RequestLine {
    /// A line, without its line ending, is in the buffer.
    Line,
    /// [`MAX_REQUEST_LINE`] bytes passed without a newline.
    TooLong,
    /// The peer closed the connection.
    Closed,
}

/// Capacity a connection's request-line and reply buffers keep between
/// requests; a buffer that a longer line grew is freed rather than held for
/// the connection's lifetime.
const KEPT_LINE_CAPACITY: usize = 64 << 10;

/// Empties a connection's reply buffer, freeing it first when a long reply
/// grew it past [`KEPT_LINE_CAPACITY`].
fn reuse_reply_buffer(out: &mut String) {
    if out.capacity() > KEPT_LINE_CAPACITY {
        *out = String::new();
    }
    out.clear();
}

/// Appends `frame` to `out` as one line.
fn push_line(out: &mut String, frame: &Json) {
    // Writing into a `String` cannot fail.
    let _ = writeln!(out, "{frame}");
}

/// Writes `reply` as one line, encoded into the connection's reply buffer
/// `out` and sent with one write.
fn send_reply(writer: &mut impl Write, out: &mut String, reply: &Json) -> std::io::Result<()> {
    reuse_reply_buffer(out);
    push_line(out, reply);
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

/// Reads one request line into `buf` (cleared first), buffering at most
/// [`MAX_REQUEST_LINE`] bytes of it. A last line without a newline still
/// counts as a line.
fn read_request_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<RequestLine> {
    if buf.capacity() > KEPT_LINE_CAPACITY {
        *buf = Vec::new();
    }
    buf.clear();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', buf)? == 0 {
        return Ok(RequestLine::Closed);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    Ok(RequestLine::Line)
}

/// How a `subscribe` request ended, for the connection loop. Either way the
/// request is already booked.
enum SubscribeOutcome {
    /// The request never became a stream: answer `reply` like any other op
    /// and keep serving the connection.
    Reject(Json),
    /// The stream ran and wrote its own frames. `close` means the socket is
    /// no longer usable (stalled reader shed, write failure, or server
    /// shutdown).
    Streamed { close: bool },
}

/// Who asked for a stream and when, for its request accounting.
#[derive(Clone, Copy)]
struct SubscribeRequest {
    conn: u64,
    started: Instant,
}

impl SubscribeRequest {
    fn book(&self, state: &ServerState, summary: &Json) {
        record_request(
            state,
            self.conn,
            "subscribe",
            summary,
            self.started.elapsed(),
        );
    }
}

/// Bounds of a subscriber's requested progress-tick interval.
const SUBSCRIBE_MIN_INTERVAL: Duration = Duration::from_millis(1);
const SUBSCRIBE_MAX_INTERVAL: Duration = Duration::from_secs(60);

/// Validates a `subscribe` request and, when it names a live batch, streams
/// it (see [`stream_subscription`]) through the connection's reply buffer
/// `out`.
fn subscribe_connection(
    state: &ServerState,
    frame: &Json,
    stream: &TcpStream,
    out: &mut String,
    request: SubscribeRequest,
) -> SubscribeOutcome {
    let reject = |reply: Json| {
        request.book(state, &reply);
        SubscribeOutcome::Reject(reply)
    };
    let batch = match batch_from(frame) {
        Ok(batch) => batch,
        Err(reply) => return reject(reply),
    };
    if state.service.batch_progress(batch).is_none() {
        return reject(error_reply(
            ErrorCode::UnknownBatch,
            format!("no batch {}", batch.raw()),
        ));
    }
    let interval = frame
        .get("interval_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis)
        .unwrap_or(state.subscribe_interval)
        .clamp(SUBSCRIBE_MIN_INTERVAL, SUBSCRIBE_MAX_INTERVAL);
    stream_subscription(state, batch, interval, stream, out, request)
}

/// Why a subscription stopped writing.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StreamClosed {
    /// The peer went away (EOF or a failed write).
    Gone,
    /// The peer stopped reading: a write stalled for the write timeout.
    Stalled,
}

/// One `subscribe` stream's writer, on the connection thread. Frames are
/// encoded into the connection's reply buffer as the stream builds them,
/// and each loop iteration's frames go to the socket in one write before
/// the stream sleeps or returns. Everything a frame carries is pulled from
/// the service's lock-free progress cells and the batch table, and no lock
/// is held while frames are written, so a slow reader never blocks a
/// worker. A reader that stopped reading stalls a write until it times
/// out; the stream then sheds it (see [`stream_subscription`]).
struct SubscribePush<'a> {
    state: &'a ServerState,
    socket: &'a TcpStream,
    request: SubscribeRequest,
    booked: bool,
    /// Set once a write failed; nothing more is written after that.
    closed: Option<StreamClosed>,
    /// The connection's reply buffer: the frames not yet written.
    out: &'a mut String,
    /// How many frames `out` holds.
    pending: u64,
}

impl SubscribePush<'_> {
    /// Queues one frame for the next [`SubscribePush::flush`]; a no-op once
    /// the stream is over.
    fn push(&mut self, frame: &Json) {
        if self.closed.is_none() {
            push_line(self.out, frame);
            self.pending += 1;
        }
    }

    /// Writes every queued frame; `false` once the stream is over (the peer
    /// went away or stopped reading). The frames are counted before the
    /// write, so a client that has read a frame already sees it counted.
    fn flush(&mut self) -> bool {
        if self.closed.is_some() {
            return false;
        }
        if self.pending > 0 {
            self.state
                .metrics
                .counter("server_subscribe_pushes_total")
                .add(self.pending);
            self.pending = 0;
        }
        let mut rest = self.out.as_bytes();
        let mut socket = self.socket;
        while !rest.is_empty() {
            // A send blocks only while the peer's buffers are full, so one
            // that waited out the write timeout means the peer stopped
            // reading — whether it failed or, having got a few bytes out
            // first, returned them.
            let started = Instant::now();
            let written = socket.write(rest);
            let stalled = self
                .state
                .write_timeout
                .is_some_and(|limit| started.elapsed() >= limit);
            let closed = match written {
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if stalled
                        || matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                {
                    StreamClosed::Stalled
                }
                Err(_) | Ok(0) => StreamClosed::Gone,
                Ok(_) if stalled => StreamClosed::Stalled,
                Ok(n) => {
                    rest = &rest[n..];
                    continue;
                }
            };
            self.closed = Some(closed);
            return false;
        }
        reuse_reply_buffer(self.out);
        true
    }

    /// Books the request once. A completed stream books before it writes
    /// `batch_done`, so a client that has read `batch_done` already sees
    /// the request counted.
    fn book(&mut self, summary: &Json) {
        if !self.booked {
            self.booked = true;
            self.request.book(self.state, summary);
        }
    }
}

/// Streams one batch: a `subscribed` acknowledgement, `job_started` once
/// per job as it is dequeued, periodic `progress` frames for every job
/// still racing, and — the ordering contract observers rely on — for every
/// completed job one final `progress` frame (its closing effort counters,
/// bound always nonzero) immediately followed by its `verdict` frame, then
/// one `batch_done` frame. A batch that already completed replays its final
/// progress and verdicts immediately, so late subscribers (`wlac-client
/// watch` after the fact) still get the full story.
///
/// A subscriber is shed when a socket write stalls past the connection's
/// write timeout: the peer stopped reading, so no structured reply can
/// reach it. The shed is counted, both directions are closed, and the
/// client observes EOF mid-stream — the same spirit as the connection-cap
/// `overloaded` shed.
fn stream_subscription(
    state: &ServerState,
    batch: BatchId,
    interval: Duration,
    stream: &TcpStream,
    out: &mut String,
    request: SubscribeRequest,
) -> SubscribeOutcome {
    reuse_reply_buffer(out);
    let mut push = SubscribePush {
        state,
        socket: stream,
        request,
        booked: false,
        closed: None,
        out,
        pending: 0,
    };
    let shutdown = stream_events(state, batch, interval, &mut push);
    push.flush();
    if push.closed == Some(StreamClosed::Stalled) {
        state
            .metrics
            .counter("server_subscribe_dropped_total")
            .inc();
        stream.shutdown(Shutdown::Both).ok();
        push.book(&error_reply(
            ErrorCode::Overloaded,
            "subscriber stopped reading; shed",
        ));
    } else {
        push.book(&ok_reply(vec![("batch", Json::num(batch.raw()))]));
    }
    SubscribeOutcome::Streamed {
        close: push.closed.is_some() || shutdown,
    }
}

/// The event loop of one subscription; `true` when it ended because the
/// server is draining. Frames queued when it returns are the caller's to
/// flush.
fn stream_events(
    state: &ServerState,
    batch: BatchId,
    interval: Duration,
    push: &mut SubscribePush<'_>,
) -> bool {
    let total = match state.service.batch_progress(batch) {
        Some(progress) => progress.total,
        None => return false,
    };
    let acknowledgement = ok_reply(vec![
        ("event", Json::str("subscribed")),
        ("batch", Json::num(batch.raw())),
        ("total", Json::num(total as u64)),
    ]);
    push.push(&acknowledgement);
    let mut announced = vec![false; total];
    let mut delivered = vec![false; total];
    loop {
        // Deliver every newly completed slot: final progress, then verdict.
        let Some(slots) = state.service.batch_slots(batch) else {
            // The batch was retired and evicted (by `results`, `wait` or
            // another stream) while we streamed; nothing more can be
            // observed.
            return false;
        };
        for (index, slot) in slots.iter().enumerate() {
            if delivered[index] {
                continue;
            }
            let Some((result, probe)) = slot else {
                continue;
            };
            let final_progress = ok_reply(vec![
                ("event", Json::str("progress")),
                ("batch", Json::num(batch.raw())),
                ("index", Json::num(index as u64)),
                ("property", Json::str(result.property.clone())),
                ("elapsed_ms", Json::Num(result.wall.as_secs_f64() * 1e3)),
                (
                    "leading",
                    result
                        .winner
                        .map(|w| Json::str(w.to_string()))
                        .unwrap_or(Json::Null),
                ),
                ("probe", probe_to_wire(probe)),
            ]);
            push.push(&final_progress);
            push.push(&verdict_frame(batch, index, result));
            delivered[index] = true;
        }
        let completed = delivered.iter().filter(|d| **d).count();
        if completed == total {
            // Every verdict is out, so the stream has fetched the batch as
            // `results` would and takes the same post-batch step: the batch
            // is retired (bounded by `retained_batches`, still replayable
            // while retained) and its designs' journals are checked for
            // compaction.
            if let Some(results) = state.service.results(batch) {
                compact_due_designs(state, &results);
            }
            let done = ok_reply(vec![
                ("event", Json::str("batch_done")),
                ("batch", Json::num(batch.raw())),
                ("total", Json::num(total as u64)),
            ]);
            push.book(&ok_reply(vec![("batch", Json::num(batch.raw()))]));
            push.push(&done);
            return false;
        }
        if state.shutting_down.load(Ordering::Acquire) {
            return true;
        }
        // Live progress of everything still racing in this batch.
        if let Some(progress) = state.service.batch_progress(batch) {
            for job in &progress.running {
                if job.index < total && !announced[job.index] {
                    announced[job.index] = true;
                    let started = ok_reply(vec![
                        ("event", Json::str("job_started")),
                        ("batch", Json::num(batch.raw())),
                        ("index", Json::num(job.index as u64)),
                        ("job", Json::num(job.job)),
                        ("property", Json::str(job.property.clone())),
                        ("design", Json::str(design_to_wire(job.design))),
                    ]);
                    push.push(&started);
                }
                let frame = ok_reply(vec![
                    ("event", Json::str("progress")),
                    ("batch", Json::num(batch.raw())),
                    ("index", Json::num(job.index as u64)),
                    ("property", Json::str(job.property.clone())),
                    ("elapsed_ms", Json::Num(job.elapsed.as_secs_f64() * 1e3)),
                    (
                        "leading",
                        job.leading
                            .map(|e| Json::str(e.to_string()))
                            .unwrap_or(Json::Null),
                    ),
                    ("probe", probe_to_wire(&job.probe)),
                ]);
                push.push(&frame);
            }
        }
        if !push.flush() {
            return false;
        }
        // Sleep until a job completes or the next tick is due.
        if state
            .service
            .wait_batch_change(batch, completed, interval)
            .is_none()
        {
            return false;
        }
    }
}

/// Books one finished request: per-op counter and latency histogram, a
/// per-code error counter when the reply is a failure, a Server-layer
/// flight-recorder event, a rolling SLO sample, and the slow-request log
/// line (carrying the connection id, so a slow request is attributable to
/// its client).
fn record_request(
    state: &ServerState,
    conn: u64,
    op: &'static str,
    reply: &Json,
    elapsed: Duration,
) {
    let nanos = elapsed.as_nanos() as u64;
    state
        .metrics
        .counter(&format!("server_requests_{op}_total"))
        .inc();
    state
        .metrics
        .histogram(&format!("server_op_{op}_wall_ns"))
        .record(nanos);
    let error_code = reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    if let Some(code) = error_code {
        state
            .metrics
            .counter(&format!("server_errors_{code}_total"))
            .inc();
    }
    // The recorder event stamps the connection id as its job and the op (as
    // its KNOWN_OPS index) plus the wall clock as payload: `events` can tail
    // the request loop without parsing the slow-request log.
    let op_index = KNOWN_OPS.iter().position(|k| *k == op).unwrap_or(0) as u64;
    state.recorder.record(
        RecorderLayer::Server,
        RecorderKind::End,
        conn,
        op_index,
        nanos,
    );
    state.slo.push(nanos, error_code.is_some());
    if elapsed >= SLOW_REQUEST_THRESHOLD {
        eprintln!(
            "wlac-server: slow request conn={conn} op={op} wall_ms={:.1} outcome={}",
            elapsed.as_secs_f64() * 1e3,
            error_code.unwrap_or("ok"),
        );
    }
}

fn dispatch(state: &ServerState, frame: &Json) -> (Json, &'static str) {
    let Some(op) = frame.get("op").and_then(Json::as_str) else {
        return (
            error_reply(ErrorCode::BadRequest, "missing string member `op`"),
            "invalid",
        );
    };
    if state.shutting_down.load(Ordering::Acquire)
        && matches!(op, "register_design" | "submit_batch" | "import_knowledge")
    {
        return (
            error_reply(ErrorCode::ShuttingDown, "server is draining"),
            canonical_op(op),
        );
    }
    let reply = match op {
        "ping" => ok_reply(Vec::new()),
        "register_design" => op_register_design(state, frame),
        "submit_batch" => op_submit_batch(state, frame),
        "results" => op_results(state, frame),
        "wait" => op_wait(state, frame),
        "progress" => op_progress(state, frame),
        // Unreachable from the connection loop (subscribe is intercepted
        // before dispatch, socket in hand); kept so a unit caller gets a
        // diagnosis rather than `unknown_op`.
        "subscribe" => error_reply(
            ErrorCode::BadRequest,
            "subscribe streams on its connection and cannot be dispatched",
        ),
        "stats" => op_stats(state),
        "export_knowledge" => op_export_knowledge(state, frame),
        "import_knowledge" => op_import_knowledge(state, frame),
        "metrics" => op_metrics(state),
        "health" => op_health(state),
        "events" => op_events(state, frame),
        "trace_check" => op_trace_check(state, frame),
        "shutdown" => op_shutdown(state),
        _ => error_reply(ErrorCode::UnknownOp, format!("unknown op `{op}`")),
    };
    (reply, canonical_op(op))
}

/// The wire spelling of what an acknowledged result promises: `journal`
/// with a data directory, `none` without one.
fn durability_mode(state: &ServerState) -> &'static str {
    if state.journal.is_some() {
        "journal"
    } else {
        "none"
    }
}

fn op_stats(state: &ServerState) -> Json {
    // The request-accounting view: how often each op was called and how
    // often each error code was produced, from the same counters the
    // `metrics` op exposes (looking one up creates it at zero, so the reply
    // always enumerates the full vocabulary).
    let ops = Json::Obj(
        KNOWN_OPS
            .iter()
            .map(|op| {
                (
                    (*op).to_string(),
                    Json::num(
                        state
                            .metrics
                            .counter(&format!("server_requests_{op}_total"))
                            .get(),
                    ),
                )
            })
            .collect(),
    );
    let errors = Json::Obj(
        ErrorCode::ALL
            .iter()
            .map(|code| {
                (
                    code.as_str().to_string(),
                    Json::num(
                        state
                            .metrics
                            .counter(&format!("server_errors_{}_total", code.as_str()))
                            .get(),
                    ),
                )
            })
            .collect(),
    );
    refresh_derived_gauges(state);
    ok_reply(vec![
        (
            "stats",
            stats_to_wire(
                &state.service.stats(),
                durability_mode(state),
                &state.metrics,
            ),
        ),
        ("ops", ops),
        ("errors", errors),
        ("version", Json::str(env!("CARGO_PKG_VERSION"))),
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
    ])
}

/// Pushes the derived observability gauges into the registry so both
/// exposition paths (`metrics`, `stats`) and every post-mortem bundle see
/// them: uptime and the flight recorder's overwrite/recorded counts.
/// Gauges rather than counters because they mirror external state instead
/// of accumulating here.
fn refresh_derived_gauges(state: &ServerState) {
    state
        .metrics
        .gauge("server_uptime_seconds")
        .set(state.started.elapsed().as_secs_f64());
    state
        .metrics
        .gauge("server_recorder_overwrites")
        .set(state.recorder.overwrites() as f64);
    state
        .metrics
        .gauge("server_recorder_recorded")
        .set(state.recorder.recorded() as f64);
}

fn op_metrics(state: &ServerState) -> Json {
    // Both exposition formats from one registry snapshot: the Prometheus
    // text for scrapers, the flat JSON object for tooling that already
    // speaks the protocol. The JSON text round-trips through the parser so
    // it lands in the reply as a real object, not a quoted blob.
    refresh_derived_gauges(state);
    let rendered = state.metrics.render_json();
    let json = Json::parse(&rendered)
        .unwrap_or_else(|e| Json::str(format!("metrics rendering failed to parse: {e}")));
    // The registry's names are label-free by design; the conventional
    // build-info gauge carries its one label here, at the exposition edge.
    let prometheus = format!(
        "{}# TYPE wlac_build_info gauge\nwlac_build_info{{version=\"{}\"}} 1\n",
        state.metrics.render_prometheus(),
        env!("CARGO_PKG_VERSION"),
    );
    ok_reply(vec![
        ("prometheus", Json::str(prometheus)),
        ("metrics", json),
    ])
}

fn op_health(state: &ServerState) -> Json {
    let stats = state.service.stats();
    let workers_ok = stats.workers_alive >= state.configured_workers;
    let queue_ok = stats.queue_depth <= state.max_queue_depth;
    let last_failure_age = state
        .last_autosave_failure
        .lock_recover()
        .map(|at| at.elapsed());
    let durability_ok = last_failure_age.is_none_or(|age| age > SLO_WINDOW);
    let (requests, error_rate, p99) = state.slo.fold();
    let slo_ok = error_rate <= SLO_ERROR_RATE && p99 <= SLO_P99;
    let draining = state.shutting_down.load(Ordering::Acquire);
    // Liveness is answering at all; readiness is having the capacity to take
    // more work (worker quorum + queue headroom, and not draining); degraded
    // flags objective or durability trouble while still serving.
    let ready = workers_ok && queue_ok && !draining;
    let degraded = !durability_ok || !slo_ok;
    let status = if !ready {
        "not_ready"
    } else if degraded {
        "degraded"
    } else {
        "ready"
    };
    let workers = Json::obj(vec![
        ("alive", Json::num(stats.workers_alive as u64)),
        ("configured", Json::num(state.configured_workers as u64)),
        ("ok", Json::Bool(workers_ok)),
    ]);
    let queue = Json::obj(vec![
        ("depth", Json::num(stats.queue_depth as u64)),
        ("capacity", Json::num(state.max_queue_depth as u64)),
        ("ok", Json::Bool(queue_ok)),
    ]);
    let durability = Json::obj(vec![
        ("mode", Json::str(durability_mode(state))),
        (
            "last_autosave_failure_s",
            match last_failure_age {
                Some(age) => Json::Num(age.as_secs_f64()),
                None => Json::Null,
            },
        ),
        ("ok", Json::Bool(durability_ok)),
    ]);
    let slo = Json::obj(vec![
        ("window_s", Json::Num(SLO_WINDOW.as_secs_f64())),
        ("requests", Json::num(requests as u64)),
        ("error_rate", Json::Num(error_rate)),
        ("error_rate_objective", Json::Num(SLO_ERROR_RATE)),
        ("p99_ms", Json::Num(p99.as_secs_f64() * 1e3)),
        ("p99_objective_ms", Json::Num(SLO_P99.as_secs_f64() * 1e3)),
        ("ok", Json::Bool(slo_ok)),
    ]);
    ok_reply(vec![
        ("status", Json::str(status)),
        ("live", Json::Bool(true)),
        ("ready", Json::Bool(ready)),
        ("degraded", Json::Bool(degraded)),
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        (
            "checks",
            Json::obj(vec![
                ("workers", workers),
                ("queue", queue),
                ("durability", durability),
                ("slo", slo),
            ]),
        ),
    ])
}

/// Default and hard cap of the `events` op's reply size.
const EVENTS_DEFAULT_LIMIT: usize = 256;

fn op_events(state: &ServerState, frame: &Json) -> Json {
    let layer = match frame.get("layer").and_then(Json::as_str) {
        Some(name) => match RecorderLayer::parse(name) {
            Some(layer) => Some(layer),
            None => {
                return error_reply(
                    ErrorCode::BadRequest,
                    format!(
                        "unknown layer `{name}` (expected one of: {})",
                        RecorderLayer::ALL.map(RecorderLayer::as_str).join(", ")
                    ),
                )
            }
        },
        None => None,
    };
    let job = frame.get("job").and_then(Json::as_u64);
    let limit = frame
        .get("limit")
        .and_then(Json::as_u64)
        .map(|l| l as usize)
        .unwrap_or(EVENTS_DEFAULT_LIMIT)
        .min(state.recorder.capacity());
    let events = state.recorder.snapshot();
    let selected: Vec<Json> = events
        .iter()
        .filter(|e| layer.is_none_or(|l| e.layer == l))
        .filter(|e| job.is_none_or(|j| e.job == j))
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .take(limit)
        .rev()
        .map(event_to_json)
        .collect();
    ok_reply(vec![
        ("events", Json::Arr(selected)),
        ("recorded", Json::num(state.recorder.recorded())),
        ("overwritten", Json::num(state.recorder.overwrites())),
        ("capacity", Json::num(state.recorder.capacity() as u64)),
    ])
}

fn op_register_design(state: &ServerState, frame: &Json) -> Json {
    let Some(source) = frame.get("source").and_then(Json::as_str) else {
        return error_reply(ErrorCode::BadRequest, "missing string member `source`");
    };
    let netlist = match wlac_frontend::compile(source) {
        Ok(netlist) => netlist,
        Err(e) => return error_reply(ErrorCode::CompileError, e.to_string()),
    };
    let design = state.service.register_design(&netlist);
    let outputs = Json::Arr(
        netlist
            .outputs()
            .iter()
            .map(|(name, _)| Json::str(name.clone()))
            .collect(),
    );
    ok_reply(vec![
        ("design", Json::str(design_to_wire(design))),
        ("module", Json::str(netlist.name())),
        ("outputs", outputs),
    ])
}

/// Resolves a monitor reference: a marked output name first, then any named
/// net. Must be a single-bit net.
fn resolve_monitor(netlist: &Netlist, name: &str) -> Result<NetId, String> {
    let net = netlist
        .outputs()
        .iter()
        .find(|(output, _)| output == name)
        .map(|(_, net)| *net)
        .or_else(|| netlist.find_net(name))
        .ok_or_else(|| format!("no output or named net `{name}`"))?;
    if netlist.net_width(net) != 1 {
        return Err(format!(
            "`{name}` is {} bits wide; monitors must be single-bit",
            netlist.net_width(net)
        ));
    }
    Ok(net)
}

/// The registered designs one request has looked up so far: a batch takes
/// one registry lookup per distinct design, not one per job.
type DesignLookups = HashMap<DesignHash, Arc<Netlist>>;

/// Resolves one wire job against the registered designs. The job names its
/// design by hash and its nets by name; the result names the same things by
/// hash and id, next to the design's netlist, and copies nothing from it.
fn parse_job<'a>(
    state: &ServerState,
    designs: &'a mut DesignLookups,
    job: &Json,
    index: usize,
) -> Result<(Job, &'a Netlist), Json> {
    let bad = |message: String| Err(error_reply(ErrorCode::BadProperty, message));
    let Some(design_text) = job.get("design").and_then(Json::as_str) else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            format!("job #{index}: missing string member `design`"),
        ));
    };
    let Some(design) = design_from_wire(design_text) else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            format!("job #{index}: `{design_text}` is not a design hash"),
        ));
    };
    let netlist: &Netlist = match designs.entry(design) {
        Entry::Occupied(entry) => entry.into_mut(),
        Entry::Vacant(entry) => match state.service.design(design) {
            Some(netlist) => entry.insert(netlist),
            None => {
                return Err(error_reply(
                    ErrorCode::UnknownDesign,
                    format!("job #{index}: design {design_text} is not registered"),
                ))
            }
        },
    };
    let Some(property) = job.get("property") else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            format!("job #{index}: missing member `property`"),
        ));
    };
    let kind = match property.get("kind").and_then(Json::as_str) {
        Some("always") | None => PropertyKind::Always,
        Some("eventually") => PropertyKind::Eventually,
        Some(other) => {
            return bad(format!(
                "job #{index}: property kind `{other}` (expected `always` or `eventually`)"
            ))
        }
    };
    let Some(monitor_name) = property.get("monitor").and_then(Json::as_str) else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            format!("job #{index}: property is missing string member `monitor`"),
        ));
    };
    let monitor = match resolve_monitor(netlist, monitor_name) {
        Ok(net) => net,
        Err(message) => return bad(format!("job #{index}: {message}")),
    };
    let name = property
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or(monitor_name)
        .to_string();
    let mut environment = Vec::new();
    if let Some(env) = job.get("environment") {
        let Some(items) = env.as_arr() else {
            return bad(format!("job #{index}: `environment` must be an array"));
        };
        for item in items {
            let Some(env_name) = item.as_str() else {
                return bad(format!("job #{index}: environment entries must be strings"));
            };
            match resolve_monitor(netlist, env_name) {
                Ok(net) => environment.push(net),
                Err(message) => return bad(format!("job #{index}: {message}")),
            }
        }
    }
    let job = Job {
        design,
        property: Property {
            name,
            kind,
            monitor,
        },
        environment,
    };
    Ok((job, netlist))
}

fn op_submit_batch(state: &ServerState, frame: &Json) -> Json {
    let Some(jobs) = frame.get("jobs").and_then(Json::as_arr) else {
        return error_reply(ErrorCode::BadRequest, "missing array member `jobs`");
    };
    let mut designs = DesignLookups::new();
    let parsed: Result<Vec<Job>, Json> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| parse_job(state, &mut designs, job, index).map(|(job, _)| job))
        .collect();
    match parsed {
        Ok(jobs) => {
            let batch = state.service.submit(jobs);
            ok_reply(vec![("batch", Json::num(batch.raw()))])
        }
        Err(reply) => reply,
    }
}

fn batch_from(frame: &Json) -> Result<BatchId, Json> {
    frame
        .get("batch")
        .and_then(Json::as_u64)
        .map(BatchId::from_raw)
        .ok_or_else(|| error_reply(ErrorCode::BadRequest, "missing integer member `batch`"))
}

/// The reply of a finished `results` or `wait`, after the post-batch
/// compaction check.
fn deliver_results(state: &ServerState, results: Vec<JobResult>) -> Json {
    compact_due_designs(state, &results);
    results_reply(&results)
}

fn op_results(state: &ServerState, frame: &Json) -> Json {
    let batch = match batch_from(frame) {
        Ok(batch) => batch,
        Err(reply) => return reply,
    };
    match state.service.results(batch) {
        Some(results) => deliver_results(state, results),
        None => match state.service.batch_progress(batch) {
            Some(_) => error_reply(ErrorCode::NotDone, "batch is still running; wait"),
            None => error_reply(ErrorCode::UnknownBatch, format!("no batch {}", batch.raw())),
        },
    }
}

fn op_wait(state: &ServerState, frame: &Json) -> Json {
    let batch = match batch_from(frame) {
        Ok(batch) => batch,
        Err(reply) => return reply,
    };
    if state.service.batch_progress(batch).is_none() {
        return error_reply(ErrorCode::UnknownBatch, format!("no batch {}", batch.raw()));
    }
    // Bounded on the server side no matter what the client asks for: an
    // unbounded wait would pin a connection thread to a wedged batch forever.
    // Clients may ask for less via `timeout_ms` and wait again on `timeout`.
    let timeout = frame
        .get("timeout_ms")
        .and_then(Json::as_u64)
        .map(Duration::from_millis)
        .map_or(state.wait_timeout, |t| t.min(state.wait_timeout));
    match state.service.wait_timeout(batch, timeout) {
        Some(results) => deliver_results(state, results),
        None => error_reply(
            ErrorCode::Timeout,
            format!(
                "batch {} not done after {} ms; wait again",
                batch.raw(),
                timeout.as_millis()
            ),
        ),
    }
}

/// Point-in-time progress. With a `batch` member: that batch's completion
/// counts plus a row per job still racing. Without: the whole server's live
/// load — queue depth, worker liveness, and every in-flight job — the data
/// behind `wlac-client top`.
fn op_progress(state: &ServerState, frame: &Json) -> Json {
    if frame.get("batch").is_some() {
        let batch = match batch_from(frame) {
            Ok(batch) => batch,
            Err(reply) => return reply,
        };
        return match state.service.batch_progress(batch) {
            Some(progress) => ok_reply(vec![
                ("batch", Json::num(batch.raw())),
                ("total", Json::num(progress.total as u64)),
                ("completed", Json::num(progress.completed as u64)),
                ("done", Json::Bool(progress.done())),
                (
                    "running",
                    Json::Arr(progress.running.iter().map(job_progress_to_wire).collect()),
                ),
            ]),
            None => error_reply(ErrorCode::UnknownBatch, format!("no batch {}", batch.raw())),
        };
    }
    let stats = state.service.stats();
    let running = state.service.running_jobs();
    ok_reply(vec![
        ("queue_depth", Json::num(stats.queue_depth as u64)),
        ("running_jobs", Json::num(running.len() as u64)),
        ("workers_alive", Json::num(stats.workers_alive as u64)),
        ("uptime_s", Json::Num(state.started.elapsed().as_secs_f64())),
        (
            "running",
            Json::Arr(running.iter().map(job_progress_to_wire).collect()),
        ),
    ])
}

fn design_from(state: &ServerState, frame: &Json) -> Result<DesignHash, Json> {
    let Some(text) = frame.get("design").and_then(Json::as_str) else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            "missing string member `design`",
        ));
    };
    let Some(design) = design_from_wire(text) else {
        return Err(error_reply(
            ErrorCode::BadRequest,
            format!("`{text}` is not a design hash"),
        ));
    };
    if state.service.design(design).is_none() {
        return Err(error_reply(
            ErrorCode::UnknownDesign,
            format!("design {text} is not registered"),
        ));
    }
    Ok(design)
}

fn op_export_knowledge(state: &ServerState, frame: &Json) -> Json {
    let design = match design_from(state, frame) {
        Ok(design) => design,
        Err(reply) => return reply,
    };
    let Some(snapshot) = assemble_snapshot(state, design) else {
        return error_reply(ErrorCode::Internal, "design vanished mid-export");
    };
    match encode_snapshot(&snapshot) {
        Ok(bytes) => ok_reply(vec![
            ("design", Json::str(design_to_wire(design))),
            ("snapshot", Json::str(hex_encode(&bytes))),
        ]),
        Err(e) => error_reply(ErrorCode::Internal, e.to_string()),
    }
}

fn op_import_knowledge(state: &ServerState, frame: &Json) -> Json {
    let Some(hex) = frame.get("snapshot").and_then(Json::as_str) else {
        return error_reply(ErrorCode::BadRequest, "missing string member `snapshot`");
    };
    let Some(bytes) = hex_decode(hex) else {
        return error_reply(ErrorCode::BadRequest, "`snapshot` is not hex");
    };
    let snapshot = match decode_snapshot(&bytes) {
        Ok(snapshot) => snapshot,
        Err(e) => return error_reply(ErrorCode::BadSnapshot, e.to_string()),
    };
    // When the caller names a design, the snapshot must describe it — this
    // is how a client warm-starting a specific design finds out it sent the
    // wrong file.
    if let Some(text) = frame.get("design").and_then(Json::as_str) {
        match design_from_wire(text) {
            Some(design) if design == snapshot.knowledge.design() => {}
            Some(_) | None => {
                return error_reply(
                    ErrorCode::BadSnapshot,
                    format!(
                        "snapshot describes design {}, not {text}",
                        design_to_wire(snapshot.knowledge.design())
                    ),
                )
            }
        }
    }
    let (design, verdicts) =
        match state
            .service
            .restore(&snapshot.netlist, &snapshot.knowledge, &snapshot.verdicts)
        {
            Ok(restored) => restored,
            Err(e) => return error_reply(ErrorCode::BadSnapshot, e.to_string()),
        };
    ok_reply(vec![
        ("design", Json::str(design_to_wire(design))),
        ("verdicts", Json::num(verdicts as u64)),
    ])
}

/// Encodes one trace event for the wire.
fn trace_event_to_wire(event: &wlac_telemetry::TraceEvent) -> Json {
    Json::obj(vec![
        ("at_ns", Json::num(event.at_nanos)),
        ("kind", Json::str(event.kind.as_str())),
        ("name", Json::str(event.name)),
        ("id", Json::num(event.id)),
        ("parent", Json::num(event.parent)),
        ("value", Json::num(event.value)),
    ])
}

/// On-demand traced check: runs the job once through the paper's ATPG
/// checker with tracing enabled and returns the phase-attributed time
/// breakdown plus the span events, instead of just a verdict. The run is
/// deliberately outside the service (no cache, no warm start, single
/// engine): the point is a reproducible profile of *this* check, not the
/// fastest answer.
fn op_trace_check(state: &ServerState, frame: &Json) -> Json {
    let verification = match parse_job(state, &mut DesignLookups::new(), frame, 0) {
        Ok((job, netlist)) => Verification {
            netlist: netlist.clone(),
            property: job.property,
            environment: job.environment,
        },
        Err(reply) => return reply,
    };
    let tracer = Arc::new(Tracer::new(8192));
    let options = state
        .checker_options
        .clone()
        .with_trace(TraceSink::to(Arc::clone(&tracer)));
    let report: CheckReport = AssertionChecker::new(options).check(&verification);

    let phases = &report.stats.phases;
    let phases_wire = Json::obj(vec![
        ("implication_ns", Json::num(phases.implication)),
        ("justification_ns", Json::num(phases.justification)),
        ("decision_ns", Json::num(phases.decision)),
        ("datapath_ns", Json::num(phases.datapath)),
        ("sat_leaf_ns", Json::num(phases.sat_leaf)),
        ("backtrack_ns", Json::num(phases.backtrack)),
        ("other_ns", Json::num(phases.other)),
        ("total_ns", Json::num(phases.total())),
    ]);
    let stats = &report.stats;
    let stats_wire = Json::obj(vec![
        ("decisions", Json::num(stats.decisions)),
        ("datapath_splits", Json::num(stats.datapath_splits)),
        ("backtracks", Json::num(stats.backtracks)),
        (
            "gate_evaluations",
            Json::num(stats.implication.gate_evaluations),
        ),
        ("arithmetic_calls", Json::num(stats.arithmetic_calls)),
        (
            "justify_gates_rechecked",
            Json::num(stats.justify_gates_rechecked),
        ),
        ("frames_explored", Json::num(stats.frames_explored as u64)),
        (
            "peak_memory_bytes",
            Json::num(stats.peak_memory_bytes as u64),
        ),
    ]);
    let events = tracer.events();
    ok_reply(vec![
        ("property", Json::str(report.property)),
        ("verdict", verdict_to_wire(&report.result)),
        (
            "elapsed_ms",
            Json::Num(report.stats.elapsed.as_secs_f64() * 1e3),
        ),
        ("phases", phases_wire),
        ("stats", stats_wire),
        (
            "events",
            Json::Arr(events.iter().map(trace_event_to_wire).collect()),
        ),
        ("events_dropped", Json::num(tracer.dropped())),
    ])
}

fn op_shutdown(state: &ServerState) -> Json {
    state.shutting_down.store(true, Ordering::Release);
    // Drain before replying: when the client sees this reply, every job it
    // (or anyone else) submitted has a result and is on disk. Bounded, so a
    // wedged job cannot turn shutdown into a hang.
    let drained = state.service.drain_timeout(state.drain_timeout);
    if !drained {
        eprintln!("wlac-server: shutdown drain timed out; unfinished jobs abandoned");
    }
    let saved = save_all_designs(state);
    // Wake the blocking accept loop so `run` notices the flag; the loop
    // drops this connection without serving it.
    TcpStream::connect(state.addr).ok();
    ok_reply(vec![
        ("saved_designs", Json::num(saved as u64)),
        ("drained", Json::Bool(drained)),
    ])
}
