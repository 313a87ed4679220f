//! Deterministic fault-injection ("chaos") suite: a real server on a real
//! socket with a seeded [`FaultPlan`] arming engine hangs, worker panics,
//! autosave I/O failures and torn snapshot writes — asserting the stack
//! degrades exactly as designed and that surviving verdicts are
//! byte-identical to a fault-free run.
//!
//! Determinism: every faulted service runs `workers = 1` and a single-engine
//! portfolio where verdict bytes are compared, so job order, fault arrival
//! order and verdict content are all reproducible.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use wlac_faultinject::{FaultPlan, FaultSite};
use wlac_portfolio::Engine;
use wlac_server::{Json, Server, ServerConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "wlac-chaos-test-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        fs::remove_dir_all(&self.0).ok();
    }
}

/// Same saturating counter the e2e suite uses: `ok` holds, `bad` is violated
/// around cycle 5.
const COUNTER_V: &str = r#"
    module counter(input clk, output ok, output bad);
      reg [7:0] q;
      always @(posedge clk) begin
        if (q == 10)
          q <= 10;
        else
          q <= q + 1;
      end
      assign ok = q < 11;
      assign bad = q < 5;
    endmodule
"#;

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let writer = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Client { writer, reader }
    }

    /// Sends one frame and reads one reply line; `Err` when the connection
    /// died mid-exchange (expected under some faults).
    fn try_raw(&mut self, line: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        self.reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        if reply.is_empty() {
            return Err("server closed the connection".into());
        }
        Json::parse(reply.trim_end()).map_err(|e| format!("bad reply: {e}"))
    }

    fn call(&mut self, request: Json) -> Json {
        let reply = self.try_raw(&request.to_string()).expect("exchange");
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {request} failed: {reply}"
        );
        reply
    }

    /// Reads one unsolicited line (the overload shed arrives before any
    /// request is sent).
    fn read_line(&mut self) -> Json {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("receive");
        assert!(!reply.is_empty(), "server closed without a reply");
        Json::parse(reply.trim_end()).expect("reply is valid JSON")
    }

    fn register_counter(&mut self) -> String {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("register_design")),
            ("source", Json::str(COUNTER_V)),
        ]));
        reply
            .get("design")
            .and_then(Json::as_str)
            .expect("design hash")
            .to_string()
    }

    /// Submits jobs as `(kind, monitor)` pairs and returns the batch id.
    fn submit(&mut self, design: &str, jobs: &[(&str, &str)]) -> u64 {
        let job_values = jobs
            .iter()
            .map(|(kind, monitor)| {
                Json::obj(vec![
                    ("design", Json::str(design)),
                    (
                        "property",
                        Json::obj(vec![
                            ("kind", Json::str(*kind)),
                            ("monitor", Json::str(*monitor)),
                        ]),
                    ),
                ])
            })
            .collect();
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("submit_batch")),
            ("jobs", Json::Arr(job_values)),
        ]));
        reply.get("batch").and_then(Json::as_u64).expect("batch id")
    }

    fn wait(&mut self, batch: u64) -> Vec<Json> {
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("wait")),
            ("batch", Json::num(batch)),
        ]));
        reply
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array")
            .to_vec()
    }

    fn stats(&mut self) -> Json {
        let reply = self.call(Json::obj(vec![("op", Json::str("stats"))]));
        reply.get("stats").cloned().expect("stats object")
    }

    fn metric(&mut self, name: &str) -> u64 {
        let reply = self.call(Json::obj(vec![("op", Json::str("metrics"))]));
        reply
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn shutdown(&mut self) -> Json {
        self.call(Json::obj(vec![("op", Json::str("shutdown"))]))
    }
}

/// A deterministic single-engine, single-worker config: job order is submit
/// order and verdict bytes are reproducible run to run.
fn deterministic_config() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    config.service.workers = 1;
    config.service.portfolio = config
        .service
        .portfolio
        .clone()
        .with_engines(vec![Engine::Atpg]);
    config.service.portfolio.checker.max_frames = 6;
    config.service.portfolio.checker.time_limit = Duration::from_secs(30);
    config
}

fn start(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>, usize) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let loaded = server.loaded_snapshots();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle, loaded)
}

/// The verdict object alone — label plus its payload (frames, trace length),
/// no wall-clock or engine-attribution noise — rendered to bytes.
fn verdict_bytes(result: &Json) -> String {
    result.get("verdict").expect("verdict").to_string()
}

fn label_of(result: &Json) -> String {
    result
        .get("verdict")
        .and_then(|v| v.get("label"))
        .and_then(Json::as_str)
        .expect("verdict label")
        .to_string()
}

/// Runs the three-job batch fault-free and returns its verdict bytes — the
/// reference the faulted runs are compared against.
fn fault_free_verdicts(jobs: &[(&str, &str)]) -> Vec<String> {
    let (addr, handle, _) = start(deterministic_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, jobs);
    let results = client.wait(batch);
    let verdicts = results.iter().map(verdict_bytes).collect();
    client.shutdown();
    handle.join().expect("server thread");
    verdicts
}

const THREE_JOBS: [(&str, &str); 3] = [("always", "ok"), ("always", "bad"), ("eventually", "bad")];

#[test]
fn deadline_turns_a_hung_engine_into_a_timeout_and_frees_the_worker() {
    let budget = Duration::from_millis(400);
    let mut config = deterministic_config();
    config.service.portfolio.job_budget = Some(budget);
    // Every engine run hangs until its cancel token releases it — only the
    // job-budget deadline can produce an answer.
    config.service.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();

    let started = Instant::now();
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    let elapsed = started.elapsed();
    assert_eq!(results.len(), 1);
    assert_eq!(label_of(&results[0]), "timeout");
    assert_eq!(
        results[0]
            .get("verdict")
            .and_then(|v| v.get("budget_ms"))
            .and_then(Json::as_u64),
        Some(budget.as_millis() as u64)
    );
    // The acceptance bar: an over-budget job frees its worker within twice
    // the budget (measured end to end over the socket, so includes queueing
    // and the reply round-trip).
    assert!(
        elapsed < budget * 2,
        "timeout took {elapsed:?}, budget {budget:?}"
    );

    // The (sole) worker is genuinely free: a second batch gets an answer too.
    let batch = client.submit(&design, &[("always", "bad")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "timeout");

    let stats = client.stats();
    assert_eq!(
        stats.get("timed_out_jobs").and_then(Json::as_u64),
        Some(2),
        "{stats}"
    );
    assert!(client.metric("service_jobs_timed_out_total") >= 2);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn worker_panic_quarantines_only_the_faulted_job() {
    let reference = fault_free_verdicts(&THREE_JOBS);

    let mut config = deterministic_config();
    // The second job the (single) worker picks up panics mid-processing.
    config.service.faults = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 2);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &THREE_JOBS);
    let results = client.wait(batch);
    assert_eq!(results.len(), 3);

    // Job 2 (0-based index 1) is quarantined with a structured error verdict;
    // the jobs before and after it are byte-identical to the fault-free run.
    assert_eq!(label_of(&results[1]), "unknown");
    assert!(
        verdict_bytes(&results[1]).contains("quarantined"),
        "{}",
        verdict_bytes(&results[1])
    );
    assert_eq!(verdict_bytes(&results[0]), reference[0]);
    assert_eq!(verdict_bytes(&results[2]), reference[2]);

    let stats = client.stats();
    assert_eq!(
        stats.get("quarantined_jobs").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        stats.get("workers_respawned").and_then(Json::as_u64),
        Some(0),
        "the per-job fence holds, so the worker itself survives: {stats}"
    );
    assert!(client.metric("service_jobs_quarantined_total") >= 1);

    // The same (fenced) worker serves new work.
    let batch = client.submit(&design, &[("eventually", "ok")]);
    let results = client.wait(batch);
    assert_eq!(results.len(), 1);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_lost_worker_is_respawned_and_the_pool_keeps_serving() {
    let mut config = deterministic_config();
    // A panic that escapes the per-job fence (fires after the job completed,
    // outside the fence) kills the worker thread itself — the supervision
    // sentinel must replace it.
    config.service.faults = FaultPlan::new().fire_nth(FaultSite::WorkerLoss, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    assert_eq!(results.len(), 1);
    assert_eq!(label_of(&results[0]), "proved");

    // The sole worker died after that job; without a respawn this second
    // batch would hang forever.
    let batch = client.submit(&design, &[("always", "bad")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "violated");
    let stats = client.stats();
    assert_eq!(
        stats.get("workers_respawned").and_then(Json::as_u64),
        Some(1),
        "{stats}"
    );
    assert_eq!(
        stats.get("quarantined_jobs").and_then(Json::as_u64),
        Some(0)
    );
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn portfolio_masks_a_hung_engine() {
    // Full engine set, ATPG hangs forever: a sibling engine answers, the race
    // cancels the hung loser, and the verdicts match the fault-free labels
    // (SAT BMC closes the induction step ATPG closes, so `ok` is proved).
    let mut config = deterministic_config();
    config.service.portfolio = config.service.portfolio.clone().with_engines(vec![
        Engine::Atpg,
        Engine::SatBmc,
        Engine::RandomSim,
    ]);
    config.service.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok"), ("always", "bad")]);
    let results = client.wait(batch);
    assert_eq!(results.len(), 2);
    assert_eq!(label_of(&results[0]), "proved");
    assert_eq!(label_of(&results[1]), "violated");
    assert_ne!(
        results[0].get("winner").and_then(Json::as_str),
        Some("atpg"),
        "the hung engine cannot win: {}",
        results[0]
    );
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn autosave_write_failure_degrades_durability_not_service() {
    let dir = TempDir::new();
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    // Any journal record crosses the compaction threshold, so every raced
    // batch ends in a snapshot save: the autosave path this test faults.
    config.journal_compact_bytes = 1;
    // Every snapshot write fails before touching the file system.
    config.service.faults = FaultPlan::new().fire_from(FaultSite::SnapshotWrite, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "proved");

    // The autosave failed (counted) but the server keeps answering, and the
    // data directory holds no snapshot at all.
    assert!(client.metric("server_autosave_failures_total") >= 1);
    assert_eq!(client.metric("server_autosaves_total"), 0);
    let snapshots = fs::read_dir(&dir.0)
        .expect("data dir")
        .filter(|e| {
            e.as_ref()
                .expect("entry")
                .path()
                .extension()
                .is_some_and(|x| x == "wlacsnap")
        })
        .count();
    assert_eq!(snapshots, 0, "failed writes must not publish snapshots");
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "proved");
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn kill_during_autosave_leaves_a_recoverable_store() {
    let dir = TempDir::new();

    // Session 1: clean run, graceful shutdown — a good snapshot on disk.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &THREE_JOBS);
    let reference: Vec<String> = client.wait(batch).iter().map(verdict_bytes).collect();
    client.shutdown();
    handle.join().expect("server thread");
    let snapshot_name = fs::read_dir(&dir.0)
        .expect("data dir")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .find(|name| name.ends_with(".wlacsnap"))
        .expect("session 1 published a snapshot");
    let good_bytes = fs::read(dir.0.join(&snapshot_name)).expect("snapshot bytes");

    // Session 2: every save is torn mid-write — the process-kill-during-
    // autosave scenario. The published snapshot must survive untouched, with
    // only temp-file debris added.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    config.service.faults = FaultPlan::new().fire_from(FaultSite::SnapshotTorn, 1);
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 1, "session 2 boots warm from session 1");
    let mut client = Client::connect(addr);
    client.register_counter();
    client.shutdown(); // the shutdown autosave is the torn write
    handle.join().expect("server thread");
    assert_eq!(
        fs::read(dir.0.join(&snapshot_name)).expect("snapshot bytes"),
        good_bytes,
        "a torn write must never reach the published snapshot"
    );
    let debris = fs::read_dir(&dir.0)
        .expect("data dir")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.starts_with('.') && name.contains(".wlacsnap.tmp"))
        .count();
    assert!(debris >= 1, "the torn write leaves its temp file behind");

    // Session 3: boot sweeps the debris, loads the last-good snapshot, and
    // answers the original batch entirely from the persisted cache.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 1, "recovery boot is warm");
    let swept = fs::read_dir(&dir.0)
        .expect("data dir")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .filter(|name| name.starts_with('.') && name.contains(".wlacsnap.tmp"))
        .count();
    assert_eq!(swept, 0, "boot removes torn temp files");
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &THREE_JOBS);
    let warm = client.wait(batch);
    assert!(
        warm.iter().all(|r| {
            r.get("from_cache").and_then(Json::as_bool) == Some(true)
                && r.get("engines_spawned").and_then(Json::as_u64) == Some(0)
        }),
        "recovered boot answers from the persisted cache: {warm:?}"
    );
    let recovered: Vec<String> = warm.iter().map(verdict_bytes).collect();
    assert_eq!(recovered, reference, "verdicts identical across the fault");
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn overload_shed_carries_a_retry_hint_and_recovers() {
    let mut config = deterministic_config();
    config.max_connections = 1;
    let (addr, handle, _) = start(config);

    // First client occupies the only slot (a completed request proves its
    // handler is running and counted).
    let mut first = Client::connect(addr);
    first.call(Json::obj(vec![("op", Json::str("ping"))]));

    // Second client is shed immediately with a structured overload reply.
    let mut second = Client::connect(addr);
    let shed = second.read_line();
    assert_eq!(shed.get("ok").and_then(Json::as_bool), Some(false));
    let error = shed.get("error").expect("error object");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{shed}"
    );
    assert!(
        error
            .get("retry_after_ms")
            .and_then(Json::as_u64)
            .is_some_and(|ms| ms > 0),
        "shed reply carries a back-off hint: {shed}"
    );

    // Once the first client leaves, the slot frees and new connections serve.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut recovered = loop {
        let mut client = Client::connect(addr);
        let reply = client
            .try_raw("{\"op\":\"ping\"}")
            .unwrap_or_else(|_| Json::obj(vec![("ok", Json::Bool(false))]));
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            break client;
        }
        assert!(
            Instant::now() < deadline,
            "slot never freed after the holder disconnected"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    recovered.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn server_side_wait_is_bounded() {
    let mut config = deterministic_config();
    config.wait_timeout = Duration::from_millis(300);
    config.drain_timeout = Duration::from_millis(300);
    // No job budget: the hung engine stays hung, only the wait bound saves
    // the connection.
    config.service.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);

    let started = Instant::now();
    let reply = client
        .try_raw(&format!("{{\"op\":\"wait\",\"batch\":{batch}}}"))
        .expect("exchange");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("timeout"),
        "{reply}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "wait returned promptly"
    );

    // A client-requested slice below the server bound is honoured too.
    let reply = client
        .try_raw(&format!(
            "{{\"op\":\"wait\",\"batch\":{batch},\"timeout_ms\":50}}"
        ))
        .expect("exchange");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("timeout")
    );

    // Shutdown cannot drain the wedged job; it reports that instead of
    // hanging forever.
    let reply = client.shutdown();
    assert_eq!(reply.get("drained").and_then(Json::as_bool), Some(false));
    handle.join().expect("server thread");
}

/// The parsed post-mortem bundles under `<data_dir>/postmortem`, in write
/// order. Parsing is part of the assertion: every bundle a fault path
/// produces must be valid JSON (torn or unparseable dumps defeat the
/// point of a post-mortem).
fn postmortem_bundles(data_dir: &std::path::Path) -> Vec<(String, Json)> {
    let dir = data_dir.join("postmortem");
    let Ok(entries) = fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut bundles: Vec<(String, Json)> = entries
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            if !name.starts_with("pm-") || !name.ends_with(".json") {
                return None;
            }
            let text = fs::read_to_string(e.path()).expect("bundle is readable");
            let bundle = Json::parse(&text)
                .unwrap_or_else(|e| panic!("bundle {name} is not valid JSON: {e}"));
            Some((name, bundle))
        })
        .collect();
    bundles.sort_by(|a, b| a.0.cmp(&b.0));
    bundles
}

/// The bundles whose `fault` member names the given fault path.
fn bundles_for<'a>(bundles: &'a [(String, Json)], fault: &str) -> Vec<&'a Json> {
    bundles
        .iter()
        .filter(|(name, bundle)| {
            assert_eq!(
                bundle.get("fault").and_then(Json::as_str),
                name.get(10..name.len() - 5),
                "file name carries the fault: {name}"
            );
            bundle.get("fault").and_then(Json::as_str) == Some(fault)
        })
        .map(|(_, bundle)| bundle)
        .collect()
}

#[test]
fn a_quarantined_job_writes_a_parseable_postmortem_bundle() {
    let dir = TempDir::new();
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    config.service.faults = FaultPlan::new().fire_nth(FaultSite::WorkerPanic, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "unknown");

    // The quarantine dumped before the job completed, so the bundle is
    // already on disk when the wait returns.
    let bundles = postmortem_bundles(&dir.0);
    let quarantined = bundles_for(&bundles, "job_quarantined");
    assert_eq!(quarantined.len(), 1, "bundles: {bundles:?}");
    let bundle = quarantined[0];
    assert!(
        bundle
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("panic")),
        "{bundle}"
    );
    let descriptor = bundle.get("job_descriptor").expect("job descriptor");
    assert_eq!(descriptor.get("index").and_then(Json::as_u64), Some(0));
    assert_eq!(
        descriptor.get("property").and_then(Json::as_str),
        Some("ok")
    );
    assert!(
        bundle.get("job").and_then(Json::as_u64).unwrap_or(0) > 0,
        "the bundle is job-scoped: {bundle}"
    );
    // The flight-recorder snapshot rode along, and the faulting job's own
    // events (its dequeue at least) are extracted under `job_events`.
    let events = bundle
        .get("flight_recorder")
        .and_then(|fr| fr.get("events"))
        .and_then(Json::as_arr)
        .expect("recorder events");
    assert!(!events.is_empty(), "recorder captured boot/job events");
    let job_events = bundle
        .get("job_events")
        .and_then(Json::as_arr)
        .expect("job events");
    assert!(
        job_events
            .iter()
            .any(|e| e.get("kind").and_then(Json::as_str) == Some("dequeue")),
        "job trail includes its dequeue: {job_events:?}"
    );
    // The full metrics snapshot is embedded as a real object.
    assert!(
        bundle
            .get("metrics")
            .and_then(|m| m.get("service_jobs_submitted_total"))
            .is_some(),
        "{bundle}"
    );
    assert!(client.metric("server_postmortems_written_total") >= 1);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_timed_out_job_writes_a_postmortem_naming_the_budget() {
    let dir = TempDir::new();
    let budget = Duration::from_millis(300);
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    config.service.portfolio.job_budget = Some(budget);
    config.service.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "timeout");

    let bundles = postmortem_bundles(&dir.0);
    let timeouts = bundles_for(&bundles, "job_timeout");
    assert_eq!(timeouts.len(), 1, "bundles: {bundles:?}");
    let bundle = timeouts[0];
    assert!(
        bundle
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("budget")),
        "{bundle}"
    );
    assert_eq!(
        bundle
            .get("job_descriptor")
            .and_then(|d| d.get("property"))
            .and_then(Json::as_str),
        Some("ok")
    );
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn autosave_failure_and_rejected_snapshot_write_postmortems() {
    let dir = TempDir::new();

    // Session 1: every snapshot write fails — the autosave fault path dumps.
    // A compaction threshold of one byte makes every raced batch save.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    config.journal_compact_bytes = 1;
    config.service.faults = FaultPlan::new().fire_from(FaultSite::SnapshotWrite, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok")]);
    client.wait(batch);
    let bundles = postmortem_bundles(&dir.0);
    let autosaves = bundles_for(&bundles, "autosave_failure");
    assert!(!autosaves.is_empty(), "bundles: {bundles:?}");
    assert!(
        autosaves[0]
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains("autosave")),
        "{}",
        autosaves[0]
    );
    // While the failure is fresh, health reports degraded durability.
    let reply = client.call(Json::obj(vec![("op", Json::str("health"))]));
    assert_eq!(
        reply.get("degraded").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(
        reply
            .get("checks")
            .and_then(|c| c.get("durability"))
            .and_then(|d| d.get("ok"))
            .and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    client.shutdown();
    handle.join().expect("server thread");

    // Session 2: a garbage snapshot file in the data directory is rejected
    // at boot — and the rejection dumps a bundle naming the file.
    fs::write(dir.0.join("dfff0000deadbeef.wlacsnap"), b"not a snapshot").expect("write garbage");
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, _) = start(config);
    let bundles = postmortem_bundles(&dir.0);
    let rejected = bundles_for(&bundles, "snapshot_rejected");
    assert_eq!(rejected.len(), 1, "bundles: {bundles:?}");
    assert!(
        rejected[0]
            .get("detail")
            .and_then(Json::as_str)
            .is_some_and(|d| d.contains(".wlacsnap")),
        "{}",
        rejected[0]
    );
    let mut client = Client::connect(addr);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_torn_journal_tail_writes_a_postmortem_at_boot() {
    let dir = TempDir::new();

    // Session 1: real records on disk. The server is abandoned, never shut
    // down: a graceful shutdown would compact the journal away.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, _abandoned, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &THREE_JOBS);
    client.wait(batch);

    // Tear the tail of the journal the abandoned server left: append
    // garbage past the last valid byte.
    let path = fs::read_dir(&dir.0)
        .expect("data dir")
        .filter_map(|e| Some(e.ok()?.path()))
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("wlacjournal"))
        .expect("journal exists");
    let mut bytes = fs::read(&path).expect("journal bytes");
    bytes.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03]);
    fs::write(&path, &bytes).expect("tear journal tail");

    // Session 2: boot quarantines the torn tail and dumps a bundle.
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, _) = start(config);
    let bundles = postmortem_bundles(&dir.0);
    let torn = bundles_for(&bundles, "journal_tail_quarantined");
    assert_eq!(torn.len(), 1, "bundles: {bundles:?}");
    let bundle = torn[0];
    assert!(
        bundle
            .get("quarantined_bytes")
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "{bundle}"
    );
    let mut client = Client::connect(addr);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn postmortem_bundles_are_evicted_oldest_first_under_the_count_cap() {
    let dir = TempDir::new();
    let mut config = deterministic_config();
    config.data_dir = Some(dir.0.clone());
    config.postmortem_max_dumps = 3;
    // Every job panics: each one dumps a bundle.
    config.service.faults = FaultPlan::new().fire_from(FaultSite::WorkerPanic, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    for _ in 0..5 {
        let batch = client.submit(&design, &[("always", "ok")]);
        client.wait(batch);
    }
    let bundles = postmortem_bundles(&dir.0);
    assert_eq!(bundles.len(), 3, "cap holds: {bundles:?}");
    // Oldest evicted first: the survivors are the three newest sequences.
    assert!(
        bundles[0].0.starts_with("pm-000002-"),
        "oldest surviving bundle: {}",
        bundles[0].0
    );
    assert!(client.metric("server_postmortems_evicted_total") >= 2);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn health_reports_not_ready_when_the_queue_backs_up_behind_a_wedged_worker() {
    let mut config = deterministic_config();
    // The sole worker wedges forever on its first job; no budget frees it.
    config.service.faults = FaultPlan::new().fire_from(FaultSite::EngineHang, 1);
    config.max_queue_depth = 0;
    config.wait_timeout = Duration::from_millis(200);
    config.drain_timeout = Duration::from_millis(200);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);

    // Before any work: ready.
    let reply = client.call(Json::obj(vec![("op", Json::str("health"))]));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(reply.get("live").and_then(Json::as_bool), Some(true));

    // Two jobs: the first wedges the worker, the second sits in the queue —
    // depth 1 over a capacity of 0.
    let design = client.register_counter();
    client.submit(&design, &[("always", "ok"), ("always", "bad")]);
    let deadline = Instant::now() + Duration::from_secs(5);
    let reply = loop {
        let reply = client.call(Json::obj(vec![("op", Json::str("health"))]));
        if reply.get("ready").and_then(Json::as_bool) == Some(false) {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "health never went not_ready: {reply}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("not_ready")
    );
    assert_eq!(
        reply
            .get("checks")
            .and_then(|c| c.get("queue"))
            .and_then(|q| q.get("ok"))
            .and_then(Json::as_bool),
        Some(false),
        "{reply}"
    );
    // Liveness is unaffected: the server still answers.
    assert_eq!(reply.get("live").and_then(Json::as_bool), Some(true));
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn health_returns_to_ready_after_a_lost_worker_is_respawned() {
    let mut config = deterministic_config();
    config.service.faults = FaultPlan::new().fire_nth(FaultSite::WorkerLoss, 1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    // This job's completion kills the sole worker; the sentinel respawns it.
    let batch = client.submit(&design, &[("always", "ok")]);
    client.wait(batch);
    // A second batch proves the respawned worker serves — and health agrees
    // the quorum is back.
    let batch = client.submit(&design, &[("always", "bad")]);
    client.wait(batch);
    let reply = client.call(Json::obj(vec![("op", Json::str("health"))]));
    assert_eq!(
        reply.get("status").and_then(Json::as_str),
        Some("ready"),
        "{reply}"
    );
    let workers = reply
        .get("checks")
        .and_then(|c| c.get("workers"))
        .expect("workers check");
    assert_eq!(workers.get("alive").and_then(Json::as_u64), Some(1));
    assert_eq!(workers.get("ok").and_then(Json::as_bool), Some(true));
    let stats = client.stats();
    assert_eq!(
        stats.get("workers_respawned").and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(stats.get("workers_alive").and_then(Json::as_u64), Some(1));
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_non_reading_subscriber_is_shed_without_stalling_the_server() {
    let mut config = deterministic_config();
    // Two workers and one hung engine run: one job wedges forever (keeping
    // its subscription streaming), the other completes normally.
    config.service.workers = 2;
    config.service.faults = FaultPlan::new().fire_nth(FaultSite::EngineHang, 1);
    config.subscribe_interval = Duration::from_millis(1);
    // A subscriber is shed once a write to it stalls for the write timeout,
    // after the socket buffers have filled (~20 s of 1 ms ticks on Linux
    // loopback); the 30 s default would leave little of the deadline below.
    config.write_timeout = Some(Duration::from_secs(1));
    config.wait_timeout = Duration::from_millis(300);
    config.drain_timeout = Duration::from_millis(300);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &[("always", "ok"), ("always", "bad")]);

    // The subscriber asks for 1ms ticks and then never reads a byte: its
    // socket buffers fill until the server sheds it.
    let mut subscriber = Client::connect(addr);
    subscriber
        .writer
        .write_all(
            format!("{{\"op\":\"subscribe\",\"batch\":{batch},\"interval_ms\":1}}\n").as_bytes(),
        )
        .and_then(|()| subscriber.writer.flush())
        .expect("send subscribe");

    // Meanwhile this connection keeps getting served, the non-wedged job
    // completes, and the shed lands in the metrics.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if client.metric("server_subscribe_dropped_total") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the non-reading subscriber was never shed"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("progress")),
        ("batch", Json::num(batch)),
    ]));
    assert_eq!(
        reply.get("completed").and_then(Json::as_u64),
        Some(1),
        "the healthy worker kept serving while the subscriber flooded: {reply}"
    );

    // The shed closed the subscriber's socket: after the buffered frames
    // drain, it reads EOF (never a structured reply — the peer stopped
    // reading, so none could be delivered).
    subscriber
        .writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut drained = String::new();
    let eof = loop {
        drained.clear();
        match subscriber.reader.read_line(&mut drained) {
            Ok(0) => break true,
            Ok(_) => continue,
            Err(_) => break false,
        }
    };
    assert!(eof, "shed subscriber observes EOF");

    // Fresh connections still serve; shutdown reports the wedged job as
    // undrained instead of hanging.
    let mut fresh = Client::connect(addr);
    fresh.call(Json::obj(vec![("op", Json::str("ping"))]));
    let reply = fresh.shutdown();
    assert_eq!(reply.get("drained").and_then(Json::as_bool), Some(false));
    handle.join().expect("server thread");
}

#[test]
fn a_live_subscriber_never_perturbs_verdicts() {
    let reference = fault_free_verdicts(&THREE_JOBS);

    let mut config = deterministic_config();
    config.subscribe_interval = Duration::from_millis(1);
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit(&design, &THREE_JOBS);

    // A second connection rides the stream at the fastest tick the server
    // allows, all the way to batch_done.
    let mut subscriber = Client::connect(addr);
    subscriber
        .writer
        .write_all(
            format!("{{\"op\":\"subscribe\",\"batch\":{batch},\"interval_ms\":1}}\n").as_bytes(),
        )
        .and_then(|()| subscriber.writer.flush())
        .expect("send subscribe");
    let mut verdicts = 0;
    loop {
        let frame = subscriber.read_line();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
        match frame.get("event").and_then(Json::as_str) {
            Some("verdict") => verdicts += 1,
            Some("batch_done") => break,
            _ => {}
        }
    }
    assert_eq!(verdicts, 3, "every verdict rides the stream");

    // Observation is pure: the verdicts are byte-identical to the
    // subscriber-free run, and the progress counters actually moved.
    let results = client.wait(batch);
    let observed: Vec<String> = results.iter().map(verdict_bytes).collect();
    assert_eq!(observed, reference, "a subscriber must not perturb search");
    assert!(client.metric("core_progress_probes_total") >= 3);
    assert!(client.metric("server_subscribe_pushes_total") >= 7);
    assert_eq!(client.metric("server_subscribe_dropped_total"), 0);
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn idle_connections_are_reaped_by_the_read_timeout() {
    let mut config = deterministic_config();
    config.read_timeout = Some(Duration::from_millis(200));
    let (addr, handle, _) = start(config);

    let idler = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(700));
    // The server reaped the idle connection: the next exchange fails (either
    // the write breaks or the read sees EOF).
    let mut writer = idler.try_clone().expect("clone");
    let mut reader = BufReader::new(idler);
    let died = writer
        .write_all(b"{\"op\":\"ping\"}\n")
        .and_then(|()| writer.flush())
        .and_then(|()| {
            let mut line = String::new();
            reader.read_line(&mut line).map(|n| (n, line))
        })
        .map(|(n, _)| n == 0)
        .unwrap_or(true);
    assert!(died, "idle connection survived the read timeout");

    // A fresh connection serves normally.
    let mut client = Client::connect(addr);
    client.call(Json::obj(vec![("op", Json::str("ping"))]));
    client.shutdown();
    handle.join().expect("server thread");
}
