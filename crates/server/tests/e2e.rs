//! End-to-end socket tests: a real `Server` on an ephemeral port, driven by
//! a real `TcpStream` — protocol behaviour, error replies, concurrency, and
//! the restart-warm persistence loop.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wlac_server::{Json, Server, ServerConfig, MAX_REQUEST_LINE};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "wlac-server-test-{}-{}",
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

/// A saturating counter in the Verilog subset the frontend compiles
/// (registers reset to zero); `ok` asserts it stays below 11 (holds),
/// `bad` asserts it stays below 5 (violated around cycle 5).
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

    /// Sends one raw line and reads one reply line.
    fn raw(&mut self, line: &str) -> Json {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        self.writer.flush().expect("flush");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("receive");
        assert!(!reply.is_empty(), "server closed the connection");
        Json::parse(reply.trim_end()).expect("reply is valid JSON")
    }

    fn call(&mut self, request: Json) -> Json {
        let reply = self.raw(&request.to_string());
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {request} failed: {reply}"
        );
        reply
    }

    fn call_err(&mut self, line: &str) -> String {
        let reply = self.raw(line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected an error reply for {line}, got {reply}"
        );
        reply
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error reply carries a code")
            .to_string()
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

    fn submit_both(&mut self, design: &str) -> u64 {
        let job = |monitor: &str| {
            Json::obj(vec![
                ("design", Json::str(design)),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str("always")),
                        ("monitor", Json::str(monitor)),
                    ]),
                ),
            ])
        };
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("submit_batch")),
            ("jobs", Json::Arr(vec![job("ok"), job("bad")])),
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

    fn shutdown(&mut self) {
        self.call(Json::obj(vec![("op", Json::str("shutdown"))]));
    }

    /// Sends one line without reading a reply (the `subscribe` handshake —
    /// everything after it is pushed by the server).
    fn send(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .expect("send");
    }

    /// Reads one pushed event frame.
    fn read_event(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("receive");
        assert!(!line.is_empty(), "stream ended early");
        let frame = Json::parse(line.trim_end()).expect("event frame is valid JSON");
        assert_eq!(
            frame.get("ok").and_then(Json::as_bool),
            Some(true),
            "pushed frame failed: {frame}"
        );
        frame
    }
}

fn quick_config() -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    config.service.workers = 2;
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

fn label_of(result: &Json) -> String {
    result
        .get("verdict")
        .and_then(|v| v.get("label"))
        .and_then(Json::as_str)
        .expect("verdict label")
        .to_string()
}

fn cached(result: &Json) -> bool {
    result
        .get("from_cache")
        .and_then(Json::as_bool)
        .expect("from_cache")
}

#[test]
fn protocol_round_trip_and_errors() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);

    // Malformed frames get structured error replies, and the connection
    // survives every one of them.
    assert_eq!(client.call_err("this is not json"), "bad_json");
    assert_eq!(client.call_err("[1,2,3]"), "bad_request");
    assert_eq!(client.call_err("{\"op\":\"frobnicate\"}"), "unknown_op");
    assert_eq!(
        client.call_err("{\"op\":\"register_design\",\"source\":\"module m(; endmodule\"}"),
        "compile_error"
    );
    assert_eq!(
        client.call_err("{\"op\":\"progress\",\"batch\":123456}"),
        "unknown_batch"
    );
    assert_eq!(client.call_err("{\"op\":\"results\"}"), "bad_request");

    // The connection is still healthy: full verification round-trip.
    client.call(Json::obj(vec![("op", Json::str("ping"))]));
    let design = client.register_counter();
    assert!(design.starts_with('d'), "wire hash: {design}");

    // Property referencing a missing / wide monitor.
    let bad_job = format!(
        "{{\"op\":\"submit_batch\",\"jobs\":[{{\"design\":\"{design}\",\
         \"property\":{{\"monitor\":\"nope\"}}}}]}}"
    );
    assert_eq!(client.call_err(&bad_job), "bad_property");
    let wide_job = format!(
        "{{\"op\":\"submit_batch\",\"jobs\":[{{\"design\":\"{design}\",\
         \"property\":{{\"monitor\":\"q\"}}}}]}}"
    );
    assert_eq!(client.call_err(&wide_job), "bad_property");
    // A job naming a design nobody registered.
    let unknown_job = "{\"op\":\"submit_batch\",\"jobs\":[{\"design\":\"d0000000000000000\",\
         \"property\":{\"monitor\":\"ok\"}}]}";
    assert_eq!(client.call_err(unknown_job), "unknown_design");

    let batch = client.submit_both(&design);
    // Follow the batch's progress until done, then fetch the results.
    loop {
        let reply = client.call(Json::obj(vec![
            ("op", Json::str("progress")),
            ("batch", Json::num(batch)),
        ]));
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let results = client.wait(batch);
    assert_eq!(results.len(), 2);
    assert_eq!(label_of(&results[0]), "proved");
    assert_eq!(label_of(&results[1]), "violated");
    assert!(results[1]
        .get("verdict")
        .and_then(|v| v.get("trace_cycles"))
        .and_then(Json::as_u64)
        .is_some());

    // A second identical submission is answered from the verdict cache.
    let batch = client.submit_both(&design);
    let warm = client.wait(batch);
    assert!(warm.iter().all(cached), "{warm:?}");

    // Two clients at once multiplex onto the same service.
    let mut second = Client::connect(addr);
    let design2 = second.register_counter();
    assert_eq!(design, design2, "same structure, same design");
    let stats = second.call(Json::obj(vec![("op", Json::str("stats"))]));
    let designs = stats
        .get("stats")
        .and_then(|s| s.get("designs"))
        .and_then(Json::as_u64);
    assert_eq!(designs, Some(1));

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn restart_warm_serves_persisted_verdicts() {
    let dir = TempDir::new();

    // Session 1: cold run, then graceful shutdown (drain + save).
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 0, "first boot is cold");
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let cold = client.wait(batch);
    assert!(cold.iter().all(|r| !cached(r)));
    let cold_labels: Vec<String> = cold.iter().map(label_of).collect();
    client.shutdown();
    handle.join().expect("server thread");
    // Each autosave beyond the first also keeps the previous generation as
    // `<file>.bak`; only the primary counts as "the snapshot".
    let snapshots: Vec<_> = fs::read_dir(&dir.0)
        .expect("data dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".wlacsnap"))
        .collect();
    assert_eq!(
        snapshots.len(),
        1,
        "one design, one snapshot: {snapshots:?}"
    );

    // Session 2: a fresh process-equivalent (new Server, same data dir)
    // answers the same batch from the persisted verdict cache.
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 1, "snapshot reloaded at boot");
    let mut client = Client::connect(addr);
    // Note: re-registration is idempotent (the boot reload already brought
    // the design in) — clients do not need to know the server restarted.
    let design2 = client.register_counter();
    assert_eq!(design, design2);
    let batch = client.submit_both(&design2);
    let warm = client.wait(batch);
    assert!(
        warm.iter().all(cached),
        "restart-warm batch must hit the persisted cache: {warm:?}"
    );
    assert!(warm
        .iter()
        .all(|r| r.get("engines_spawned").and_then(Json::as_u64) == Some(0)));
    let warm_labels: Vec<String> = warm.iter().map(label_of).collect();
    assert_eq!(
        cold_labels, warm_labels,
        "verdicts identical across restart"
    );
    client.shutdown();
    handle.join().expect("server thread");

    // Session 3: a corrupted snapshot falls back to the last-good `.bak`
    // generation — the boot stays warm.
    let snap_path = dir.0.join(&snapshots[0]);
    let good_bytes = fs::read(&snap_path).expect("snapshot bytes");
    let mut bytes = good_bytes.clone();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    fs::write(&snap_path, &bytes).expect("corrupt snapshot");
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 1, "corrupt snapshot boots from last-good backup");
    let mut client = Client::connect(addr);
    client.shutdown();
    handle.join().expect("server thread");

    // Session 4: corrupt primary and no backup — skipped, not trusted; the
    // boot is cold but clean, and the rejection is visible in the stats
    // reply instead of silent.
    fs::write(&snap_path, &bytes).expect("corrupt snapshot");
    fs::remove_file(dir.0.join(format!("{}.bak", snapshots[0]))).expect("remove backup");
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    let (addr, handle, loaded) = start(config);
    assert_eq!(loaded, 0, "corrupt snapshot without backup must be skipped");
    let mut client = Client::connect(addr);
    let stats = client
        .call(Json::obj(vec![("op", Json::str("stats"))]))
        .get("stats")
        .cloned()
        .expect("stats object");
    assert_eq!(
        stats
            .get("snapshots_rejected_at_boot")
            .and_then(Json::as_u64),
        Some(1),
        "the rejected snapshot is counted: {stats}"
    );
    assert_eq!(
        stats.get("loaded_snapshots").and_then(Json::as_u64),
        Some(0)
    );
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_journal_with_estg_deltas_still_boots_warm() {
    use wlac_atpg::{Property, Verdict};
    use wlac_faultinject::FaultPlan;
    use wlac_netlist::NetId;
    use wlac_persist::{journal_file_name, JournalRecord, JournalWriter};
    use wlac_portfolio::Engine;
    use wlac_service::{config_fingerprint, design_hash, property_hash, VerdictRecord};

    // A data dir as earlier servers left it: a journal whose record carries
    // the ATPG conflict counts they journaled beside the verdict.
    let dir = TempDir::new();
    let config = {
        let mut config = quick_config();
        config.data_dir = Some(dir.0.clone());
        config
    };
    let netlist = wlac_frontend::compile(COUNTER_V).expect("compiles");
    let design = design_hash(&netlist);
    let ok = netlist
        .outputs()
        .iter()
        .find(|(name, _)| name == "ok")
        .map(|&(_, net)| net)
        .expect("the ok output");
    let verdict = Verdict::Holds {
        proved: true,
        frames: 1,
    };
    let path = dir.0.join(journal_file_name(design));
    let (mut writer, _) = JournalWriter::open(&path, design, &netlist, 1, FaultPlan::disabled())
        .expect("open a fresh journal");
    writer
        .append(&JournalRecord {
            verdict: Some(VerdictRecord {
                property: property_hash(&Property::always(&netlist, "ok", ok), &[]),
                config: config_fingerprint(&config.service.portfolio),
                verdict: verdict.clone(),
                winner: Some(Engine::Atpg),
            }),
            clauses: Vec::new(),
            estg_delta: vec![(NetId::from_index(0), true, 5), (ok, false, 2)],
            ran: vec![Engine::Atpg],
            winner: Some(Engine::Atpg),
        })
        .expect("append");
    drop(writer);

    // The boot replays it, and the journaled verdict answers from the cache.
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("submit_batch")),
        (
            "jobs",
            Json::Arr(vec![Json::obj(vec![
                ("design", Json::str(&design)),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str("always")),
                        ("monitor", Json::str("ok")),
                    ]),
                ),
            ])]),
        ),
    ]));
    let batch = reply.get("batch").and_then(Json::as_u64).expect("batch id");
    let results = client.wait(batch);
    assert!(cached(&results[0]), "{results:?}");
    assert_eq!(
        results[0].get("engines_spawned").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(label_of(&results[0]), verdict.label());
    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn knowledge_export_import_over_the_wire() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let _ = client.wait(batch);

    let reply = client.call(Json::obj(vec![
        ("op", Json::str("export_knowledge")),
        ("design", Json::str(design.clone())),
    ]));
    let hex = reply
        .get("snapshot")
        .and_then(Json::as_str)
        .expect("snapshot hex")
        .to_string();
    client.shutdown();
    handle.join().expect("server thread");

    // A second, completely unrelated server warm-starts from the exported
    // blob alone: import registers the design and fills its caches.
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("import_knowledge")),
        ("snapshot", Json::str(hex.clone())),
    ]));
    assert_eq!(
        reply.get("design").and_then(Json::as_str),
        Some(design.as_str())
    );
    assert_eq!(reply.get("verdicts").and_then(Json::as_u64), Some(2));
    let batch = client.submit_both(&design);
    let warm = client.wait(batch);
    assert!(warm.iter().all(cached), "{warm:?}");

    // Importing a truncated blob is rejected with a structured error.
    let truncated = &hex[..(hex.len() / 2) & !1];
    let line = format!("{{\"op\":\"import_knowledge\",\"snapshot\":\"{truncated}\"}}");
    assert_eq!(client.call_err(&line), "bad_snapshot");
    // Importing under the wrong design name is rejected too.
    let line = format!(
        "{{\"op\":\"import_knowledge\",\"design\":\"d0000000000000000\",\"snapshot\":\"{hex}\"}}"
    );
    assert_eq!(client.call_err(&line), "bad_snapshot");

    client.shutdown();
    handle.join().expect("server thread");
}

/// Parses a Prometheus text exposition into (name, value) samples, skipping
/// `# TYPE` comments; label-bearing samples keep the label block in the
/// name. Panics on any line that does not scan — the acceptance criterion
/// is "parseable", not "roughly shaped".
fn parse_prometheus(text: &str) -> Vec<(String, f64)> {
    let mut samples = Vec::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable exposition line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|e| panic!("bad sample value in {line:?}: {e}"));
        assert!(!name.is_empty(), "empty metric name in {line:?}");
        samples.push((name.to_string(), value));
    }
    samples
}

fn sample(samples: &[(String, f64)], name: &str) -> Option<f64> {
    samples
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, value)| *value)
}

#[test]
fn stats_reports_per_op_and_error_counters() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    client.call(Json::obj(vec![("op", Json::str("ping"))]));
    client.call(Json::obj(vec![("op", Json::str("ping"))]));
    assert_eq!(client.call_err("{\"op\":\"frobnicate\"}"), "unknown_op");
    assert_eq!(client.call_err("not json"), "bad_json");
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let _ = client.wait(batch);

    let reply = client.call(Json::obj(vec![("op", Json::str("stats"))]));
    let ops = reply.get("ops").expect("ops object");
    let count = |name: &str| ops.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(count("ping"), 2);
    assert_eq!(count("register_design"), 1);
    assert_eq!(count("submit_batch"), 1);
    assert_eq!(count("wait"), 1);
    assert_eq!(
        count("unknown"),
        1,
        "frobnicate lands in the unknown bucket"
    );
    assert_eq!(count("invalid"), 1, "non-JSON lands in the invalid bucket");
    assert_eq!(count("shutdown"), 0);
    let errors = reply.get("errors").expect("errors object");
    let errs = |name: &str| errors.get(name).and_then(Json::as_u64).expect(name);
    assert_eq!(errs("unknown_op"), 1);
    assert_eq!(errs("bad_json"), 1);
    assert_eq!(errs("compile_error"), 0);

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn metrics_exposition_covers_every_layer() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let _ = client.wait(batch);
    // Repeat one property so the cache-hit counter moves too.
    let batch = client.submit_both(&design);
    let _ = client.wait(batch);

    let reply = client.call(Json::obj(vec![("op", Json::str("metrics"))]));
    let text = reply
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    let samples = parse_prometheus(text);

    // Core: the raced ATPG engine's search effort is aggregated.
    assert!(sample(&samples, "core_gate_evaluations_total").expect("core counter") > 0.0);
    // Portfolio: two raced batches of two jobs, minus cache hits.
    assert!(sample(&samples, "portfolio_races_total").expect("race counter") >= 2.0);
    // Service: queue/worker gauges exist and jobs flowed through.
    assert_eq!(sample(&samples, "service_queue_depth"), Some(0.0));
    assert!(sample(&samples, "service_jobs_completed_total").expect("jobs") >= 4.0);
    assert!(sample(&samples, "service_cache_hits_total").expect("hits") >= 2.0);
    // Server: per-op accounting, including histogram quantile samples.
    assert_eq!(
        sample(&samples, "server_requests_submit_batch_total"),
        Some(2.0)
    );
    assert!(
        samples
            .iter()
            .any(|(n, _)| n.starts_with("server_op_wait_wall_ns{quantile=")),
        "wait latency histogram missing from exposition"
    );
    assert!(sample(&samples, "server_connections_total").expect("connections") >= 1.0);

    // The JSON exposition is a real object over the same registry.
    let json = reply.get("metrics").expect("metrics object");
    assert!(json
        .get("service_jobs_completed_total")
        .and_then(Json::as_f64)
        .is_some());
    assert!(json
        .get("server_op_wait_wall_ns_p50")
        .and_then(Json::as_f64)
        .is_some());

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn health_build_and_uptime_surface_on_a_live_server() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);

    // A freshly-booted idle server is live, ready, and not degraded.
    let reply = client.call(Json::obj(vec![("op", Json::str("health"))]));
    assert_eq!(reply.get("status").and_then(Json::as_str), Some("ready"));
    assert_eq!(reply.get("live").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("ready").and_then(Json::as_bool), Some(true));
    assert_eq!(reply.get("degraded").and_then(Json::as_bool), Some(false));
    assert!(reply.get("uptime_s").and_then(Json::as_f64).is_some());
    let checks = reply.get("checks").expect("checks object");
    for check in ["workers", "queue", "durability", "slo"] {
        assert_eq!(
            checks
                .get(check)
                .and_then(|c| c.get("ok"))
                .and_then(Json::as_bool),
            Some(true),
            "{check} check: {reply}"
        );
    }
    assert_eq!(
        checks
            .get("workers")
            .and_then(|w| w.get("alive"))
            .and_then(Json::as_u64),
        Some(2)
    );
    // The SLO window has seen no requests yet (health itself is recorded
    // after it replies), so the objective trivially holds.
    assert_eq!(
        checks
            .get("slo")
            .and_then(|s| s.get("error_rate"))
            .and_then(Json::as_f64),
        Some(0.0)
    );

    // `stats` carries the build version and uptime.
    let reply = client.call(Json::obj(vec![("op", Json::str("stats"))]));
    assert_eq!(
        reply.get("version").and_then(Json::as_str),
        Some(env!("CARGO_PKG_VERSION"))
    );
    assert!(reply.get("uptime_s").and_then(Json::as_f64).is_some());

    // The Prometheus exposition carries the build-info gauge (the one
    // labelled sample) and the uptime/recorder gauges.
    let reply = client.call(Json::obj(vec![("op", Json::str("metrics"))]));
    let text = reply
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    assert!(
        text.contains(&format!(
            "wlac_build_info{{version=\"{}\"}} 1",
            env!("CARGO_PKG_VERSION")
        )),
        "build info missing from exposition"
    );
    let samples = parse_prometheus(text);
    assert!(sample(&samples, "server_uptime_seconds").expect("uptime gauge") >= 0.0);
    assert!(sample(&samples, "server_recorder_recorded").expect("recorder gauge") > 0.0);
    assert_eq!(sample(&samples, "server_recorder_overwrites"), Some(0.0));

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn events_tails_the_flight_recorder_over_the_wire() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let _ = client.wait(batch);

    // Unfiltered tail: the batch left events in every serving layer.
    let reply = client.call(Json::obj(vec![("op", Json::str("events"))]));
    let events = reply.get("events").and_then(Json::as_arr).expect("events");
    assert!(!events.is_empty());
    assert!(reply.get("recorded").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert!(reply.get("capacity").and_then(Json::as_u64).unwrap_or(0) > 0);
    let layer_of = |e: &Json| {
        e.get("layer")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    for layer in ["core", "portfolio", "service"] {
        assert!(
            events.iter().any(|e| layer_of(e) == layer),
            "no {layer} events in {events:?}"
        );
    }
    // Events are in recording order and payload words travel as hex strings.
    let seqs: Vec<u64> = events
        .iter()
        .map(|e| e.get("seq").and_then(Json::as_u64).expect("seq"))
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    assert!(events.iter().all(|e| e
        .get("p0")
        .and_then(Json::as_str)
        .is_some_and(|p| p.starts_with("0x"))));

    // Layer filter narrows to that layer only.
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("events")),
        ("layer", Json::str("service")),
    ]));
    let service_events = reply.get("events").and_then(Json::as_arr).expect("events");
    assert!(!service_events.is_empty());
    assert!(service_events.iter().all(|e| layer_of(e) == "service"));

    // Job filter follows one job across layers: every event it returns is
    // stamped with that job, and the job's service-side dequeue is there.
    let job = service_events
        .iter()
        .find_map(|e| e.get("job").and_then(Json::as_u64).filter(|&j| j > 0))
        .expect("a job-stamped service event");
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("events")),
        ("job", Json::num(job)),
    ]));
    let job_events = reply.get("events").and_then(Json::as_arr).expect("events");
    assert!(job_events
        .iter()
        .all(|e| e.get("job").and_then(Json::as_u64) == Some(job)));
    assert!(job_events
        .iter()
        .any(|e| e.get("kind").and_then(Json::as_str) == Some("dequeue")));

    // The limit keeps only the newest events.
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("events")),
        ("limit", Json::num(1)),
    ]));
    let tail = reply.get("events").and_then(Json::as_arr).expect("events");
    assert_eq!(tail.len(), 1);
    // The survivor is the newest event: at or past everything the earlier
    // snapshot saw (the requests in between recorded more).
    assert!(
        tail[0].get("seq").and_then(Json::as_u64) >= seqs.last().copied(),
        "limit kept an old event: {tail:?}"
    );

    // An unknown layer is a structured error naming the vocabulary.
    assert_eq!(
        client.call_err("{\"op\":\"events\",\"layer\":\"warp\"}"),
        "bad_request"
    );

    client.shutdown();
    handle.join().expect("server thread");
}

/// Drains one subscription to its `batch_done`, returning every event frame
/// in arrival order (the `subscribed` acknowledgement excluded).
fn drain_stream(sub: &mut Client, total: usize) -> Vec<Json> {
    let mut events = Vec::new();
    loop {
        let frame = sub.read_event();
        let kind = frame
            .get("event")
            .and_then(Json::as_str)
            .expect("pushed frame carries an event")
            .to_string();
        if kind == "batch_done" {
            assert_eq!(
                frame.get("total").and_then(Json::as_u64),
                Some(total as u64)
            );
            return events;
        }
        events.push(frame);
    }
}

#[test]
fn subscribe_streams_progress_before_every_verdict() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);

    // A second connection rides the event stream.
    let mut sub = Client::connect(addr);
    sub.send(&format!(
        "{{\"op\":\"subscribe\",\"batch\":{batch},\"interval_ms\":5}}"
    ));
    let ack = sub.read_event();
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("subscribed"));
    assert_eq!(ack.get("batch").and_then(Json::as_u64), Some(batch));
    assert_eq!(ack.get("total").and_then(Json::as_u64), Some(2));
    let events = drain_stream(&mut sub, 2);

    // The ordering contract: for every job, at least one `progress` frame
    // with a nonzero bound arrives before its `verdict` frame.
    for index in 0..2u64 {
        let verdict_at = events
            .iter()
            .position(|e| {
                e.get("event").and_then(Json::as_str) == Some("verdict")
                    && e.get("index").and_then(Json::as_u64) == Some(index)
            })
            .unwrap_or_else(|| panic!("no verdict for job {index}"));
        assert!(
            events[..verdict_at].iter().any(|e| {
                e.get("event").and_then(Json::as_str) == Some("progress")
                    && e.get("index").and_then(Json::as_u64) == Some(index)
                    && e.get("probe")
                        .and_then(|p| p.get("bound"))
                        .and_then(Json::as_u64)
                        .is_some_and(|b| b > 0)
            }),
            "no nonzero-bound progress before the verdict of job {index}: {events:?}"
        );
    }
    // The verdicts themselves ride the stream (in completion order), full
    // result objects included.
    let mut streamed: Vec<(u64, String)> = events
        .iter()
        .filter(|e| e.get("event").and_then(Json::as_str) == Some("verdict"))
        .map(|e| {
            (
                e.get("index").and_then(Json::as_u64).expect("index"),
                label_of(e.get("result").expect("verdict carries the result")),
            )
        })
        .collect();
    streamed.sort();
    assert_eq!(streamed, [(0, "proved".into()), (1, "violated".into())]);

    // The stream ends cleanly and the connection stays a normal
    // request/reply connection.
    sub.call(Json::obj(vec![("op", Json::str("ping"))]));

    // A late subscriber sees the completed batch replayed in full: final
    // progress then verdict per job, then batch_done.
    sub.send(&format!("{{\"op\":\"subscribe\",\"batch\":{batch}}}"));
    let ack = sub.read_event();
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("subscribed"));
    let replay = drain_stream(&mut sub, 2);
    let kinds: Vec<&str> = replay
        .iter()
        .filter_map(|e| e.get("event").and_then(Json::as_str))
        .collect();
    assert_eq!(
        kinds,
        ["progress", "verdict", "progress", "verdict"],
        "completed batches replay deterministically"
    );

    // The results are still there: a batch streamed to `batch_done` is
    // retired like a fetched one, but kept while it is within
    // `retained_batches`. `poll` is not an op.
    let results = client.wait(batch);
    assert_eq!(results.len(), 2);
    assert_eq!(
        client.call_err(&format!("{{\"op\":\"poll\",\"batch\":{batch}}}")),
        "unknown_op"
    );
    let reply = client.call(Json::obj(vec![("op", Json::str("stats"))]));
    let ops = reply.get("ops").expect("ops object");
    assert_eq!(ops.get("subscribe").and_then(Json::as_u64), Some(2));

    // Even a retired (retrieved) batch replays while it is retained; only a
    // genuinely unknown handle is a structured reject — after which the
    // connection keeps serving.
    sub.send(&format!("{{\"op\":\"subscribe\",\"batch\":{batch}}}"));
    let ack = sub.read_event();
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("subscribed"));
    drain_stream(&mut sub, 2);
    assert_eq!(
        sub.call_err("{\"op\":\"subscribe\",\"batch\":999999}"),
        "unknown_batch"
    );
    sub.call(Json::obj(vec![("op", Json::str("ping"))]));

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_late_subscriber_receives_a_large_cache_hit_batch_in_full() {
    // The replay is written as fast as the reader takes it: the stream must
    // wait for a reader that keeps up, not shed it.
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let cold = client.submit_both(&design);
    client.wait(cold);

    // 300 cache hits complete within milliseconds of each other, and a late
    // subscriber gets their replay as one burst of 600 frames.
    let job = |monitor: &str| {
        Json::obj(vec![
            ("design", Json::str(design.clone())),
            ("property", Json::obj(vec![("monitor", Json::str(monitor))])),
        ])
    };
    let jobs = (0..150).flat_map(|_| [job("ok"), job("bad")]).collect();
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("submit_batch")),
        ("jobs", Json::Arr(jobs)),
    ]));
    let batch = reply.get("batch").and_then(Json::as_u64).expect("batch id");
    let results = client.wait(batch);
    assert!(results.iter().all(cached), "every job is a cache hit");

    let mut sub = Client::connect(addr);
    for run in 0..20 {
        sub.send(&format!("{{\"op\":\"subscribe\",\"batch\":{batch}}}"));
        let ack = sub.read_event();
        assert_eq!(ack.get("event").and_then(Json::as_str), Some("subscribed"));
        let events = drain_stream(&mut sub, 300);
        // The acknowledgement, a progress and a verdict frame per job, and
        // batch_done.
        assert_eq!(events.len() + 2, 602, "run {run}");
    }
    let reply = client.call(Json::obj(vec![("op", Json::str("metrics"))]));
    let text = reply
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    let dropped = sample(&parse_prometheus(text), "server_subscribe_dropped_total");
    assert_eq!(
        dropped.unwrap_or(0.0),
        0.0,
        "no reader that keeps up is shed"
    );

    client.shutdown();
    handle.join().expect("server thread");
}

/// Subscribes to `batch` and drains its stream to `batch_done`.
fn stream_to_done(sub: &mut Client, batch: u64, total: usize) -> Vec<Json> {
    sub.send(&format!("{{\"op\":\"subscribe\",\"batch\":{batch}}}"));
    let ack = sub.read_event();
    assert_eq!(ack.get("event").and_then(Json::as_str), Some("subscribed"));
    drain_stream(sub, total)
}

#[test]
fn a_batch_streamed_to_batch_done_is_retired_like_a_fetched_one() {
    let mut config = quick_config();
    config.service.retained_batches = 1;
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let mut sub = Client::connect(addr);

    // Two batches followed only over `subscribe`; nobody calls `results`
    // or `wait`.
    let first = client.submit_both(&design);
    stream_to_done(&mut sub, first, 2);
    let second = client.submit_both(&design);
    stream_to_done(&mut sub, second, 2);

    // Streaming the second batch to its end retired it, which pushed the
    // first past the one-batch retention bound.
    assert_eq!(
        client.call_err(&format!("{{\"op\":\"progress\",\"batch\":{first}}}")),
        "unknown_batch"
    );
    let reply = client.call(Json::obj(vec![
        ("op", Json::str("progress")),
        ("batch", Json::num(second)),
    ]));
    assert_eq!(reply.get("done").and_then(Json::as_bool), Some(true));
    // A retained batch still replays for a late subscriber.
    assert_eq!(stream_to_done(&mut sub, second, 2).len(), 4);

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn a_streamed_batch_runs_the_compaction_check_before_batch_done() {
    let dir = TempDir::new();
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    // Any journal record crosses the threshold, so the batch's design is
    // due for compaction as soon as its batch ends.
    config.journal_compact_bytes = 1;
    let (addr, handle, _) = start(config);
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let batch = client.submit_both(&design);
    let mut sub = Client::connect(addr);
    stream_to_done(&mut sub, batch, 2);

    // The raced batch was compacted before `batch_done` was written,
    // without any `results` or `wait` call.
    let reply = client.call(Json::obj(vec![("op", Json::str("metrics"))]));
    let text = reply
        .get("prometheus")
        .and_then(Json::as_str)
        .expect("prometheus text");
    let samples = parse_prometheus(text);
    assert!(
        sample(&samples, "server_journal_compactions_total").unwrap_or(0.0) >= 1.0,
        "no compaction after the stream ended"
    );
    for op in ["results", "wait"] {
        let name = format!("server_requests_{op}_total");
        assert_eq!(sample(&samples, &name).unwrap_or(0.0), 0.0, "{name}");
    }

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn durability_reports_journal_only_with_a_data_directory() {
    // (`stats.durability`, `health.checks.durability.mode`) of a fresh server.
    let reported = |config: ServerConfig| {
        let (addr, handle, _) = start(config);
        let mut client = Client::connect(addr);
        let stats = client.call(Json::obj(vec![("op", Json::str("stats"))]));
        let health = client.call(Json::obj(vec![("op", Json::str("health"))]));
        client.shutdown();
        handle.join().expect("server thread");
        (
            stats
                .get("stats")
                .and_then(|s| s.get("durability"))
                .and_then(Json::as_str)
                .expect("stats.durability")
                .to_string(),
            health
                .get("checks")
                .and_then(|c| c.get("durability"))
                .and_then(|d| d.get("mode"))
                .and_then(Json::as_str)
                .expect("health durability mode")
                .to_string(),
        )
    };
    assert_eq!(reported(quick_config()), ("none".into(), "none".into()));
    let dir = TempDir::new();
    let mut config = quick_config();
    config.data_dir = Some(dir.0.clone());
    assert_eq!(reported(config), ("journal".into(), "journal".into()));
}

#[test]
fn progress_op_reports_server_load_and_batch_state() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);

    // Idle server: zero queue, zero running, full worker quorum.
    let reply = client.call(Json::obj(vec![("op", Json::str("progress"))]));
    assert_eq!(reply.get("queue_depth").and_then(Json::as_u64), Some(0));
    assert_eq!(reply.get("running_jobs").and_then(Json::as_u64), Some(0));
    assert_eq!(reply.get("workers_alive").and_then(Json::as_u64), Some(2));
    assert!(reply.get("uptime_s").and_then(Json::as_f64).is_some());
    assert_eq!(
        reply.get("running").and_then(Json::as_arr).map(|r| r.len()),
        Some(0)
    );

    // A completed batch reports done with nothing running.
    let design = client.register_counter();
    // A batch nobody submitted is a structured reject.
    assert_eq!(
        client.call_err("{\"op\":\"progress\",\"batch\":999999}"),
        "unknown_batch"
    );
    let batch = client.submit_both(&design);
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client.call(Json::obj(vec![
            ("op", Json::str("progress")),
            ("batch", Json::num(batch)),
        ]));
        assert_eq!(reply.get("total").and_then(Json::as_u64), Some(2));
        if reply.get("done").and_then(Json::as_bool) == Some(true) {
            assert_eq!(reply.get("completed").and_then(Json::as_u64), Some(2));
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "batch never completed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    client.shutdown();
    handle.join().expect("server thread");
}

#[test]
fn trace_check_profiles_one_property() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let trace_check = |monitor: &str| {
        Json::obj(vec![
            ("op", Json::str("trace_check")),
            ("design", Json::str(design.clone())),
            (
                "property",
                Json::obj(vec![
                    ("kind", Json::str("always")),
                    ("monitor", Json::str(monitor)),
                ]),
            ),
        ])
    };

    let reply = client.call(trace_check("bad"));
    assert_eq!(label_of(&reply), "violated");
    // The verdict object is the job-result encoding: the same jobs raced
    // through the service answer with identical objects (the counter has no
    // inputs, so every engine's counter-example has the same length).
    let batch = client.submit_both(&design);
    let results = client.wait(batch);
    assert_eq!(label_of(&results[0]), "proved");
    for (monitor, result) in ["ok", "bad"].into_iter().zip(&results) {
        let traced = client.call(trace_check(monitor));
        assert_eq!(traced.get("verdict"), result.get("verdict"), "{monitor}");
    }
    let elapsed_ms = reply
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .expect("elapsed_ms");
    let phases = reply.get("phases").expect("phases object");
    let phase = |name: &str| phases.get(name).and_then(Json::as_f64).expect(name);
    let total_ns = phase("total_ns");
    let summed: f64 = [
        "implication_ns",
        "justification_ns",
        "decision_ns",
        "datapath_ns",
        "sat_leaf_ns",
        "backtrack_ns",
        "other_ns",
    ]
    .iter()
    .map(|n| phase(n))
    .sum();
    assert_eq!(summed, total_ns, "total must be the sum of the phases");
    // The acceptance bound: the phase breakdown accounts for the check's
    // wall clock to within 10%.
    let elapsed_ns = elapsed_ms * 1e6;
    assert!(
        (total_ns - elapsed_ns).abs() <= (elapsed_ns / 10.0).max(1e6),
        "phase sum {total_ns}ns diverges from elapsed {elapsed_ns}ns"
    );
    // The span events narrate the search.
    let events = reply.get("events").and_then(Json::as_arr).expect("events");
    assert!(!events.is_empty());
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    assert!(names.contains(&"search"), "{names:?}");
    assert!(names.contains(&"bound"), "{names:?}");
    let stats = reply.get("stats").expect("stats object");
    assert!(
        stats
            .get("gate_evaluations")
            .and_then(Json::as_u64)
            .expect("gate_evaluations")
            > 0
    );
    assert_eq!(
        reply.get("events_dropped").and_then(Json::as_u64),
        Some(0),
        "8192-event ring must not drop on this tiny check"
    );

    // A trace_check against an unregistered design fails cleanly.
    assert_eq!(
        client.call_err(
            "{\"op\":\"trace_check\",\"design\":\"d0000000000000000\",\
             \"property\":{\"monitor\":\"ok\"}}"
        ),
        "unknown_design"
    );

    client.shutdown();
    handle.join().expect("server thread");
}

/// A `register_design` request for a module whose output is `expr`.
fn register_expr(expr: &str) -> String {
    let source = format!("module m(input [7:0] a, output [7:0] y); assign y = {expr}; endmodule");
    Json::obj(vec![
        ("op", Json::str("register_design")),
        ("source", Json::str(&source)),
    ])
    .to_string()
}

#[test]
fn hostile_input_cannot_stop_the_server() {
    let (addr, handle, _) = start(quick_config());
    let mut client = Client::connect(addr);
    let ping = Json::obj(vec![("op", Json::str("ping"))]);

    // Nesting, a long operator chain and huge widths are compile errors,
    // and the connection serves the next request.
    let hostile = [
        register_expr(&format!("{}a{}", "(".repeat(1_000), ")".repeat(1_000))),
        register_expr(&vec!["a"; 100_000].join(" ^ ")),
        register_expr("1099511627776'd0"),
        Json::obj(vec![
            ("op", Json::str("register_design")),
            (
                "source",
                Json::str("module m(input [1073741823:0] a, output y); assign y = a[0]; endmodule"),
            ),
        ])
        .to_string(),
    ];
    for request in &hostile {
        assert_eq!(client.call_err(request), "compile_error");
        client.call(ping.clone());
    }

    // A request line past the cap is refused and its connection closed.
    let mut long = Client::connect(addr);
    long.writer
        .write_all(&vec![b'x'; MAX_REQUEST_LINE + 1])
        .expect("send");
    long.writer.flush().expect("flush");
    let mut reply = String::new();
    long.reader.read_line(&mut reply).expect("receive");
    let reply = Json::parse(reply.trim_end()).expect("reply is valid JSON");
    let code = reply
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str);
    assert_eq!(code, Some("bad_request"), "{reply}");
    let mut rest = String::new();
    assert_eq!(long.reader.read_line(&mut rest).expect("read"), 0, "closed");

    // The same server still answers, on a new connection and an old one.
    Client::connect(addr).call(ping.clone());
    client.call(ping);
    client.shutdown();
    handle.join().expect("server thread");
}
