//! The crash matrix: every acknowledged result must survive every crash.
//!
//! Three layers of increasingly real process death:
//!
//! 1. **Truncation/bit-flip matrix** — a journaling server races a series
//!    of single-job batches while the test records, at every acknowledgement,
//!    the verdict bytes and the journal's on-disk length. The journal is then
//!    copied into fresh data directories and mutated — truncated at every
//!    record boundary, truncated at seeded random offsets, bit-flipped at
//!    seeded random offsets, damaged inside the header — and a fresh server
//!    boots from each mutation. Every query acknowledged at or before the
//!    surviving prefix must come back `from_cache` with **zero engine
//!    spawns** and **byte-identical** verdicts; every query past it re-runs
//!    and reaches the same verdict. No mutation may fail the boot.
//! 2. **Real kill** — a real `wlac-server` subprocess armed with the hidden
//!    `--crash-after-appends` flag hard-aborts in the middle of a journal
//!    append, leaving a genuinely torn frame. The restarted server quarantines
//!    the tear and replays the acknowledged prefix.
//! 3. **Kill during compaction** — every snapshot write is torn mid-frame
//!    (the kill-during-autosave model); compaction must then *keep* the
//!    journal, so nothing acknowledged is lost between a failed snapshot and
//!    its never-happening truncation.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use wlac_faultinject::{FaultPlan, FaultSite};
use wlac_portfolio::Engine;
use wlac_rng::Rng64;
use wlac_server::{Json, Server, ServerConfig};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let path = std::env::temp_dir().join(format!(
            "wlac-crash-matrix-{}-{}",
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

/// Four distinct single-job batches — four acknowledgements, four journal
/// records, four crash points between them.
const JOBS: [(&str, &str); 4] = [
    ("always", "ok"),
    ("always", "bad"),
    ("eventually", "bad"),
    ("eventually", "ok"),
];

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

    /// Submits one single-job batch and waits for its (sole) result.
    fn check_one(&mut self, design: &str, kind: &str, monitor: &str) -> Json {
        let job = Json::obj(vec![
            ("design", Json::str(design)),
            (
                "property",
                Json::obj(vec![
                    ("kind", Json::str(kind)),
                    ("monitor", Json::str(monitor)),
                ]),
            ),
        ]);
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("submit_batch")),
            ("jobs", Json::Arr(vec![job])),
        ]));
        let batch = reply.get("batch").and_then(Json::as_u64).expect("batch id");
        let reply = self.call(Json::obj(vec![
            ("op", Json::str("wait")),
            ("batch", Json::num(batch)),
        ]));
        reply
            .get("results")
            .and_then(Json::as_arr)
            .expect("results array")[0]
            .clone()
    }

    fn stats(&mut self) -> Json {
        let reply = self.call(Json::obj(vec![("op", Json::str("stats"))]));
        reply.get("stats").cloned().expect("stats object")
    }

    fn shutdown(&mut self) {
        self.call(Json::obj(vec![("op", Json::str("shutdown"))]));
    }
}

/// Deterministic single-engine, single-worker journaling config.
fn journal_config(data_dir: &TempDir) -> ServerConfig {
    let mut config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    config.data_dir = Some(data_dir.0.clone());
    config.service.workers = 1;
    config.service.predict = false;
    config.service.portfolio = config
        .service
        .portfolio
        .clone()
        .with_engines(vec![Engine::Atpg]);
    config.service.portfolio.checker.max_frames = 6;
    config.service.portfolio.checker.time_limit = Duration::from_secs(30);
    // The matrix wants the journal intact across the whole run: never compact.
    config.journal_compact_bytes = u64::MAX;
    // Exercise group commit (not strict mode) — the matrix models process
    // kills, where write-through appends survive without any fsync.
    config.journal_fsync_batch = 32;
    config
}

fn verdict_bytes(result: &Json) -> String {
    result.get("verdict").expect("verdict").to_string()
}

fn cached(result: &Json) -> bool {
    result.get("from_cache").and_then(Json::as_bool) == Some(true)
}

fn engines_spawned(result: &Json) -> u64 {
    result
        .get("engines_spawned")
        .and_then(Json::as_u64)
        .expect("engines_spawned")
}

/// The recording run: races [`JOBS`] one batch at a time and captures, at
/// each acknowledgement, the verdict bytes and the journal's byte length.
/// The server is *abandoned* (never shut down, so never compacted) — exactly
/// a crash, minus the kernel page cache loss no process kill causes anyway.
struct Recording {
    /// `boundaries[0]` is the header length; `boundaries[k]` the journal
    /// length at the k-th acknowledgement.
    boundaries: Vec<u64>,
    /// Reference verdict bytes per job, in [`JOBS`] order.
    reference: Vec<String>,
    /// Full journal bytes after the last acknowledgement.
    journal: Vec<u8>,
    /// The journal's file name (`d<hash>.wlacjournal`).
    file_name: String,
}

fn record_reference_run() -> Recording {
    let dir = TempDir::new();
    let server = Server::bind(journal_config(&dir)).expect("bind");
    let addr = server.local_addr().expect("addr");
    std::thread::spawn(move || server.run()); // leaked: abandoned, not drained
    let mut client = Client::connect(addr);
    let design = client.register_counter();

    let journal_path = |dir: &TempDir| {
        fs::read_dir(&dir.0)
            .expect("data dir")
            .flatten()
            .map(|e| e.path())
            .find(|p| p.extension().and_then(|x| x.to_str()) == Some("wlacjournal"))
    };

    let mut boundaries = Vec::new();
    let mut reference = Vec::new();
    for (kind, monitor) in JOBS {
        let result = client.check_one(&design, kind, monitor);
        assert!(!cached(&result), "recording run must race every job");
        reference.push(verdict_bytes(&result));
        let path = journal_path(&dir).expect("journal exists after first ack");
        boundaries.push(fs::metadata(&path).expect("metadata").len());
    }
    let path = journal_path(&dir).expect("journal");
    let journal = fs::read(&path).expect("journal bytes");
    assert_eq!(journal.len() as u64, boundaries[JOBS.len() - 1]);
    let file_name = path
        .file_name()
        .expect("file name")
        .to_string_lossy()
        .into_owned();

    let replay = wlac_persist::recover_journal(&journal[..]).expect("clean journal recovers");
    assert_eq!(replay.records.len(), JOBS.len(), "one record per ack");

    let mut all = vec![header_boundary(&journal)];
    all.extend(boundaries);
    Recording {
        boundaries: all,
        reference,
        journal,
        file_name,
    }
}

/// Length of the journal's header (the boundary before the first record):
/// the longest prefix that still recovers to zero records.
fn header_boundary(journal: &[u8]) -> u64 {
    // The header parses from the full bytes; recovering a prefix that holds
    // only the header yields valid_bytes == header length. Find it by
    // recovering the shortest prefix that parses at all.
    for len in 0..=journal.len() {
        if let Ok(replay) = wlac_persist::recover_journal(&journal[..len]) {
            assert_eq!(replay.records.len(), 0);
            return replay.valid_bytes;
        }
    }
    panic!("journal has no valid header");
}

/// Boots a fresh journaling server from `journal_bytes` planted as the
/// only file in a fresh data directory, then checks every job: the first
/// `expected_recovered` jobs must be answered from recovered state with zero
/// engine spawns and byte-identical verdicts; the rest must re-race and
/// reach the same verdicts. The boot itself must always succeed.
fn assert_recovery(
    case: &str,
    recording: &Recording,
    journal_bytes: &[u8],
    expected_recovered: usize,
) {
    let dir = TempDir::new();
    fs::write(dir.0.join(&recording.file_name), journal_bytes).expect("plant journal");
    let server = Server::bind(journal_config(&dir)).expect("boot must survive any journal damage");
    assert_eq!(server.loaded_snapshots(), 0, "{case}: no snapshots planted");
    assert_eq!(
        server.boot_replayed_records(),
        expected_recovered as u64,
        "{case}: replayed record count"
    );
    // Damage is never silent: quarantined bytes come with a parseable
    // post-mortem bundle naming the fault site — and a clean boot must not
    // cry wolf.
    let dumps: Vec<std::path::PathBuf> = fs::read_dir(dir.0.join("postmortem"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("pm-") && n.ends_with(".json"))
                })
                .collect()
        })
        .unwrap_or_default();
    if server.journal_quarantined_bytes() > 0 {
        assert!(
            !dumps.is_empty(),
            "{case}: quarantined bytes without a post-mortem dump"
        );
        for dump in &dumps {
            let text = fs::read_to_string(dump).expect("dump is readable");
            let bundle = Json::parse(&text)
                .unwrap_or_else(|e| panic!("{case}: dump {} is not JSON: {e}", dump.display()));
            assert_eq!(
                bundle.get("fault").and_then(Json::as_str),
                Some("journal_tail_quarantined"),
                "{case}: {bundle}"
            );
        }
    } else {
        assert!(
            dumps.is_empty(),
            "{case}: undamaged journal produced dumps: {dumps:?}"
        );
    }
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    for (index, (kind, monitor)) in JOBS.iter().enumerate() {
        let result = client.check_one(&design, kind, monitor);
        assert_eq!(
            verdict_bytes(&result),
            recording.reference[index],
            "{case}: job {index} verdict must be byte-identical"
        );
        if index < expected_recovered {
            assert!(
                cached(&result),
                "{case}: acknowledged job {index} must be answered from recovered state: {result}"
            );
            assert_eq!(
                engines_spawned(&result),
                0,
                "{case}: acknowledged job {index} must spawn no engines"
            );
        } else {
            assert!(
                !cached(&result),
                "{case}: job {index} was never acknowledged, must re-race"
            );
        }
    }
    client.shutdown();
    handle.join().expect("server thread");
}

/// How many whole acknowledged records survive when the journal is cut (or
/// first damaged) at byte offset `at`.
fn recovered_at(boundaries: &[u64], at: u64) -> usize {
    boundaries.iter().skip(1).filter(|b| **b <= at).count()
}

#[test]
fn crash_matrix_truncation_and_bit_flips() {
    let recording = record_reference_run();
    let boundaries = &recording.boundaries;
    let full = recording.journal.len() as u64;
    assert_eq!(*boundaries.last().expect("boundaries"), full);

    // Crash at every record boundary: the canonical kill-between-appends.
    for (k, boundary) in boundaries.iter().enumerate() {
        let cut = &recording.journal[..*boundary as usize];
        assert_recovery(&format!("boundary {k}"), &recording, cut, k);
    }

    // Crash at seeded random offsets: kills mid-append. The surviving state
    // is exactly the records whose frames end at or before the cut.
    let mut rng = Rng64::seed_from_u64(0xCAFE_D00D);
    for round in 0..6 {
        let at = rng.next_range(boundaries[0], full);
        let cut = &recording.journal[..at as usize];
        assert_recovery(
            &format!("random cut {round} @ {at}"),
            &recording,
            cut,
            recovered_at(boundaries, at),
        );
    }

    // Bit rot inside the record region: the damaged frame and everything
    // after it quarantine; everything before it survives.
    for round in 0..6 {
        let at = rng.next_range(boundaries[0], full);
        let mut damaged = recording.journal.clone();
        damaged[at as usize] ^= 1 << rng.next_below(8);
        assert_recovery(
            &format!("bit flip {round} @ {at}"),
            &recording,
            &damaged,
            recovered_at(boundaries, at),
        );
    }

    // Damage inside the header: the whole journal is untrusted — the server
    // boots cold (never crashes) and re-races everything.
    let mut damaged = recording.journal.clone();
    damaged[(boundaries[0] / 2) as usize] ^= 0x20;
    assert_recovery("header damage", &recording, &damaged, 0);
}

/// Phase 2: a real subprocess, really killed mid-append.
#[test]
fn crash_matrix_real_kill_mid_append() {
    let exe = env!("CARGO_BIN_EXE_wlac-server");
    let dir = TempDir::new();
    let data_dir = dir.0.to_string_lossy().into_owned();

    type Stdout = std::io::Lines<BufReader<std::process::ChildStdout>>;
    // The returned stdout reader must stay alive until the child exits: the
    // server prints a farewell line at shutdown, and a closed pipe would
    // turn that into a broken-pipe failure.
    let spawn = |crash: Option<u64>| -> (Child, std::net::SocketAddr, Stdout) {
        let mut cmd = Command::new(exe);
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--data-dir",
            &data_dir,
            "--workers",
            "1",
            "--max-frames",
            "6",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        if let Some(n) = crash {
            cmd.args(["--crash-after-appends", &n.to_string()]);
        }
        let mut child = cmd.spawn().expect("spawn wlac-server");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("server prints its address")
            .expect("readable stdout");
        let addr = line
            .strip_prefix("listening on ")
            .expect("listening line")
            .parse()
            .expect("socket address");
        (child, addr, lines)
    };

    // Session 1: the second journal append hard-aborts the process between
    // the two halves of the frame — a genuinely torn tail on a real file.
    let (mut child, addr, _stdout) = spawn(Some(2));
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let first = client.check_one(&design, JOBS[0].0, JOBS[0].1);
    assert!(!cached(&first));
    let first_bytes = verdict_bytes(&first);
    // The second check dies with the server: the ack must never arrive.
    let job = format!(
        "{{\"op\":\"submit_batch\",\"jobs\":[{{\"design\":\"{design}\",\
         \"property\":{{\"kind\":\"{}\",\"monitor\":\"{}\"}}}}]}}",
        JOBS[1].0, JOBS[1].1
    );
    // Either the submit/wait exchange errors out or a reply shows up before
    // the worker reaches the append; in both cases the process dies.
    if let Ok(reply) = client.try_raw(&job) {
        if let Some(batch) = reply.get("batch").and_then(Json::as_u64) {
            let _ = client.try_raw(&format!("{{\"op\":\"wait\",\"batch\":{batch}}}"));
        }
    }
    let status = child.wait().expect("child exit");
    assert!(!status.success(), "the armed server must die by abort");
    let journal = fs::read_dir(&dir.0)
        .expect("data dir")
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|x| x.to_str()) == Some("wlacjournal"))
        .expect("journal survives the abort");
    let torn_len = fs::metadata(&journal).expect("metadata").len();

    // Session 2: restart over the torn journal. The acknowledged first
    // check replays; the torn second append quarantines.
    let (mut child, addr, _stdout) = spawn(None);
    let mut client = Client::connect(addr);
    let stats = client.stats();
    assert_eq!(
        stats.get("boot_replayed_records").and_then(Json::as_u64),
        Some(1),
        "exactly the acknowledged record replays: {stats}"
    );
    assert!(
        stats
            .get("journal_quarantined_bytes")
            .and_then(Json::as_u64)
            .is_some_and(|b| b > 0),
        "the torn half-frame is quarantined: {stats}"
    );
    let design = client.register_counter();
    let replayed = client.check_one(&design, JOBS[0].0, JOBS[0].1);
    assert!(cached(&replayed), "acknowledged work survives the kill");
    assert_eq!(engines_spawned(&replayed), 0);
    assert_eq!(
        verdict_bytes(&replayed),
        first_bytes,
        "byte-identical verdict"
    );
    // The never-acknowledged second check re-races to completion.
    let rerun = client.check_one(&design, JOBS[1].0, JOBS[1].1);
    assert!(!cached(&rerun));
    client.shutdown();
    let status = child.wait().expect("child exit");
    assert!(status.success(), "graceful shutdown");
    let _ = torn_len;
}

/// Phase 3: a crash in the middle of *compaction* — the snapshot write is
/// torn, so the truncation must never happen and the journal keeps carrying
/// every acknowledged record.
#[test]
fn crash_matrix_kill_during_compaction_keeps_the_journal() {
    let dir = TempDir::new();
    let mut config = journal_config(&dir);
    // Compact after every answered batch, and tear every snapshot write.
    config.journal_compact_bytes = 1;
    config.service.faults = FaultPlan::seeded(7).fire_from(FaultSite::SnapshotTorn, 1);
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    let mut reference = Vec::new();
    for (kind, monitor) in &JOBS[..2] {
        reference.push(verdict_bytes(&client.check_one(&design, kind, monitor)));
    }
    // Graceful shutdown also tries (and fails) to compact.
    client.shutdown();
    handle.join().expect("server thread");

    // No snapshot was ever published; the journal still holds both records.
    let snapshots = fs::read_dir(&dir.0)
        .expect("data dir")
        .flatten()
        .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("wlacsnap"))
        .count();
    assert_eq!(snapshots, 0, "every snapshot write was torn");

    // Restart: both acknowledged checks replay from the kept journal.
    let mut config = journal_config(&dir);
    config.journal_compact_bytes = 1; // compaction works again (no faults)
    let server = Server::bind(config).expect("bind");
    assert_eq!(server.boot_replayed_records(), 2);
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    for (index, (kind, monitor)) in JOBS[..2].iter().enumerate() {
        let result = client.check_one(&design, kind, monitor);
        assert!(cached(&result), "acknowledged job {index}: {result}");
        assert_eq!(engines_spawned(&result), 0);
        assert_eq!(verdict_bytes(&result), reference[index]);
    }
    client.shutdown();
    handle.join().expect("server thread");
}

/// A server that only replays a journal (every query it answers is a cache
/// hit, so it never appends) removes that journal once the shutdown
/// snapshot holds its state, instead of replaying it at every boot forever.
#[test]
fn a_replayed_journal_is_removed_once_a_snapshot_supersedes_it() {
    let recording = record_reference_run();
    let dir = TempDir::new();
    let journal_path = dir.0.join(&recording.file_name);
    fs::write(&journal_path, &recording.journal).expect("plant journal");

    let server = Server::bind(journal_config(&dir)).expect("bind");
    assert_eq!(server.loaded_snapshots(), 0);
    assert_eq!(server.boot_replayed_records(), JOBS.len() as u64);
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    for (index, (kind, monitor)) in JOBS.iter().enumerate() {
        let result = client.check_one(&design, kind, monitor);
        assert!(cached(&result), "replayed job {index}: {result}");
        assert_eq!(verdict_bytes(&result), recording.reference[index]);
    }
    // Shutdown saves a snapshot of every design; with that on disk the
    // journal is redundant and must be gone.
    client.shutdown();
    handle.join().expect("server thread");
    assert!(
        !journal_path.exists(),
        "a snapshotted journal must not be replayed forever"
    );

    // Next boot: warm purely from the snapshot, nothing left to replay.
    let server = Server::bind(journal_config(&dir)).expect("bind");
    assert_eq!(server.loaded_snapshots(), 1);
    assert_eq!(server.boot_replayed_records(), 0);
    let addr = server.local_addr().expect("addr");
    let handle = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr);
    let design = client.register_counter();
    for (index, (kind, monitor)) in JOBS.iter().enumerate() {
        let result = client.check_one(&design, kind, monitor);
        assert!(cached(&result), "snapshot-restored job {index}: {result}");
        assert_eq!(verdict_bytes(&result), recording.reference[index]);
    }
    client.shutdown();
    handle.join().expect("server thread");
}
