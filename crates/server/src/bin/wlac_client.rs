//! Command-line client for `wlac-server`.
//!
//! ```text
//! wlac-client [--addr HOST:PORT] [--connect-timeout-ms N] [--io-timeout-ms N]
//!             [--retries N] COMMAND
//!
//! COMMAND: ping
//!        | register DESIGN.v
//!        | check DESIGN.v [--always OUT]... [--eventually OUT]...
//!        | watch BATCH [--interval-ms N]
//!        | top [--interval-ms N] [--frames N]
//!        | stats | metrics | health
//!        | events [--layer L] [--job N] [--limit N]
//!        | export DESIGN_HASH FILE.wlacsnap
//!        | import FILE.wlacsnap
//!        | shutdown
//! ```
//!
//! `metrics` prints the server's Prometheus-style exposition to stdout (for
//! scrapers and CI smoke checks). `health` prints the liveness/readiness
//! report and exits 0 when ready, 1 otherwise (for probes). `events` tails
//! the server's flight recorder, optionally filtered by layer
//! (`core`/`portfolio`/`service`/`persist`/`server`) and job id.
//!
//! `check` registers the design, submits one job per `--always`/
//! `--eventually` monitor (default: one `always` job per design output),
//! subscribes to the batch's event stream (live search progress goes to
//! stderr as it happens — no polling), and prints the final results. Exit
//! codes: 0 all passed, 1 some property violated/unknown, 2 usage or
//! protocol error.
//!
//! `watch` subscribes to an already-submitted batch: progress frames stream
//! to stderr, verdicts print to stdout as they land. Exit codes mirror
//! `check`, with 2 also covering a stream that ended before `batch_done`
//! (this subscriber was shed). `top` shows the server's live load — queue
//! depth, worker liveness, and a row per in-flight job with its deepest
//! bound, conflict count and elapsed time.
//!
//! The client never hangs and never gives up on transient pressure: connects
//! are bounded by `--connect-timeout-ms` (default 5000) and retried with
//! exponential back-off, every request is bounded by `--io-timeout-ms`
//! (default 150000), and structured `overloaded` sheds are retried after the
//! server's `retry_after_ms` hint. Subscriptions push at least one frame per
//! tick interval, so a live stream stays well inside the socket timeout.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use wlac_server::{Json, JsonError};

#[derive(Clone)]
struct Options {
    addr: String,
    connect_timeout: Duration,
    io_timeout: Option<Duration>,
    retries: u32,
}

/// A failed call, with enough structure to decide whether to retry.
struct CallError {
    code: Option<String>,
    message: String,
    retry_after: Option<Duration>,
}

impl CallError {
    fn transport(message: String) -> CallError {
        CallError {
            code: None,
            message,
            retry_after: None,
        }
    }

    fn is(&self, code: &str) -> bool {
        self.code.as_deref() == Some(code)
    }
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.code {
            Some(code) => write!(f, "server error [{code}]: {}", self.message),
            None => f.write_str(&self.message),
        }
    }
}

struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    options: Options,
}

impl Connection {
    /// One bounded connect attempt (no retry).
    fn open_once(options: &Options) -> std::io::Result<Connection> {
        let mut addrs = options.addr.to_socket_addrs()?;
        let addr = addrs.next().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                format!("{} resolves to no address", options.addr),
            )
        })?;
        let writer = TcpStream::connect_timeout(&addr, options.connect_timeout)?;
        writer.set_read_timeout(options.io_timeout)?;
        writer.set_write_timeout(options.io_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Connection {
            writer,
            reader,
            options: options.clone(),
        })
    }

    /// Connects with exponential back-off: transient refusals (server still
    /// booting, connection cap churn) are absorbed instead of surfaced.
    fn open(options: &Options) -> std::io::Result<Connection> {
        let mut delay = Duration::from_millis(100);
        let mut attempt = 0;
        loop {
            match Connection::open_once(options) {
                Ok(conn) => return Ok(conn),
                Err(e) if attempt < options.retries => {
                    eprintln!(
                        "wlac-client: connect to {} failed ({e}); retrying in {} ms",
                        options.addr,
                        delay.as_millis()
                    );
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn call_once(&mut self, request: &Json) -> Result<Json, CallError> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| CallError::transport(format!("send failed: {e}")))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| CallError::transport(format!("receive failed: {e}")))?;
        if line.is_empty() {
            return Err(CallError::transport("server closed the connection".into()));
        }
        let reply = Json::parse(line.trim_end())
            .map_err(|e: JsonError| CallError::transport(format!("bad reply frame: {e}")))?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            let error = reply.get("error");
            Err(CallError {
                code: error
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .map(str::to_string),
                message: error
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("no message")
                    .to_string(),
                retry_after: error
                    .and_then(|e| e.get("retry_after_ms"))
                    .and_then(Json::as_u64)
                    .map(Duration::from_millis),
            })
        }
    }

    /// One request, absorbing `overloaded` sheds: honours the server's
    /// `retry_after_ms` hint, reconnects (a shed closes the connection) and
    /// tries again up to the retry budget.
    fn call(&mut self, request: &Json) -> Result<Json, CallError> {
        let mut attempt = 0;
        loop {
            match self.call_once(request) {
                Err(e) if e.is("overloaded") && attempt < self.options.retries => {
                    let delay = e
                        .retry_after
                        .unwrap_or(Duration::from_millis(100 << attempt.min(6)));
                    eprintln!(
                        "wlac-client: server overloaded; retrying in {} ms",
                        delay.as_millis()
                    );
                    std::thread::sleep(delay);
                    *self = Connection::open(&self.options)
                        .map_err(|e| CallError::transport(format!("reconnect failed: {e}")))?;
                    attempt += 1;
                }
                outcome => return outcome,
            }
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: wlac-client [--addr HOST:PORT] [--connect-timeout-ms N] [--io-timeout-ms N] \
         [--retries N] \
         (ping | register FILE.v | check FILE.v [--always OUT]... [--eventually OUT]... \
         | watch BATCH [--interval-ms N] | top [--interval-ms N] [--frames N] \
         | stats | metrics | health | events [--layer L] [--job N] [--limit N] \
         | export DESIGN FILE | import FILE | shutdown)"
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("wlac-client: {message}");
    std::process::exit(2);
}

fn read_source(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")))
}

fn register(conn: &mut Connection, path: &str) -> Result<(String, Vec<String>), String> {
    let request = Json::obj(vec![
        ("op", Json::str("register_design")),
        ("source", Json::Str(read_source(path))),
    ]);
    let reply = conn.call(&request).map_err(|e| e.to_string())?;
    let design = reply
        .get("design")
        .and_then(Json::as_str)
        .ok_or("reply missing `design`")?
        .to_string();
    let outputs = reply
        .get("outputs")
        .and_then(Json::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect()
        })
        .unwrap_or_default();
    Ok((design, outputs))
}

/// Prints one wire job result as a row; `true` when the property failed
/// (violated, unknown, or timed out).
fn print_result_row(result: &Json) -> bool {
    let property = result.get("property").and_then(Json::as_str).unwrap_or("?");
    let verdict = result.get("verdict");
    let label = verdict
        .and_then(|v| v.get("label"))
        .and_then(Json::as_str)
        .unwrap_or("?");
    let cached = result
        .get("from_cache")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    let engines = result
        .get("engines_spawned")
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let wall = result
        .get("wall_ms")
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    println!(
        "{property:<16} {label:<13} {} engines={engines} wall={wall:.2}ms",
        if cached { "cached" } else { "raced " },
    );
    !matches!(label, "proved" | "holds(bound)" | "no witness" | "witness")
}

fn print_results(reply: &Json) -> i32 {
    let results = reply.get("results").and_then(Json::as_arr).unwrap_or(&[]);
    let failures = results.iter().filter(|r| print_result_row(r)).count();
    if failures > 0 {
        1
    } else {
        0
    }
}

/// One human line for a streamed `progress` event.
fn progress_line(frame: &Json) -> String {
    let property = frame.get("property").and_then(Json::as_str).unwrap_or("?");
    let elapsed = frame
        .get("elapsed_ms")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let leading = frame.get("leading").and_then(Json::as_str).unwrap_or("-");
    let probe = frame.get("probe");
    let field = |name: &str| {
        probe
            .and_then(|p| p.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    format!(
        "{property:<16} bound={} conflicts={} decisions={} lead={leading} elapsed={:.1}s",
        field("bound"),
        field("conflicts"),
        field("decisions"),
        elapsed / 1e3,
    )
}

/// Subscribes this connection to `batch` and feeds every streamed event
/// frame to `on_event` until `batch_done` arrives. Returns `false` when the
/// server ended the stream early (this subscriber was shed, or the server
/// is draining) — the batch keeps running either way.
fn subscribe_stream(
    conn: &mut Connection,
    batch: u64,
    interval_ms: u64,
    on_event: &mut dyn FnMut(&Json),
) -> Result<bool, String> {
    let request = Json::obj(vec![
        ("op", Json::str("subscribe")),
        ("batch", Json::num(batch)),
        ("interval_ms", Json::num(interval_ms)),
    ]);
    conn.writer
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| conn.writer.flush())
        .map_err(|e| format!("send failed: {e}"))?;
    loop {
        let mut line = String::new();
        match conn.reader.read_line(&mut line) {
            Ok(0) => return Ok(false), // stream closed before batch_done
            Ok(_) => {}
            Err(e) => return Err(format!("receive failed: {e}")),
        }
        if line.trim().is_empty() {
            continue;
        }
        let frame = Json::parse(line.trim_end()).map_err(|e| format!("bad event frame: {e}"))?;
        if frame.get("ok").and_then(Json::as_bool) != Some(true) {
            let error = frame.get("error");
            return Err(format!(
                "server error [{}]: {}",
                error
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
                error
                    .and_then(|e| e.get("message"))
                    .and_then(Json::as_str)
                    .unwrap_or("no message"),
            ));
        }
        if frame.get("event").and_then(Json::as_str) == Some("batch_done") {
            return Ok(true);
        }
        on_event(&frame);
    }
}

fn cmd_check(conn: &mut Connection, path: &str, rest: &[String]) -> Result<i32, String> {
    let (design, outputs) = register(conn, path)?;
    println!("design {design}");
    let mut jobs: Vec<(String, String)> = Vec::new(); // (kind, monitor)
    let mut iter = rest.iter();
    while let Some(flag) = iter.next() {
        let monitor = iter
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a monitor name")));
        match flag.as_str() {
            "--always" => jobs.push(("always".into(), monitor.clone())),
            "--eventually" => jobs.push(("eventually".into(), monitor.clone())),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    if jobs.is_empty() {
        // Default: every marked output is an `always` assertion.
        jobs = outputs
            .iter()
            .map(|o| ("always".into(), o.clone()))
            .collect();
    }
    if jobs.is_empty() {
        return Err("design has no outputs and no monitors were named".into());
    }
    let job_values: Vec<Json> = jobs
        .iter()
        .map(|(kind, monitor)| {
            Json::obj(vec![
                ("design", Json::str(design.clone())),
                (
                    "property",
                    Json::obj(vec![
                        ("kind", Json::str(kind.clone())),
                        ("monitor", Json::str(monitor.clone())),
                    ]),
                ),
            ])
        })
        .collect();
    let submit = Json::obj(vec![
        ("op", Json::str("submit_batch")),
        ("jobs", Json::Arr(job_values)),
    ]);
    let reply = conn.call(&submit).map_err(|e| e.to_string())?;
    let batch = reply
        .get("batch")
        .and_then(Json::as_u64)
        .ok_or("reply missing `batch`")?;
    println!("batch {batch}");
    // Ride the batch's event stream instead of polling: the server pushes
    // live search progress (printed to stderr) and each verdict as it lands.
    let done = subscribe_stream(conn, batch, 1_000, &mut |frame| {
        if frame.get("event").and_then(Json::as_str) == Some("progress") {
            eprintln!("wlac-client: {}", progress_line(frame));
        }
    })?;
    if !done {
        return Err(format!("event stream for batch {batch} ended early"));
    }
    // Fetch the finished batch's results in job order. The stream already
    // retired the batch and ran its compaction check at `batch_done`.
    let results = conn
        .call(&Json::obj(vec![
            ("op", Json::str("results")),
            ("batch", Json::num(batch)),
        ]))
        .map_err(|e| e.to_string())?;
    Ok(print_results(&results))
}

/// `watch BATCH [--interval-ms N]`: subscribes to an already-submitted
/// batch and relays its event stream — progress to stderr, verdicts to
/// stdout as they land. Exit code: 0 all passed, 1 something failed, 2 the
/// stream ended before `batch_done` (this subscriber was shed).
fn cmd_watch(conn: &mut Connection, batch: &str, flags: &[String]) -> Result<i32, String> {
    let batch: u64 = batch
        .parse()
        .map_err(|_| "watch needs a numeric batch id".to_string())?;
    let mut interval_ms = 250u64;
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--interval-ms" => {
                interval_ms = value
                    .parse()
                    .unwrap_or_else(|_| fail("--interval-ms needs a number"));
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let mut failures = 0usize;
    let done = subscribe_stream(conn, batch, interval_ms, &mut |frame| match frame
        .get("event")
        .and_then(Json::as_str)
    {
        Some("progress") => eprintln!("wlac-client: {}", progress_line(frame)),
        Some("verdict") => {
            if let Some(result) = frame.get("result") {
                if print_result_row(result) {
                    failures += 1;
                }
            }
        }
        _ => {}
    })?;
    if !done {
        eprintln!("wlac-client: batch {batch} stream ended before batch_done");
        return Ok(2);
    }
    Ok(if failures > 0 { 1 } else { 0 })
}

/// `top [--interval-ms N] [--frames N]`: the server's live load, one frame
/// per tick — a summary line (queue depth, in-flight jobs, worker
/// liveness), then a row per running job with its deepest bound, conflict
/// count and elapsed time. `--frames 0` (the default) runs until
/// interrupted; `--frames 1` prints a single parseable frame and exits.
fn cmd_top(conn: &mut Connection, flags: &[String]) -> Result<i32, String> {
    let mut interval_ms = 1_000u64;
    let mut frames = 0u64;
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--interval-ms" => {
                interval_ms = value
                    .parse()
                    .unwrap_or_else(|_| fail("--interval-ms needs a number"));
            }
            "--frames" => {
                frames = value
                    .parse()
                    .unwrap_or_else(|_| fail("--frames needs a number"));
            }
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let request = Json::obj(vec![("op", Json::str("progress"))]);
    let mut shown = 0u64;
    loop {
        let reply = conn.call(&request).map_err(|e| e.to_string())?;
        let count = |name: &str| reply.get(name).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "queue={} running={} workers={} uptime_s={:.1}",
            count("queue_depth"),
            count("running_jobs"),
            count("workers_alive"),
            reply.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0),
        );
        println!(
            "{:<5} {:<6} {:<16} {:<6} {:>7} {:>10} {:>10} {:>9}",
            "JOB", "BATCH", "PROPERTY", "LEAD", "BOUND", "CONFLICTS", "DECISIONS", "ELAPSED"
        );
        for job in reply.get("running").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |name: &str| job.get(name).and_then(Json::as_u64).unwrap_or(0);
            let probe = job.get("probe");
            let effort = |name: &str| {
                probe
                    .and_then(|p| p.get(name))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            println!(
                "{:<5} {:<6} {:<16} {:<6} {:>7} {:>10} {:>10} {:>8.1}s",
                field("job"),
                field("batch"),
                job.get("property").and_then(Json::as_str).unwrap_or("?"),
                job.get("leading").and_then(Json::as_str).unwrap_or("-"),
                effort("bound"),
                effort("conflicts"),
                effort("decisions"),
                job.get("elapsed_ms").and_then(Json::as_f64).unwrap_or(0.0) / 1e3,
            );
        }
        shown += 1;
        if frames != 0 && shown >= frames {
            return Ok(0);
        }
        println!();
        std::thread::sleep(Duration::from_millis(interval_ms.max(1)));
    }
}

/// `events [--layer L] [--job N] [--limit N]`: tails the server's flight
/// recorder, one line per event, oldest first.
fn cmd_events(conn: &mut Connection, flags: &[String]) -> Result<i32, String> {
    let mut request = vec![("op", Json::str("events"))];
    let mut iter = flags.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .unwrap_or_else(|| fail(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--layer" => request.push(("layer", Json::str(value.clone()))),
            "--job" => request.push((
                "job",
                Json::num(
                    value
                        .parse()
                        .unwrap_or_else(|_| fail("--job needs a number")),
                ),
            )),
            "--limit" => request.push((
                "limit",
                Json::num(
                    value
                        .parse()
                        .unwrap_or_else(|_| fail("--limit needs a number")),
                ),
            )),
            other => fail(&format!("unknown flag {other}")),
        }
    }
    let reply = conn.call(&Json::obj(request)).map_err(|e| e.to_string())?;
    let events = reply.get("events").and_then(Json::as_arr).unwrap_or(&[]);
    for event in events {
        let field = |name: &str| event.get(name).and_then(Json::as_u64).unwrap_or(0);
        // The payload words are hex strings on the wire (full-width u64s).
        let word = |name: &str| event.get(name).and_then(Json::as_str).unwrap_or("0x0");
        println!(
            "{:>10} {:>14}ns {:<9} {:<9} job={} p0={} p1={}",
            field("seq"),
            field("at_ns"),
            event.get("layer").and_then(Json::as_str).unwrap_or("?"),
            event.get("kind").and_then(Json::as_str).unwrap_or("?"),
            field("job"),
            word("p0"),
            word("p1"),
        );
    }
    eprintln!(
        "wlac-client: {} event(s) shown; {} recorded, {} overwritten, capacity {}",
        events.len(),
        reply.get("recorded").and_then(Json::as_u64).unwrap_or(0),
        reply.get("overwritten").and_then(Json::as_u64).unwrap_or(0),
        reply.get("capacity").and_then(Json::as_u64).unwrap_or(0),
    );
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut options = Options {
        addr: "127.0.0.1:7117".to_string(),
        connect_timeout: Duration::from_millis(5_000),
        io_timeout: Some(Duration::from_millis(150_000)),
        retries: 5,
    };
    let mut rest: &[String] = &args;
    loop {
        let value = |rest: &[String]| rest.get(1).cloned().unwrap_or_else(|| usage());
        let millis = |rest: &[String]| -> u64 { value(rest).parse().unwrap_or_else(|_| usage()) };
        match rest.first().map(String::as_str) {
            Some("--addr") => options.addr = value(rest),
            Some("--connect-timeout-ms") => {
                options.connect_timeout = Duration::from_millis(millis(rest).max(1));
            }
            Some("--io-timeout-ms") => {
                let ms = millis(rest);
                options.io_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            Some("--retries") => {
                options.retries = value(rest).parse().unwrap_or_else(|_| usage());
            }
            _ => break,
        }
        rest = &rest[2..];
    }
    let Some(command) = rest.first() else { usage() };
    let mut conn = Connection::open(&options)
        .unwrap_or_else(|e| fail(&format!("cannot connect to {}: {e}", options.addr)));

    let outcome: Result<i32, String> = match (command.as_str(), &rest[1..]) {
        ("ping", []) => conn
            .call(&Json::obj(vec![("op", Json::str("ping"))]))
            .map_err(|e| e.to_string())
            .map(|_| {
                println!("pong");
                0
            }),
        ("register", [path]) => register(&mut conn, path).map(|(design, outputs)| {
            println!("design {design} outputs [{}]", outputs.join(", "));
            0
        }),
        ("check", [path, flags @ ..]) => cmd_check(&mut conn, path, flags),
        ("watch", [batch, flags @ ..]) => cmd_watch(&mut conn, batch, flags),
        ("top", flags) => cmd_top(&mut conn, flags),
        ("stats", []) => conn
            .call(&Json::obj(vec![("op", Json::str("stats"))]))
            .map_err(|e| e.to_string())
            .map(|reply| {
                println!("{}", reply.get("stats").cloned().unwrap_or(Json::Null));
                0
            }),
        ("health", []) => conn
            .call(&Json::obj(vec![("op", Json::str("health"))]))
            .map_err(|e| e.to_string())
            .map(|reply| {
                let status = reply.get("status").and_then(Json::as_str).unwrap_or("?");
                let uptime = reply.get("uptime_s").and_then(Json::as_f64).unwrap_or(0.0);
                println!("status {status} uptime_s {uptime:.1}");
                println!("{}", reply.get("checks").cloned().unwrap_or(Json::Null));
                // Probe semantics: ready exits 0, anything else exits 1.
                i32::from(reply.get("ready").and_then(Json::as_bool) != Some(true))
            }),
        ("events", flags) => cmd_events(&mut conn, flags),
        ("metrics", []) => conn
            .call(&Json::obj(vec![("op", Json::str("metrics"))]))
            .map_err(|e| e.to_string())
            .map(|reply| {
                print!(
                    "{}",
                    reply.get("prometheus").and_then(Json::as_str).unwrap_or("")
                );
                0
            }),
        ("export", [design, file]) => conn
            .call(&Json::obj(vec![
                ("op", Json::str("export_knowledge")),
                ("design", Json::str(design.clone())),
            ]))
            .map_err(|e| e.to_string())
            .and_then(|reply| {
                let hex = reply
                    .get("snapshot")
                    .and_then(Json::as_str)
                    .ok_or("reply missing `snapshot`")?;
                let bytes = wlac_server::proto::hex_decode(hex).ok_or("reply snapshot not hex")?;
                std::fs::write(file, bytes).map_err(|e| format!("cannot write {file}: {e}"))?;
                println!("exported {design} to {file}");
                Ok(0)
            }),
        ("import", [file]) => {
            let bytes =
                std::fs::read(file).unwrap_or_else(|e| fail(&format!("cannot read {file}: {e}")));
            conn.call(&Json::obj(vec![
                ("op", Json::str("import_knowledge")),
                (
                    "snapshot",
                    Json::str(wlac_server::proto::hex_encode(&bytes)),
                ),
            ]))
            .map_err(|e| e.to_string())
            .map(|reply| {
                println!(
                    "imported design {} ({} cached verdicts)",
                    reply.get("design").and_then(Json::as_str).unwrap_or("?"),
                    reply.get("verdicts").and_then(Json::as_u64).unwrap_or(0)
                );
                0
            })
        }
        ("shutdown", []) => conn
            .call(&Json::obj(vec![("op", Json::str("shutdown"))]))
            .map_err(|e| e.to_string())
            .map(|reply| {
                println!(
                    "server drained, {} design(s) saved",
                    reply
                        .get("saved_designs")
                        .and_then(Json::as_u64)
                        .unwrap_or(0)
                );
                0
            }),
        _ => usage(),
    };

    match outcome {
        Ok(code) => std::process::exit(code),
        Err(message) => fail(&message),
    }
}
