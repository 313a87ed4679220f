//! The closed-loop workloads, each driving a real `wlac-server`.

use crate::gen::{self, GenDesign};
use crate::paper::{self, PaperCase};
use crate::procfs::{cpu_secs, peak_rss_mb, ServerProcess, TempDir};
use crate::wire::{Conn, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wlac_persist::{save_snapshot, snapshot_file_name, Snapshot};
use wlac_rng::Rng64;
use wlac_server::Json;
use wlac_service::{design_hash, KnowledgeBase};

/// `paper_rerun` batches per requested second (140 cache hits each).
const RERUN_BATCHES_PER_S: f64 = 15.0;
/// `design_stream` designs per requested second (six properties each).
const STREAM_DESIGNS_PER_S: f64 = 40.0;
/// `paper_rerun` set-ups per run; `setup_s` is their median. One restart
/// takes 25–40 ms and falls in one of two modes with the host's load, so
/// each set-up is the mean of several back-to-back restarts.
const RERUN_SETUPS: usize = 8;
const RESTARTS_PER_SETUP: usize = 5;
/// Untimed `paper_rerun` fill passes tried at most (see `paper_rerun`).
const FILL_ATTEMPTS: usize = 3;
/// Fresh servers registering every design per `design_stream` run;
/// `setup_s` is their median.
const STREAM_SETUPS: usize = 10;
// Both workloads run half their set-ups before the measured phase and half
// after it: the host's speed drifts over seconds, and set-ups taken in one
// burst of a second or two moved `setup_s` by a fifth from run to run.

pub struct Ctx {
    pub bin: PathBuf,
    pub work: PathBuf,
    pub pid_file: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One job as the client saw it. Times are nanoseconds from the run epoch.
#[derive(Debug, Clone)]
pub struct JobSample {
    /// `batch << 16 | index`: the id every span of this job carries.
    pub id: u64,
    pub label: String,
    pub from_cache: bool,
    pub engines: u64,
    pub wall_ms: f64,
    pub sent_ns: u64,
    pub accepted_ns: u64,
    pub done_ns: u64,
    pub batch_jobs: usize,
}

impl JobSample {
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// A flat snapshot of the server's `metrics` op.
pub type Metrics = BTreeMap<String, f64>;

/// The measured phase of one workload.
#[derive(Default)]
pub struct Phase {
    pub jobs: Vec<JobSample>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub measured_s: f64,
    pub server_cpu_s: f64,
    pub client_cpu_s: f64,
    pub rss_mb: f64,
    pub frames: u64,
    /// Latency samples in ms: one per job, or one per batch where every
    /// job of a batch shares one `wait` round trip.
    pub latencies_ms: Vec<f64>,
    pub latency_unit: &'static str,
    /// Server-side `metrics` delta over the phase (traced runs only).
    pub delta: Metrics,
    /// Every request frame the phase sent, for the decode replay.
    pub frames_sent: Vec<String>,
}

impl Phase {
    pub fn good_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| !failed_label(&j.label)).count()
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.good_jobs() as f64 / self.measured_s.max(1e-9)
    }

    /// Adds the jobs and counts of one client thread's share of the phase.
    fn absorb(&mut self, mut other: Phase) {
        self.jobs.append(&mut other.jobs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.append(&mut other.problems);
        self.frames += other.frames;
        self.latencies_ms.append(&mut other.latencies_ms);
    }
}

/// Inputs the traced run replays in process, and the per-layer numbers
/// only the workload itself can time.
#[derive(Default)]
pub struct Replay {
    /// Registration traffic (`register_design` frames).
    pub setup_frames: Vec<String>,
    pub sources: Vec<String>,
    pub snapshots: Vec<Vec<u8>>,
    /// Raced verifications, as the server received them.
    pub raced: Vec<wlac_atpg::Verification>,
    /// Batches as submitted, for the in-process `submit_batch` replay.
    pub batches: Vec<Vec<wlac_atpg::Verification>>,
    pub register_ms: Vec<f64>,
    pub boot_ms: Vec<f64>,
}

pub struct Run {
    pub setup_s: f64,
    pub setup_note: String,
    pub phase: Phase,
    pub replay: Replay,
}

pub fn failed_label(label: &str) -> bool {
    matches!(label, "unknown" | "timeout" | "")
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

fn shuffled(n: usize, rng: &mut Rng64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    order
}

fn op(name: &str) -> String {
    Json::obj(vec![("op", Json::str(name))]).to_string()
}

fn batch_op(name: &str, batch: u64) -> String {
    Json::obj(vec![("op", Json::str(name)), ("batch", Json::num(batch))]).to_string()
}

pub fn fetch_metrics(conn: &mut Conn) -> Result<Metrics, String> {
    let reply = conn.call(&op("metrics"))?;
    match reply.get("metrics") {
        Some(Value::Obj(pairs)) => Ok(pairs
            .iter()
            .filter_map(|(k, v)| match v {
                Value::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect()),
        _ => Err("metrics reply without a metrics object".into()),
    }
}

fn delta(before: &Metrics, after: &Metrics) -> Metrics {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}

/// Reads a result object of the wire into a sample (times filled by the
/// caller).
fn sample(result: &Value, id: u64) -> (JobSample, String) {
    let label = result
        .get("verdict")
        .and_then(|v| v.str("label"))
        .unwrap_or("")
        .to_string();
    let property = result.str("property").unwrap_or("").to_string();
    (
        JobSample {
            id,
            label,
            from_cache: result.bool("from_cache").unwrap_or(false),
            engines: result.num("engines_spawned").unwrap_or(0.0) as u64,
            wall_ms: result.num("wall_ms").unwrap_or(0.0),
            sent_ns: 0,
            accepted_ns: 0,
            done_ns: 0,
            batch_jobs: 0,
        },
        property,
    )
}

/// One batch submitted and followed over `subscribe` to `batch_done`.
/// Returns `(slot index, sample)` per delivered job, and `Err` once the
/// connection is no longer usable; jobs the stream never delivered are
/// counted in `phase.failed`.
fn streamed_batch(
    conn: &mut Conn,
    frame: &str,
    jobs: usize,
    epoch: Instant,
    phase: &mut Phase,
) -> (Vec<(usize, JobSample)>, Result<(), String>) {
    phase.attempted += jobs as u64;
    let sent_ns = ns_since(epoch);
    let reply = conn.send(frame).and_then(|()| conn.recv());
    let accepted_ns = ns_since(epoch);
    let batch = match reply {
        Ok(r) if r.error_code().is_none() => r.num("batch").unwrap_or(0.0) as u64,
        Ok(r) => {
            phase.failed += jobs as u64;
            eprintln!("wlac-perfbench: submit_batch: {:?}", r.error_code());
            return (Vec::new(), Ok(()));
        }
        Err(e) => {
            phase.failed += jobs as u64;
            return (Vec::new(), Err(e));
        }
    };
    let mut out = Vec::with_capacity(jobs);
    let mut stream = || -> Result<(), String> {
        conn.send(&batch_op("subscribe", batch))?;
        loop {
            let f = conn.recv()?;
            if let Some(code) = f.error_code() {
                return Err(format!("subscribe rejected: {code}"));
            }
            phase.frames += 1;
            match f.str("event") {
                Some("verdict") => {
                    let index = f.num("index").unwrap_or(0.0) as usize;
                    let result = f.get("result").unwrap_or(&Value::Null);
                    let (mut s, _) = sample(result, batch << 16 | index as u64);
                    s.sent_ns = sent_ns;
                    s.accepted_ns = accepted_ns;
                    s.done_ns = ns_since(epoch);
                    s.batch_jobs = jobs;
                    out.push((index, s));
                }
                Some("batch_done") => return Ok(()),
                _ => {}
            }
        }
    };
    let outcome = stream();
    phase.failed += (jobs - out.len()) as u64;
    for (_, s) in &out {
        if failed_label(&s.label) {
            phase.failed += 1;
        }
    }
    (out, outcome)
}

// --------------------------------------------------------------- paper_rerun

pub fn paper_rerun(ctx: &Ctx) -> Result<Run, String> {
    let cases = paper::cases();
    let mut rng = Rng64::seed_from_u64(ctx.seed);
    let fill_order = shuffled(cases.len(), &mut rng);
    // Random simulation can win a fill race by timing alone: when it beats
    // ATPG's bounded `no witness` to p4 it caches a 64-cycle witness that
    // every later hit copies (server RSS 59 MB → 1.2 GB). So the pass is
    // redone while random simulation wins any race, and every run serves the
    // same cache; the last attempt is kept whatever it holds.
    let mut attempts = 0;
    let (data, fill) = loop {
        attempts += 1;
        let (data, fill, by_chance) = fill_pass(ctx, &cases, &fill_order)?;
        if !by_chance || attempts == FILL_ATTEMPTS {
            break (data, fill);
        }
    };
    let mut replay = Replay::default();
    for entry in std::fs::read_dir(&data.0).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "wlacsnap") {
            replay
                .snapshots
                .push(std::fs::read(&path).map_err(|e| e.to_string())?);
        }
    }
    let batches = (ctx.seconds * RERUN_BATCHES_PER_S).ceil().max(2.0) as usize;
    let frames: Vec<(String, Vec<usize>)> = (0..batches)
        .map(|_| {
            let order: Vec<usize> = shuffled(cases.len() * 10, &mut rng)
                .into_iter()
                .map(|i| i % cases.len())
                .collect();
            let frame = paper::submit_frame(order.iter().map(|&i| &cases[i].job));
            (frame, order)
        })
        .collect();
    let mut setups = Vec::new();
    let mut restart = || -> Result<(ServerProcess, Conn), String> {
        let started = Instant::now();
        let server = ServerProcess::spawn(&ctx.bin, &data.0, &ctx.pid_file)?;
        let mut conn = Conn::open(server.addr)?;
        conn.call(&op("ping"))?;
        setups.push(secs(started.elapsed()));
        Ok((server, conn))
    };
    let (before, all) = (
        RERUN_SETUPS / 2 * RESTARTS_PER_SETUP,
        RERUN_SETUPS * RESTARTS_PER_SETUP,
    );
    let mut last = None;
    for _ in 0..before {
        drop(last.take()); // stop the previous server before the next boot
        last = Some(restart()?);
    }
    let (server, mut conn) = last.expect("RERUN_SETUPS > 1");
    let phase = rerun_phase(&server, &mut conn, &frames, &fill, ctx.trace)?;
    drop((conn, server));
    for _ in before..all {
        restart()?; // the guard it returns stops the server at once
    }
    replay.boot_ms = setups.iter().map(|s| s * 1e3).collect();
    replay.batches = frames
        .iter()
        .take(4)
        .map(|(_, order)| {
            order
                .iter()
                .map(|&i| cases[i].verification.clone())
                .collect()
        })
        .collect();
    let means: Vec<f64> = setups
        .chunks(RESTARTS_PER_SETUP)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    Ok(Run {
        setup_s: crate::stats::median(&means),
        setup_note: format!(
            "median of {} set-ups, half before and half after the measured phase, each the \
             mean of {} restarts from a data dir of {} designs with cached verdicts; \
             fill passes: {attempts}",
            means.len(),
            RESTARTS_PER_SETUP,
            cases.len()
        ),
        phase,
        replay,
    })
}

/// One untimed fill pass: a fresh data dir holding each design as a
/// snapshot with nothing learned, every job sent alone (so each race has
/// the cores to itself) and answered cold, then a graceful shutdown that
/// persists the verdicts for every later boot. Returns the dir, each
/// property's label, and whether random simulation won any race.
fn fill_pass(
    ctx: &Ctx,
    cases: &[PaperCase],
    order: &[usize],
) -> Result<(TempDir, BTreeMap<String, String>, bool), String> {
    let data = TempDir::fresh(ctx.work.join("rerun-data")).map_err(|e| e.to_string())?;
    for case in cases {
        let netlist = case.verification.netlist.clone();
        let design = design_hash(&netlist);
        let snapshot = Snapshot {
            netlist,
            knowledge: KnowledgeBase::new(design),
            verdicts: Vec::new(),
        };
        let path = data.0.join(snapshot_file_name(design));
        save_snapshot(&path, &snapshot).map_err(|e| e.to_string())?;
    }
    let (mut fill, mut by_chance) = (BTreeMap::new(), false);
    let server = ServerProcess::spawn(&ctx.bin, &data.0, &ctx.pid_file)?;
    let mut conn = Conn::open(server.addr)?;
    for &i in order {
        let reply = conn.call(&paper::submit_frame(std::iter::once(&cases[i].job)))?;
        let batch = reply.num("batch").unwrap_or(0.0) as u64;
        let results = conn.call(&batch_op("wait", batch))?;
        for result in results.arr("results").unwrap_or(&[]) {
            let (s, property) = sample(result, 0);
            if failed_label(&s.label) || paper::unsound(cases[i].expectation, &s.label).is_some() {
                return Err(format!("fill pass: {property} answered {}", s.label));
            }
            by_chance |= result.str("winner") == Some("random-sim");
            fill.insert(property, s.label);
        }
    }
    conn.call(&op("shutdown"))?;
    server.wait_exit(Duration::from_secs(60))?;
    if fill.len() != cases.len() {
        return Err(format!(
            "fill pass answered {} of {}",
            fill.len(),
            cases.len()
        ));
    }
    Ok((data, fill, by_chance))
}

fn rerun_phase(
    server: &ServerProcess,
    conn: &mut Conn,
    frames: &[(String, Vec<usize>)],
    fill: &BTreeMap<String, String>,
    traced: bool,
) -> Result<Phase, String> {
    let mut phase = Phase {
        latency_unit: "batch",
        ..Phase::default()
    };
    let before = if traced {
        fetch_metrics(conn)?
    } else {
        Metrics::new()
    };
    let pid = server.pid();
    let (cpu, client_cpu) = (cpu_secs(&pid), cpu_secs("self"));
    let epoch = Instant::now();
    for (frame, order) in frames {
        phase.attempted += order.len() as u64;
        let sent_ns = ns_since(epoch);
        let reply = conn.call(frame);
        let accepted_ns = ns_since(epoch);
        let batch = match reply {
            Ok(r) => r.num("batch").unwrap_or(0.0) as u64,
            Err(e) => {
                phase.failed += order.len() as u64;
                eprintln!("wlac-perfbench: submit_batch: {e}");
                continue;
            }
        };
        let results = match conn.call(&batch_op("wait", batch)) {
            Ok(r) => r,
            Err(e) => {
                phase.failed += order.len() as u64;
                eprintln!("wlac-perfbench: wait: {e}");
                continue;
            }
        };
        let done_ns = ns_since(epoch);
        let results = results.arr("results").unwrap_or(&[]);
        phase.failed += order.len().saturating_sub(results.len()) as u64;
        for (index, result) in results.iter().enumerate() {
            let (mut s, property) = sample(result, batch << 16 | index as u64);
            let expected = fill.get(&property);
            if !s.from_cache || s.engines != 0 || expected != Some(&s.label) {
                phase.problems.push(format!(
                    "{property}: from_cache={} engines={} label={} (fill pass: {expected:?})",
                    s.from_cache, s.engines, s.label
                ));
            }
            if failed_label(&s.label) {
                phase.failed += 1;
            }
            (s.sent_ns, s.accepted_ns, s.done_ns) = (sent_ns, accepted_ns, done_ns);
            s.batch_jobs = order.len();
            phase.jobs.push(s);
        }
        phase.latencies_ms.push((done_ns - sent_ns) as f64 / 1e6);
    }
    phase.measured_s = secs(epoch.elapsed());
    phase.server_cpu_s = cpu_secs(&pid) - cpu;
    phase.client_cpu_s = cpu_secs("self") - client_cpu;
    phase.rss_mb = peak_rss_mb(&pid);
    if traced {
        phase.delta = delta(&before, &fetch_metrics(conn)?);
        phase.frames_sent = frames.iter().map(|(f, _)| f.clone()).collect();
    }
    Ok(phase)
}

// ------------------------------------------------------------- design_stream

pub fn design_stream(ctx: &Ctx) -> Result<Run, String> {
    let count = (ctx.seconds * STREAM_DESIGNS_PER_S).ceil().max(20.0) as usize;
    check_fd_limit(count)?;
    let designs = gen::generate(ctx.seed, count);
    let register_frames: Vec<String> = designs
        .iter()
        .map(|d| {
            Json::obj(vec![
                ("op", Json::str("register_design")),
                ("source", Json::Str(d.source.clone())),
            ])
            .to_string()
        })
        .collect();
    let mut replay = Replay::default();
    let mut setups = Vec::new();
    let mut up = |replay: &mut Replay| -> Result<(TempDir, ServerProcess, Vec<String>), String> {
        let dir = TempDir::fresh(ctx.work.join("stream-data")).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let server = ServerProcess::spawn(&ctx.bin, &dir.0, &ctx.pid_file)?;
        let registering = Instant::now();
        let ids: Vec<String> = Conn::open(server.addr)?
            .pipeline(&register_frames)?
            .iter()
            .map(|reply| reply.str("design").unwrap_or("").to_string())
            .collect();
        replay.register_ms = vec![secs(registering.elapsed()) * 1e3 / designs.len() as f64];
        setups.push(secs(started.elapsed()));
        replay.boot_ms.push(secs(server.boot) * 1e3);
        Ok((dir, server, ids))
    };
    let mut last = None;
    for _ in 0..STREAM_SETUPS / 2 {
        drop(last.take());
        last = Some(up(&mut replay)?);
    }
    let (dir, server, ids) = last.expect("STREAM_SETUPS > 1");
    let order = shuffled(designs.len(), &mut Rng64::seed_from_u64(ctx.seed));
    let phase = stream_phase(&server, &designs, &ids, &order, ctx.trace)?;
    drop(server);
    drop(dir);
    for _ in STREAM_SETUPS / 2..STREAM_SETUPS {
        let (dir, server, _) = up(&mut replay)?;
        drop(server);
        drop(dir);
    }
    replay.setup_frames = register_frames;
    replay.sources = designs.iter().map(|d| d.source.clone()).collect();
    for design in designs.iter().take(40) {
        let jobs = design.verifications()?;
        replay.raced.extend(jobs.iter().cloned());
        replay.batches.push(jobs);
    }
    Ok(Run {
        setup_s: crate::stats::median(&setups),
        setup_note: format!(
            "median of {} fresh servers, half before and half after the measured phase, each \
             registering {} designs",
            setups.len(),
            designs.len()
        ),
        phase,
        replay,
    })
}

/// Every design's properties as one cold batch over `subscribe`, from two
/// connections that each take the next design when their batch is done.
fn stream_phase(
    server: &ServerProcess,
    designs: &[GenDesign],
    ids: &[String],
    order: &[usize],
    traced: bool,
) -> Result<Phase, String> {
    let frames: Vec<String> = order
        .iter()
        .map(|&d| {
            paper::submit_frame(
                designs[d]
                    .properties
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("design", Json::Str(ids[d].clone())),
                            (
                                "property",
                                Json::obj(vec![
                                    ("kind", Json::str(p.truth.kind())),
                                    ("monitor", Json::Str(p.monitor.clone())),
                                ]),
                            ),
                        ])
                    })
                    .collect::<Vec<_>>()
                    .iter(),
            )
        })
        .collect();
    let mut conns = vec![Conn::open(server.addr)?, Conn::open(server.addr)?];
    let before = if traced {
        fetch_metrics(&mut conns[0])?
    } else {
        Metrics::new()
    };
    let pid = server.pid();
    let (cpu, client_cpu) = (cpu_secs(&pid), cpu_secs("self"));
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let parts: Vec<(Phase, Conn)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .drain(..)
            .map(|mut conn| {
                let (next, frames) = (&next, &frames);
                scope.spawn(move || {
                    let mut phase = Phase::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(frame) = frames.get(i) else { break };
                        let design = &designs[order[i]];
                        let jobs = design.properties.len();
                        let (delivered, outcome) =
                            streamed_batch(&mut conn, frame, jobs, epoch, &mut phase);
                        for (index, s) in delivered {
                            let truth = design.properties[index].truth;
                            if !failed_label(&s.label) && !truth.accepts(&s.label) {
                                phase.problems.push(format!(
                                    "design #{} {}: expected {truth:?}, got {}",
                                    order[i], design.properties[index].monitor, s.label
                                ));
                            }
                            phase.latencies_ms.push(s.latency_ms());
                            phase.jobs.push(s);
                        }
                        // A shed or closed stream fails its undelivered jobs;
                        // the client reconnects and goes on, or stops if the
                        // server is gone.
                        if let Err(e) = outcome {
                            eprintln!("wlac-perfbench: stream: {e}");
                            match Conn::open(server.addr) {
                                Ok(fresh) => conn = fresh,
                                Err(_) => break,
                            }
                        }
                    }
                    (phase, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream client thread"))
            .collect()
    });
    let mut phase = Phase {
        latency_unit: "job",
        ..Phase::default()
    };
    let mut conns = Vec::new();
    for (part, conn) in parts {
        phase.absorb(part);
        conns.push(conn);
    }
    // Designs no client got to send, because both lost the server, are
    // attempted and failed: the run's work stays fixed.
    for &d in order.get(next.into_inner()..).unwrap_or(&[]) {
        let jobs = designs[d].properties.len() as u64;
        phase.attempted += jobs;
        phase.failed += jobs;
    }
    phase.measured_s = secs(epoch.elapsed());
    phase.server_cpu_s = cpu_secs(&pid) - cpu;
    phase.client_cpu_s = cpu_secs("self") - client_cpu;
    phase.rss_mb = peak_rss_mb(&pid);
    if traced {
        phase.delta = delta(&before, &fetch_metrics(&mut conns[0])?);
        phase.frames_sent = frames;
    }
    Ok(phase)
}

/// Every raced design keeps one journal file open in the server; refuse a
/// run the descriptor limit cannot hold instead of failing half-way.
fn check_fd_limit(designs: usize) -> Result<(), String> {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let soft = limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(usize::MAX);
    if designs + 256 > soft {
        return Err(format!(
            "design_stream needs {designs} open journals but `ulimit -n` is {soft}; \
             run it with fewer --seconds or a higher limit"
        ));
    }
    Ok(())
}
